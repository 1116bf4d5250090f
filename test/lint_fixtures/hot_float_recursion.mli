val min_index : float array -> int -> int -> float -> int
[@@rt.hot "fixture: annotated kernel"]

val min_index_loop : float array -> int
[@@rt.hot "fixture: annotated kernel"]
