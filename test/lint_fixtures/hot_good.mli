val sum_sq : float array -> float array -> float
[@@rt.hot "fixture: annotated kernel"]
