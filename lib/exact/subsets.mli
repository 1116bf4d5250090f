(** Subset enumeration helpers (exhaustive baselines and tests). *)

val iter : 'a list -> ('a list * 'a list -> unit) -> unit
(** [iter xs f] calls [f (chosen, not_chosen)] for each of the [2^n]
    subsets, both parts in the original order.
    @raise Invalid_argument when [xs] is longer than 30 elements (the loop
    would never finish). *)

val count : 'a list -> int
(** [2^n]; same length guard as {!iter}. *)
