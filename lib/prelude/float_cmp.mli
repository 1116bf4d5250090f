(** Tolerant floating-point comparison.

    Scheduling arithmetic (speeds, durations, energies) accumulates rounding
    error; every feasibility check and every "does the reported cost equal
    the recomputed cost" assertion in this repository goes through the
    helpers below so that the tolerance policy lives in exactly one place. *)

val default_eps : float
(** Absolute/relative tolerance used when [?eps] is omitted ([1e-9]). *)

val approx_eq : ?eps:float -> float -> float -> bool
(** [approx_eq a b] is [true] when [a] and [b] differ by at most
    [eps * max 1. (max |a| |b|)] — i.e. absolute for small magnitudes and
    relative for large ones. *)

val leq : ?eps:float -> float -> float -> bool
(** [leq a b] is [a <= b] up to tolerance: [a <= b +. slack]. Infinite
    or NaN operands compare exactly (no slack): an infinite density is
    never "at most" a finite cap — the degenerate case a feasibility
    test on an already-expired deadline produces. *)

val geq : ?eps:float -> float -> float -> bool
(** [geq a b] is [b <= a] up to tolerance. *)

val lt : ?eps:float -> float -> float -> bool
(** Strictly less, by more than the tolerance. *)

val gt : ?eps:float -> float -> float -> bool
(** Strictly greater, by more than the tolerance. *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] projects [x] onto [\[lo, hi\]].
    @raise Invalid_argument if [lo > hi]. *)

val is_finite : float -> bool
(** [true] iff the argument is neither infinite nor NaN. *)

(** {2 Exact comparisons}

    Argument validation ("reject a non-positive frame length") and
    total-order tie-breaks need raw IEEE semantics, not tolerance: widening
    them would reject valid degenerate inputs or break comparator
    transitivity.  Routing them through this module keeps every float
    comparison in the repository in one audited place — rt-lint's
    [float-cmp] rule flags bare operators precisely so call sites must
    choose, visibly, between the tolerant family above and the exact family
    below. *)

val exact_eq : float -> float -> bool
(** IEEE equality ([Float.equal]; NaN equals NaN, [0. = -0.]). *)

val exact_lt : float -> float -> bool
(** IEEE [<], no tolerance. *)

val exact_le : float -> float -> bool
(** IEEE [<=], no tolerance. *)

val exact_gt : float -> float -> bool
(** IEEE [>], no tolerance. *)

val exact_ge : float -> float -> bool
(** IEEE [>=], no tolerance. *)
