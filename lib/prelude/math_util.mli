(** Integer arithmetic and one-dimensional numeric solvers.

    The solvers are deliberately simple, derivative-free routines: the convex
    objectives in this code base (power functions, Lagrangian duals) are
    smooth and unimodal on the intervals we probe, so golden-section and
    bisection are reliable and dependency-free. *)

(** {1 Integer helpers} *)

val gcd : int -> int -> int
(** Greatest common divisor; [gcd 0 0 = 0], always non-negative. *)

val lcm_checked : int -> int -> (int, string) result
(** Least common multiple, with the failure modes (non-positive arguments,
    overflow past [max_int]) reported as a typed error — the overflow
    guard is exact, never a silent wraparound. *)

val lcm_list_checked : int list -> (int, string) result
(** LCM of a list of positive integers (the hyper-period of integer
    periods), with errors (empty list, non-positive element, overflow on
    any intermediate fold step) as a typed result. *)

val pow_int : int -> int -> int
(** [pow_int b e] is [b]{^ [e]} for [e >= 0]. @raise Invalid_argument on
    negative exponent or overflow. *)

(** {1 Ranges} *)

val range : int -> int -> int list
(** [range lo hi] is [\[lo; lo+1; …; hi\]] ([\[\]] when [lo > hi]). *)

val frange : lo:float -> hi:float -> steps:int -> float list
(** [frange ~lo ~hi ~steps] is [steps + 1] evenly spaced points from [lo] to
    [hi] inclusive. @raise Invalid_argument if [steps < 1]. *)

(** {1 One-dimensional solvers} *)

val golden_section_min :
  f:(float -> float) -> lo:float -> hi:float -> unit -> float * float
(** [golden_section_min ~f ~lo ~hi ()] minimizes a unimodal [f] on
    [\[lo, hi\]] and returns the pair of minimizer and minimum value. It
    stops when the bracket is narrower than [1e-10] times
    [max 1 (|a| + |b|)] for its ends [a] and [b], or after 200 steps. *)

val bisect_root :
  f:(float -> float) -> lo:float -> hi:float -> unit -> float
(** [bisect_root ~f ~lo ~hi ()] finds [x] with [f x ≈ 0] given
    [f lo] and [f hi] of opposite signs (either may be zero). It stops
    as {!golden_section_min} does, at a relative width of [1e-12].
    @raise Invalid_argument when the signs do not bracket a root. *)

val bisect_decreasing :
  f:(float -> float) -> target:float -> lo:float -> hi:float -> unit -> float
(** [bisect_decreasing ~f ~target ~lo ~hi ()] solves [f x = target] for a
    monotonically decreasing [f], clamping to the bracket ends when the
    target is outside [\[f hi, f lo\]]; it stops as {!bisect_root}. *)
