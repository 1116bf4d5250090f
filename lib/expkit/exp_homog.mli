(** Experiments E1–E4: the core rejection-scheduling evaluation on
    homogeneous ideal multiprocessors (XScale-like power model).

    Each function prints nothing; it returns the finished table so the
    [experiments] binary and the benchmark harness render identical
    output. [seeds] is the number of replications per row (defaults keep
    the full suite under a couple of minutes). *)

val e1_vs_optimal : ?seeds:int -> unit -> Rt_prelude.Tablefmt.t
(** Average total-cost ratio to the exact optimum (branch-and-bound) on
    small instances; rows sweep (m, n), load 1.4. *)

val e2_vs_lower_bound : ?seeds:int -> unit -> Rt_prelude.Tablefmt.t
(** Average ratio to the pooled + fractional-rejection lower bound at
    scale; rows sweep (m, n), load 1.5. *)

val e3_load_sweep : ?seeds:int -> unit -> Rt_prelude.Tablefmt.t
(** Ratio-to-lower-bound and acceptance ratio as the normalized load sweeps
    through the forced-rejection threshold (n = 40, m = 8). *)

val e4_penalty_models : ?seeds:int -> unit -> Rt_prelude.Tablefmt.t
(** Sensitivity of the algorithm ranking to the penalty model (uniform /
    proportional / inverse / bimodal) at load 1.6. *)
