(** Experiment E7: substrate validation against the companion paper's
    published figures.

    The rejection heuristics are built on the LTF partitioning substrate,
    so we check that our substrate reproduces the companion text's
    published behaviour: Figure 4 (LTF close to optimal, RAND noticeably
    worse, both improving as tasks-per-core grows) and Figure 5 (same
    story for heterogeneous power characteristics with LEUF). Penalties
    play no role here — tasks are all accepted. *)

val e7_ltf_vs_rand : ?seeds:int -> unit -> Rt_prelude.Tablefmt.t
(** Rows sweep (m, n); columns [LTF / OPT] and [RAND / OPT]: the mean
    energy of LTF and of RAND (unsorted min-load greedy) relative to the
    exact minimum-energy partition. *)

val e7_hetero_leuf : ?seeds:int -> unit -> Rt_prelude.Tablefmt.t
(** Heterogeneous power factors (ρ_i uniform in [0.5, 3]): LEUF vs RAND
    against the exact optimum, per task-to-processor ratio η (the
    companion's Figure 5 axis). m = 3 to keep the exact search tractable. *)
