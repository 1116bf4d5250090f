(** Seeded replication helpers shared by the experiment suite. *)

val seeds : base:int -> n:int -> int list
(** [n] distinct deterministic seeds derived from [base]. *)

val replicate :
  ?pool:Rt_parallel.Pool.t -> seeds:int list -> (int -> float) ->
  Rt_prelude.Stats.summary
(** [replicate ~seeds f] evaluates [f seed] for every seed and summarizes.
    Skips NaN results (an experiment may declare a replication
    inapplicable that way) — @raise Invalid_argument if {e every}
    replication was NaN.

    With [pool] the replications fan out over a {!Rt_parallel} pool. Each
    replication is keyed by its seed and results are summarized in seed
    order, so the summary is byte-identical to the sequential one at any
    domain count. [f] must therefore be a pure function of its seed. *)

val mean_over :
  ?pool:Rt_parallel.Pool.t -> seeds:int list -> (int -> float) -> float
(** [replicate] then the mean. *)
