(** E19: overload/fault stress sweep (robustness extension).

    Frame instances at comfortable load are hit with seeded fault
    scenarios of growing rate (per-task 1.5× WCEC overruns, processor
    crashes, 0.8 platform derates, each drawn with the row's
    probability); each {!Rt_fault.Degrade} policy recovers and is scored
    on normalized cost — measured degraded energy plus every penalty
    paid, charging a missed task its full rejection penalty — and on the
    deadline-miss percentage. *)

type row = {
  fault_rate : float;
  policy : string;
  cost_ratio : float;  (** degraded cost / fault-free baseline total *)
  miss_pct : float;  (** % of tasks missing their deadline *)
  shed_pct : float;  (** % of tasks shed by the recovery *)
}

val sweep : ?pool:Rt_parallel.Pool.t -> ?seeds:int -> unit -> row list
(** Mean metrics per (fault rate × policy), at fault rates 0, 0.05 and
    0.15; the structured form the fault benchmark serializes. With
    [?pool] the (rate × policy × seed) replications fan out over the
    pool; every replication is keyed by its seed and rows are assembled
    in submission order, so the result is byte-identical to the
    sequential sweep at any domain count. *)

val e19_fault_sweep : ?seeds:int -> unit -> Rt_prelude.Tablefmt.t
(** The registry table: one row per fault rate, cost and miss%% columns
    per policy. *)
