(** Ground-truth optima for small instances (wraps {!Rt_exact.Search}).

    The selection+partition problem is NP-hard (it embeds both
    multiprocessor makespan feasibility and knapsack — see {!Hardness}),
    so the search is exponential; experiments use it up to a dozen items
    to normalize heuristic costs against the true optimum. *)

type budgeted = {
  solution : Solution.t;
  cost : float; [@rt.dim "joules"]
      (** {!Solution.cost} total of [solution], cross-checked against
          the search's own *)
  nodes : int;
  exhausted : bool;  (** a budget ran out; [solution] is the incumbent *)
  stats : Rt_exact.Search.stats;  (** work-stealing telemetry *)
}

val branch_and_bound_budgeted :
  ?pool:Rt_parallel.Pool.t -> ?shared:Rt_exact.Search.shared ->
  ?node_budget:int -> ?time_budget:float -> Problem.t ->
  (budgeted, string) result
(** {!Rt_exact.Search.solve} on the problem, with the same options:
    always returns a valid solution — seeded with all-reject, improved
    until the search completes or a budget runs out — with [exhausted]
    flagging an unproven optimum. [shared] connects the search to a
    cross-domain incumbent (the {!Portfolio} plumbing). [pool] runs it
    by work stealing; a completed pooled run returns the sequential
    run's solution byte for byte (same buckets, same rejected order) at
    any pool size. Among equal costs both keep the first assignment in
    depth-first order, and the all-reject seed unless a solution beats
    it strictly. Past [time_budget] a pooled run drops its pending units
    unrun and returns its incumbent. All failure modes, including a cost
    mismatch against {!Solution.cost}, are typed errors, never
    exceptions. *)
