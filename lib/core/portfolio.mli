(** Race the heuristic family against budgeted exact search.

    The paper's hardness result (NP-completeness under bounded [s_max])
    means no single solver dominates: the greedy family answers in
    microseconds at unbounded quality loss, the branch-and-bound proves
    optimality at unbounded cost in time. The portfolio runs them {e as
    rivals}: every entrant solves the same instance, each heuristic
    publishes its cost to a shared atomic incumbent the moment it
    finishes, and the exact entrant's prune test reads that bound
    mid-flight — typically collapsing its search tree by orders of
    magnitude compared to its own all-reject seed. The portfolio is
    useful even on one domain (run sequentially, heuristics first, the
    bound still pre-seeds the exact search); a {!Rt_parallel.Pool}
    overlaps the entrants in wall time on top.

    The winner is chosen deterministically — lowest {!Solution} cost,
    ties to the earliest entrant, heuristics listed before the exact
    entrant — and is re-validated through the simulator-backed
    {!Solution.validate}. When the exact entrant completes
    within its budgets, the outcome (winner, cost, solution bytes) is
    identical at any pool size: the shared bound prunes only strictly
    worse subtrees, so publication timing affects speed, never results
    (docs/PARALLEL.md). Under an exhausted budget the incumbent the
    exact entrant happened to reach is inherently timing-dependent;
    [stats] reports [exhausted] so callers can tell the two regimes
    apart. *)

type stat = {
  name : string;
  cost : float option; [@rt.dim "joules"]
      (** [None] — the entrant forfeited (infeasible) *)
  wall : float; [@rt.dim "seconds"]
      (** entrant wall-clock seconds ({!Rt_prelude.Clock}) *)
  nodes : int;  (** search nodes (0 for heuristic entrants) *)
  exhausted : bool;  (** exact entrant only: budget ran out *)
}

type outcome = {
  solution : Solution.t;  (** the winning, re-validated solution *)
  cost : float; [@rt.dim "joules"]  (** its {!Solution.cost} total *)
  winner : string;  (** entrant name *)
  stats : stat list;  (** per-entrant, in entrant order (exact last) *)
}

val default_entrants : (string * (Problem.t -> Solution.t)) list
(** [ltf+ls], [density+ls], [marginal+ls] — the deterministic greedy
    family, each polished by {!Local_search}. *)

val exact_name : string
(** ["bb"] — the name under which the exact entrant reports. *)

val run :
  ?pool:Rt_parallel.Pool.t ->
  ?entrants:(string * (Problem.t -> Solution.t)) list ->
  ?node_budget:int -> ?time_budget:float -> Problem.t ->
  (outcome, string) result
(** Race [entrants] (default {!default_entrants}) plus the exact entrant
    ({!Exact.branch_and_bound_budgeted} under [node_budget] /
    wall-clock [time_budget]). Without [pool], entrants run sequentially
    in order on the calling domain. Errors only if no entrant produced a
    feasible solution or the winner failed validation — neither occurs
    for the default entrants, whose solutions are feasible by
    construction. *)
