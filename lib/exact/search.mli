(** Exact solver for select-and-partition problems.

    The problem: place each item on one of [m] identical processors or
    reject it (paying its penalty); a processor's load (weight sum) must
    stay within [capacity]; the objective is

    {v Σ_j bucket_cost(load_j)  +  Σ_rejected penalty v}

    with [bucket_cost] non-decreasing (energy of sustaining a load).
    {!solve} enumerates assignments largest item first, with
    processor-symmetry breaking (an item may only open the
    lowest-indexed empty processor), so identical processors are never
    counted twice, and by default prunes with the monotonicity bound:
    committed bucket energies and committed penalties never decrease as
    the remaining items are placed.

    [bucket_cost] must be pure. The search keeps each bucket's energy
    beside its load and reuses it: [bucket_cost] runs once per bucket at
    the start, then once per placement, on the changed bucket's new
    load; a rejection runs it not at all. A placement is priced before
    its node is visited, so a node that a budget then stops at has been
    priced too. A sequential run makes at most [m + nodes] calls.

    Complexity is exponential — this is the ground-truth oracle for the
    small instances of experiment E1 and for the property tests, not a
    production algorithm. *)

type solution = {
  partition : Rt_partition.Partition.t;
  rejected : Rt_task.Task.item list;
  cost : float;
}

type stats = {
  steals : int list;
      (** successful steals per pool worker; [[]] without a pool *)
  splits : int;  (** search-tree nodes expanded instead of run *)
  pruned : int;  (** pending units dropped whole against the shared bound *)
  subtrees : int;
      (** units run — [1], the root, without a pool. Expanded nodes and
          run units cover the tree exactly: on a prune-free run that
          completes, [nodes] plus [splits] equal the sequential visit
          count. *)
}
(** Scheduling telemetry of a {!solve} run. *)

type anytime = {
  best : solution;  (** best solution found within the budget *)
  nodes : int;  (** search-tree nodes visited *)
  exhausted : bool;
      (** [true] when a budget ran out before the search completed — the
          solution is then the incumbent, not a proven optimum *)
  stats : stats;
}
(** Result of a search. The incumbent is seeded with the all-reject
    solution, so [best] is a feasible solution even on a zero budget. *)

(** {2 Shared incumbent}

    A cross-domain upper bound on the optimal cost. Any solver or
    heuristic may {!publish} the cost of a solution it actually holds;
    the prune test reads the cell and additionally cuts subtrees whose
    lower bound is {e strictly worse} than the published value.
    Strictness is what keeps parallel runs deterministic: a search still
    visits every node that could tie its own best, so the solution it
    returns never depends on when a sibling's publication arrived — only
    how fast it got there does (see docs/PARALLEL.md). *)

type shared

val shared : unit -> shared
(** A fresh cell holding [infinity]. *)

val publish : shared -> float -> unit
(** Lower the cell to [cost] if it improves it (lock-free CAS loop).
    Publish only costs of feasible solutions the caller holds. *)

(** {2 Search} *)

val node_limit : int
(** 50 million — the [node_budget] oracle callers pass to guard against
    runaway instances, treating an [exhausted] result as an error. *)

val solve :
  ?pool:Rt_parallel.Pool.t -> ?shared:shared -> ?node_budget:int ->
  ?time_budget:float -> ?prune:bool -> m:int -> capacity:float ->
  bucket_cost:(float -> float) -> Rt_task.Task.item list ->
  (anytime, string) result
(** Exact search until done or until a budget runs out; running out is
    not a failure — the incumbent comes back with [exhausted = true].

    The answer is the first leaf in depth-first order (buckets
    [0..m-1], then rejection, for each item largest first) of the least
    cost, if that cost is strictly below the all-reject seed's; else the
    seed, which rejects every item in that order.

    Without [pool], one depth-first search runs on the calling domain.
    With [pool] (of any size), the tree is carved into units on demand
    and balanced across the workers by work stealing: each worker pops
    its own deque depth-first and expands any node with more than 4
    undecided items into stealable children; smaller units run whole,
    with no incumbent of their own. Each unit's reject-the-rest seed is
    published to one shared incumbent that all workers prune against
    strictly, and each worker folds its units' best leaves by (cost,
    then depth-first position). A completed pooled run is therefore
    byte-identical to the sequential one at any pool size and steal
    schedule; only [nodes] and [stats] depend on scheduling (see
    docs/PARALLEL.md).

    [node_budget] bounds each run unit — the whole search without a
    pool; with one, the first exhausted unit stops further expansion,
    so the total stays bounded. [time_budget] is one monotonic
    wall-clock deadline ({!Rt_prelude.Clock}): a search polls it every
    1024 nodes, and a pooled run also between units, dropping every
    unit popped after it unrun. [shared] connects the search to a
    cross-domain incumbent: it prunes against the published bound and
    publishes its own improvements. [prune] (default [true]) exists for
    the tests: [~prune:false] disables the bound, making the search a
    full enumeration and node accounting exact.

    Errors on [m < 1], [capacity <= 0], [node_budget < 0], and on a full
    enumeration ([~prune:false]) of more than 16 items with neither
    budget given. An exception raised by [bucket_cost] propagates, and
    leaves [pool] usable. *)
