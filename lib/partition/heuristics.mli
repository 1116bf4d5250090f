(** Partitioning heuristics over the item view.

    [ltf] is the Largest-Task-First strategy (LPT in the makespan
    literature): sort by weight descending, always assign to the
    least-loaded processor. The companion papers prove LTF-based schedules
    are 1.13-approximate in energy for independent-rail homogeneous systems;
    for makespan it inherits Graham's [(4/3 - 1/(3m))] bound, which the
    property tests exercise.

    [greedy_unsorted] is the companion's Algorithm RAND reference: the same
    min-load greedy but in arrival order (no sort). The [first_fit]
    heuristics are capacity-aware bin-packing rules that return the items
    that fit nowhere. *)

val ltf : m:int -> Rt_task.Task.item list -> Partition.t

val greedy_unsorted : m:int -> Rt_task.Task.item list -> Partition.t

val first_fit :
  m:int -> capacity:float -> Rt_task.Task.item list ->
  Partition.t * Rt_task.Task.item list
(** Scan processors in index order; place the item on the first whose load
    would stay [<= capacity]; unplaceable items are returned (in input
    order). @raise Invalid_argument if [capacity <= 0]. *)

val first_fit_decreasing :
  m:int -> capacity:float -> Rt_task.Task.item list ->
  Partition.t * Rt_task.Task.item list
(** [first_fit] after sorting by weight descending. *)

val capacity_respected : capacity:float -> Partition.t -> bool
(** All loads [<=] capacity (within tolerance). *)
