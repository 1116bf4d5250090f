(** Multi-level service degradation: rejection generalized to QoS levels.

    Binary rejection is all-or-nothing; many real workloads degrade
    gracefully instead (skip every other job, decode at half resolution,
    subsample the sensor). This module generalizes the core problem: each
    task offers a menu of {e service levels}, each a (weight, penalty)
    point — full service contributes its whole weight at zero penalty,
    full rejection contributes nothing at full penalty, intermediate
    levels sit in between. Exactly one level is chosen per task; chosen
    positive-weight tasks are partitioned onto the processors as usual:

    {v minimize  Σ_j horizon·rate(load_j) + Σ_i penalty(chosen level_i) v}

    Binary rejection is the two-level special case, so every lower bound
    from the richer menu is at most the binary optimum — experiment E16
    measures how much graceful degradation actually buys. *)

type level = private {
  weight : float;  [@rt.dim "speed"] (** required-speed contribution at this level; >= 0 *)
  level_penalty : float;  [@rt.dim "penalty"] (** >= 0, finite *)
}

type qtask = private {
  id : int;
  levels : level list;
      (** distinct weights, sorted decreasing; the first is full service *)
}

val level : weight:float -> penalty:float -> level
(** @raise Invalid_argument on negative or non-finite fields. *)

val qtask : id:int -> levels:level list -> qtask
(** Sorts the levels by decreasing weight.
    @raise Invalid_argument on an empty menu or duplicate weights. *)

val of_item : Rt_task.Task.item -> qtask
(** The binary menu: full service (its weight, penalty 0) or full
    rejection (weight 0, its penalty). *)

val graceful : ?steps:int -> ?curve:float -> Rt_task.Task.item -> qtask
(** A [steps]-point menu (default 4) between full service and full
    rejection: serving a fraction [f] of the work costs
    [(1 - f)^curve] of the penalty. [curve] defaults to 1 (linear);
    [curve > 1] makes the first quality losses cheap (video enhancement
    layers, sensor subsampling) and is where degradation genuinely beats
    binary rejection. @raise Invalid_argument if [steps < 2] or
    [curve <= 0]. *)

(** {1 Solutions} *)

type choice = { task_id : int; level_index : int }

type solution = {
  choices : choice list;  (** exactly one per task *)
  partition : Rt_partition.Partition.t;
      (** the chosen positive-weight contributions, placed *)
}

val cost :
  Problem.t -> qtask list -> solution -> (float, string) result
(** Total cost. Errors on missing/duplicate/foreign choices, a partition
    that disagrees with the chosen weights, or an overloaded processor.
    [Problem.t] supplies the processor/m/horizon context; its own
    item list is ignored (the menu replaces it). *)

val validate :
  Problem.t -> qtask list -> solution -> (unit, string) result
(** [cost] plus the frame-simulator round trip on the partition. *)

(** {1 Algorithms} *)

val greedy_degrade : Problem.t -> qtask list -> solution
[@@rt.hot "inner loop of experiment E16 and the sweep battery"]
(** Start everything at full service; while the LTF packing is infeasible
    {e or} some single-step degradation pays for itself (energy saved
    exceeds penalty added), apply the best such step and repack.
    Terminates: each step strictly moves down a finite menu.

    Each candidate step is priced exactly as a full LTF repack would
    price it, but the pack resumes from a snapshot of the loads before
    the moved task's position in the LTF order: O(steps · n · n · m)
    for [n] tasks on [m] processors, with steps at most the total menu
    length. *)

val exhaustive : Problem.t -> qtask list -> solution
(** Enumerate level menus × partitions (via {!Rt_exact.Search} on each
    menu combination). @raise Invalid_argument when the menu product
    exceeds 200_000 combinations, or when one combination's search
    exceeds {!Rt_exact.Search.node_limit} nodes. *)
