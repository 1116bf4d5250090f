(** Solutions: an accepted partition plus the rejected set, and their cost.

    Costing and validation are deliberately separate code paths from the
    algorithms: [cost] recomputes everything from the solution's structure,
    and [validate] additionally round-trips the accepted schedule through
    the concrete frame simulator, so an algorithm cannot "win" an
    experiment by mis-reporting its own objective value. *)

type t = {
  partition : Rt_partition.Partition.t;  (** the accepted items, placed *)
  rejected : Rt_task.Task.item list;
}

type cost = {
  energy : float;  [@rt.dim "joules"] (** Σ_j horizon · rate(load_j), including idle processors *)
  penalty : float;  [@rt.dim "penalty"] (** Σ over rejected items *)
  total : float; [@rt.dim "joules"]
}

val cost : Problem.t -> t -> (cost, string) result
(** Recompute the objective. Errors when a processor is overloaded or the
    partition has the wrong width. *)

val validate : Problem.t -> t -> (unit, string) result
(** Everything [cost] checks, plus: every problem item appears exactly once
    (accepted or rejected), no foreign items, and the accepted schedule
    passes {!Rt_sim.Frame_sim.validate} on a concrete timeline. *)

val accepted_ids : t -> int list
(** Sorted. *)

val rejected_ids : t -> int list
(** Sorted. *)

val acceptance_ratio : Problem.t -> t -> float [@rt.dim "1"]
(** Accepted items over total items (1.0 for an empty problem). *)

val pp_cost : Format.formatter -> cost -> unit
