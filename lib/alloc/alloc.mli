(** Allocation-cost minimization under an energy constraint: the problem
    model (companion Section III.D).

    A synthesis instance offers [m] processor {e types}; type [j] has an
    allocation cost [C_j], a power model, and a finite set of speeds.
    Task [i] needs [cycles.(j)] execution cycles per frame when compiled
    for type [j]; executed at the type's [l]-th speed it occupies
    utilization [u = cycles / (speed · frame)] of one processor and burns
    [E = cycles / speed · P_j(speed)] per frame. The synthesis question:
    allocate processor counts per type and place every task (utilization
    at most 1 per processor, total energy at most the budget) minimizing
    the total allocation cost. NP-hard in the strong sense; no constant
    approximation exists in general, hence the {e parametric} LP
    relaxation of {!Rounding}. *)

type proc_type = private {
  type_id : int;
  alloc_cost : float;  (** C_j > 0 *)
  model : Rt_power.Power_model.t;
  speeds : float array;  (** strictly increasing, positive *)
}

val proc_type :
  type_id:int -> alloc_cost:float -> model:Rt_power.Power_model.t ->
  speeds:float array -> proc_type
(** @raise Invalid_argument on malformed fields. *)

type task = private {
  id : int;
  cycles : float array;  (** per type; all > 0 *)
}

val task : id:int -> cycles:float array -> task

type instance = private {
  types : proc_type array;
  tasks : task list;
  frame : float;  (** common deadline; > 0 *)
  energy_budget : float;  (** E; > 0 *)
}

val instance :
  types:proc_type array -> tasks:task list -> frame:float ->
  energy_budget:float -> (instance, string) result
(** Checks dimensions (every task has one cycle count per type), distinct
    ids, positive frame and budget. *)

(** {1 Derived quantities} *)

val utilization : instance -> task -> ti:int -> level:int -> float
(** [cycles.(ti) / (speed · frame)]. *)

val energy : instance -> task -> ti:int -> level:int -> float
(** Energy per frame of running the task on one processor of the type at
    that speed (execution only; idle power of allocated processors is
    outside the published model). *)

val kappa : instance -> task -> ti:int -> int option
(** The slowest speed index meeting the deadline ([utilization <= 1]), or
    [None] when even the top speed cannot. *)

val e_min : instance -> float
(** Σ over tasks of the cheapest feasible per-task energy — the energy a
    fully unconstrained allocation could reach. *)

val e_max : instance -> float
(** Σ over tasks of the costliest feasible per-task energy. *)

(** {1 A placement and its realized cost} *)

type placement = { task_id : int; ti : int; level : int }

type build = {
  placements : placement list;  (** one per task *)
  counts : int array;  (** processors allocated per type *)
  alloc_cost : float;
  realized_energy : float;
}

val pack : instance -> placement list -> (build, string) result
(** First-fit bin packing of the placements' utilizations per type
    (capacity 1 per processor), realizing counts, cost and energy. Errors
    on missing/duplicate/foreign tasks or an infeasible placement
    ([utilization > 1]). Note: the energy budget is {e reported}, not
    enforced — callers decide what to do with violations, mirroring the
    published algorithms. *)

val gen :
  Rt_prelude.Rng.t -> n_types:int -> n_tasks:int -> instance_gamma:float ->
  (instance, string) result
(** Synthetic instances in the published style: allocation costs
    log-uniform in [\[1, 8\]], per-type speed grids of 3–5 levels in
    (0, 1\], XScale-like power curves with per-type coefficient jitter,
    cycles giving per-task top-speed utilizations in [\[0.05, 0.45\]] with
    per-type variation. *)
