(** Heterogeneous-power-characteristics scheduling (LEET/LEUF substrate).

    When task [i] draws dynamic power [f_i · P_d(s)] (its [power_factor]
    times the processor's nominal curve), running every co-located task at
    one common speed is no longer optimal: the KKT conditions of

    {v minimize  Σ_i f_i·c_i·P_d(s_i)/s_i   s.t.  Σ_i c_i/s_i <= H v}

    give [f_i · s_i^alpha] constant across tasks, i.e.
    [s_i = K / f_i^(1/alpha)], with speeds floored at each task's own
    critical speed (leakage-aware) and capped at [s_max]. This module
    solves that per-processor problem and implements the
    Largest-Estimated-Utilization-First partition built on it:

    + estimate speeds by pretending the pooled horizon [m·H] is available;
    + sort tasks by estimated execution time, descending;
    + greedily assign to the processor with the least total estimated time;
    + re-optimize speeds per processor.

    Requires a power model with [linear = 0] (the closed-form exponent
    structure); [p_ind] is supported (it cancels from the KKT tradeoff and
    only moves the critical-speed floors). *)

type speed_assignment = {
  speeds : (int * float) list;  (** item id → execution speed *)
  time_used : float;  (** Σ c_i / s_i, <= the horizon *)
  energy : float;
      (** execution energy; for dormant-disable processors the caller must
          add the constant [p_ind · H] awake cost separately via
          {!awake_overhead} *)
}

val processor_speeds :
  Rt_power.Processor.t -> horizon:float -> Rt_task.Task.item list ->
  speed_assignment option
(** Optimal speeds for the items placed on one processor, [None] when even
    top speed cannot fit them in [horizon]. Item weights are interpreted
    against this same horizon (cycles [= weight·horizon]).
    @raise Invalid_argument on [horizon <= 0], a model with a linear term,
    or a non-ideal (discrete-level) processor. *)

val awake_overhead : Rt_power.Processor.t -> horizon:float -> float
(** [rest_power · horizon] ({!Rt_power.Processor.rest_power}): [p_ind ·
    horizon] for dormant-disable processors, [0.] for dormant-enable
    (which sleep when idle; transition overheads are out of scope here,
    see {!Rt_speed.Procrastinate}). *)

val estimated_times :
  Rt_power.Processor.t -> m:int -> horizon:float -> Rt_task.Task.item list ->
  (int * float) list
(** Step (1): per-item estimated execution times under the pooled horizon
    [m·horizon], each capped at [horizon]. Returns [(item id, time)].
    Items that cannot fit in [horizon] even at [s_max] get time [horizon]. *)

val leuf :
  Rt_power.Processor.t -> m:int -> horizon:float -> Rt_task.Task.item list ->
  Partition.t
(** Steps (2)–(3): the Largest-Estimated-Utilization-First partition. *)

val total_energy :
  Rt_power.Processor.t -> horizon:float -> Partition.t -> float option
(** Σ over processors of the re-optimized energy (including awake
    overheads); [None] if any processor is infeasible. *)
