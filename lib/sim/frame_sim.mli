(** Concrete frame schedules and their validation.

    The optimization layers reason about abstract "energy rates"; this
    simulator turns a partition plus per-processor speed plans into a
    concrete timeline — which task runs when, at which speed, on which
    processor — and independently re-checks everything the optimizer
    promised: all accepted tasks finish within the frame, all speeds are
    feasible, and the energy adds up. Every algorithm's output in the test
    suite round-trips through [build] + [validate]. *)

type slice = {
  task_id : int option;  (** [None] = idle/sleep tail *)
  t0 : float;
  t1 : float;
  speed : float;
}

type proc_timeline = {
  proc_index : int;
  slices : slice list;  (** contiguous from 0, non-overlapping, sorted *)
  proc_energy : float;
}

type t = {
  frame_length : float;
  proc : Rt_power.Processor.t;
  partition : Rt_partition.Partition.t;  (** the assignment being realized *)
  timelines : proc_timeline list;
  total_energy : float;
}

val build :
  proc:Rt_power.Processor.t -> frame_length:float -> Rt_partition.Partition.t ->
  (t, string) result
(** Lay out each processor's bucket sequentially (in bucket order) using the
    optimal {!Rt_speed.Energy_rate} plan for the bucket's load: tasks run at
    the plan's speeds fastest-first, each task's cycles split across plan
    segments as needed, and the idle/sleep tail closes the frame. Errors if
    some bucket's load exceeds [s_max] (no feasible plan) or if any item
    has a non-unit [power_factor] (heterogeneous power lives in
    {!Rt_partition.Hetero}, not here). *)

val validate : t -> (unit, string) result
(** Independent re-check of a built schedule, to a tolerance of 1e-6:
    slices tile [\[0, frame\]] without overlap; every task present in a
    slice completes exactly its cycles (weight × frame) across its
    slices; speeds are feasible; [total_energy] equals the energy
    integrated from the slices (idle slices charged at the
    dormancy-appropriate rest power). *)

type injection = {
  overrun : int -> float;
      (** per-task WCEC inflation factor (1.0 = nominal); must be finite
          and positive for every partitioned item *)
  crash : int -> float option;
      (** per-{e processor} crash time: processor [j] executes nothing
          after [crash j]; [None] = healthy *)
  speed_cap : float option;
      (** DVS derating: every task slice actually runs at
          [min planned_speed cap] — planned speeds above the cap silently
          under-deliver cycles *)
}
(** A fault scenario replayed against a built schedule. Build these by
    hand or from a {!Rt_fault.Fault.scenario}. *)

val no_injection : injection
(** The identity injection: replaying it reports no misses (for a
    schedule that passes {!validate}) and the nominal energy. *)

type fault_report = {
  missed : int list;
      (** ids whose delivered cycles fall short of
          [nominal · overrun · frame] (tolerant comparison) *)
  delivered : (int * float) list;  (** cycles actually executed, per task *)
  faulty_energy : float;
      (** energy of the degraded execution: task slices at their actual
          (possibly capped) speed, idle slices at the dormancy-appropriate
          idle power, nothing after a crash *)
  dead_time : float;
      (** total processor-time lost to crashes, [Σ_j (frame − stop_j)] *)
}

val run_injected :
  ?nominal:(int -> float) -> inject:injection -> t ->
  (fault_report, string) result
(** Replay a built schedule under a fault scenario. Each processor
    executes its planned slices until its crash time (if any); task
    slices deliver [dt × min(speed, cap)] cycles. Task [id] needs
    [nominal id × overrun id × frame_length] cycles to finish —
    [nominal] defaults to the partitioned item's weight, but callers
    verifying a {e degraded} plan whose items already carry inflated
    weights must pass the original weights here, otherwise the overrun
    would be double-counted. Errors on a non-finite/non-positive overrun
    factor or speed cap, or a non-finite/negative crash time. *)

val gantt : t -> string
(** ASCII Gantt chart, one row per processor; digits/letters identify
    tasks, ['.'] idle. *)
