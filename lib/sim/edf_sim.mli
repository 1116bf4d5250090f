(** Event-driven partitioned-EDF simulation over a hyper-period.

    Validates the periodic side of the story concretely: a processor that
    runs its assigned periodic tasks under preemptive EDF at a constant
    execution speed [s] meets every deadline iff the assigned utilization
    is at most [s] (Liu & Layland, speed-scaled). The simulator executes
    the job set job-by-job, reports misses, and integrates energy —
    including what happens in the idle gaps, which is where the
    procrastination experiments look.

    The execution speed is constant per processor (what the partitioned
    algorithms emit for ideal processors; for discrete-level processors
    the frame simulator exercises the two-level split instead). *)

type miss = { task_id : int; deadline : float; late_by : float }

type gap = { g0 : float; g1 : float }

type outcome = {
  horizon : float;  (** simulated span (one hyper-period by default) *)
  misses : miss list;  (** empty iff feasible *)
  busy_time : float;
  gaps : gap list;  (** maximal idle intervals, in time order *)
  exec_energy : float;  (** busy_time × P(speed) *)
  idle_energy_awake : float;
      (** idle charged at leakage power, i.e. never sleeping *)
  idle_energy_sleep : float;
      (** idle charged gap-by-gap at [min(leakage·gap, E_sw)] — the
          dormant-enable policy without procrastination *)
  idle_energy_proc : float;
      (** idle charged as one coalesced interval — idealized
          procrastination (Algorithm PROC's upper bound on savings) *)
  preemptions : int;
}

type injection = {
  overrun : int -> float;
      (** per-task WCEC inflation factor (1.0 = nominal); must be finite
          and positive for every task in the set *)
  crash_at : float option;
      (** processor dies at this time: no execution afterwards, but
          deadline accounting still runs to the full horizon *)
  speed_cap : float option;
      (** DVS derating: the processor cannot exceed this speed, so jobs
          execute at [min speed cap]. The cap need not be a feasible DVS
          level — it models hardware throttling below the commanded
          level. *)
}
(** A fault scenario for one processor, as seen by the simulator. Build
    these by hand or from a {!Rt_fault.Fault.scenario}. *)

val no_injection : injection
(** The identity injection, {!run}'s default. *)

val run :
  ?horizon:float -> ?inject:injection -> proc:Rt_power.Processor.t ->
  speed:float -> Rt_task.Task.periodic list -> (outcome, string) result
(** Simulate the tasks on one processor at constant [speed]. [horizon]
    defaults to the hyper-period (in ticks, as a float). Errors on an
    infeasible speed for the processor, [speed <= 0] with a non-empty task
    set, duplicate task ids, a non-positive horizon, or hyper-period
    overflow. A task set that merely {e overloads} the processor is not an
    error — the misses are reported in the outcome.

    Under a fault scenario [inject], execution times are inflated by
    [inject.overrun], the effective speed is clamped to
    [inject.speed_cap], and no job executes past [inject.crash_at]. The
    {e commanded} [speed] must still be feasible for the processor; the
    derated effective speed need not be, since derating models hardware
    misbehaviour. Additional errors: a non-finite or non-positive overrun
    factor for some task, a non-finite or negative crash time, or a
    non-finite or non-positive speed cap. *)

