(** Migratory frame scheduling: the migration-allowed optimum plus a
    McNaughton wrap-around realization.

    If task instances may migrate between processors (but never run on two
    at once), preemptive-migratory feasibility on [m] processors within a
    frame [D] is exactly characterized by

    {v Σ exec_i <= m·D   and   exec_i <= D  for every task. v}

    With convex power each task runs at one constant speed (Jensen), so
    the migratory {e optimum} is the water-filling

    {v minimize Σ c_i · P(s_i)/s_i   s.t.   Σ c_i/s_i <= m·D,  s_i >= w_i v}

    — per-task speeds [s_i = max(λ, w_i, s_crit)] with one multiplier λ —
    which is the pooled KKT solve of {!Hetero.estimated_times}. A concrete
    schedule realizing those times is built by McNaughton's wrap-around
    rule: pour the executions into the [m × D] rectangle row by row,
    splitting at row boundaries; the two pieces of a split task never
    overlap in time because no execution exceeds one frame.

    The optimum's energy lower-bounds {e every partitioned} schedule of
    the same items. Mind the gap's size, though: partitioning itself can
    cost up to 4/3 against this relaxation (three near-equal tasks on two
    processors), so it is a {e coarser} yardstick than the optimal
    partition that the published 1.13 LTF bound is stated against —
    experiment E15 measures the combined gap. *)

type slice = {
  item_id : int;
  proc : int;
  t0 : float;
  t1 : float;  (** within [\[0, frame\]], [t1 > t0] *)
}

type schedule = {
  speeds : (int * float) list;  (** item id → its constant speed *)
  slices : slice list;
  energy : float;
}

val optimal :
  proc:Rt_power.Processor.t -> m:int -> frame:float ->
  Rt_task.Task.item list -> (schedule, string) result
(** Errors when the instance is infeasible even at [s_max]
    ([total/m > s_max] or some [w_i > s_max]), on [m < 1] or
    [frame <= 0], duplicate ids, non-unit power factors, or a
    discrete-level processor. An empty item list yields an all-idle
    schedule. *)

val validate :
  proc:Rt_power.Processor.t -> m:int -> frame:float ->
  Rt_task.Task.item list -> schedule -> (unit, string) result
  [@@rt.test_api "the oracle of the migration tests"]
(** Independent re-check, to a tolerance of 1e-6: every task's slices
    sum to its execution time at its speed, no task overlaps itself in
    time (the wrap-around invariant), no processor is double-booked,
    speeds are feasible and at least the task's required speed, and the
    energy matches the busy/idle integral. *)

val energy_lower_bound :
  proc:Rt_power.Processor.t -> m:int -> frame:float ->
  Rt_task.Task.item list -> float option
(** The migratory optimum's energy — a lower bound for any partitioned
    schedule of the same items ([None] if infeasible). *)
