(** Graceful degradation: react to faults by re-invoking the rejection
    heuristics on the residual instance.

    The paper's rejection machinery turns out to be exactly the right
    tool for fault recovery: a crash or a WCEC overrun is "the platform
    shrank / the load grew", which is the same accept-or-reject problem
    on a {e residual} instance — all original items with their weights
    inflated by the overruns, packed onto the surviving processors of
    the derated platform. A policy picks which heuristic re-plans:

    - {!No_op} — keep the original plan and ride out the faults (the
      baseline the others are judged against);
    - {!Shed_density} — re-run {!Rt_core.Greedy.density_reject}: drop
      the lowest penalty-per-weight tasks until the residual fits;
    - {!Shed_marginal} — re-run {!Rt_core.Greedy.marginal_greedy}:
      energy-aware voluntary shedding;
    - {!Repartition_ltf} — re-run {!Rt_core.Greedy.ltf_reject}:
      keep everything that fits, largest first (pure repartitioning
      when capacity allows).

    Every recovery is verified {e concretely}: the degraded plan is
    replayed through the simulators under the scenario's overruns, with
    task requirements computed from the {e original} weights, so a
    policy cannot pass by construction. *)

type policy = No_op | Shed_density | Shed_marginal | Repartition_ltf

val policy_name : policy -> string
(** ["no-op"], ["shed-density"], ["shed-marginal"], ["repartition-ltf"]
    — the names used in experiment tables and the CLI. *)

val all_policies : policy list
(** All four, [No_op] first. *)

type report = {
  misses : int list;  (** task ids that miss under the policy (sorted) *)
  shed : int list;
      (** ids rejected by the recovery but not by the baseline *)
  extra_penalty : float;
      (** penalty of the recovery minus penalty of the baseline *)
  energy_fault_free : float;  (** energy of the baseline, no faults *)
  energy_faulty : float;  (** measured energy of the degraded execution *)
  energy_delta : float;  (** [energy_faulty - energy_fault_free] *)
  residual : Rt_core.Solution.t option;
      (** the re-planned solution on the residual instance ([None] for
          {!No_op}); its partition width is the number of {e surviving}
          processors *)
}

val residual_problem :
  Rt_core.Problem.t -> Fault.scenario -> (Rt_core.Problem.t, string) result
(** The instance a shedding policy re-plans: all original items with
    overrun-inflated weights, [m] = surviving processors,
    {!Fault.derated_proc} as the platform. Errors when no processor
    survives or derating empties the speed domain. *)

val recover_frame :
  Rt_core.Problem.t -> Fault.scenario -> baseline:Rt_core.Solution.t ->
  policy -> (report, string) result
(** Frame-based recovery. The baseline solution (any feasible plan for
    the problem) is costed fault-free; the policy's plan is built, laid
    out on the derated platform via {!Rt_sim.Frame_sim.build}, and
    replayed under the scenario with {!Rt_sim.Frame_sim.run_injected}.
    Errors propagate from scenario validation, an infeasible baseline,
    or an empty residual platform. *)

val recover_periodic :
  proc:Rt_power.Processor.t -> m:int -> tasks:Rt_task.Task.periodic list ->
  Fault.scenario -> policy -> (report, string) result
(** Periodic recovery over one hyper-period. The baseline is
    {!Rt_core.Greedy.ltf_reject} on the utilization instance; each
    processor runs its bucket under EDF at the slowest feasible speed at
    or above its load ({!Rt_power.Processor.nearest_level_above}).
    {!No_op} replays that plan under the scenario's per-processor
    injections; shedding policies re-plan on the residual instance and
    replay the survivors with the overruns still applied. Errors
    propagate from scenario validation, hyper-period overflow, or an
    empty residual platform. *)

val pp_report : Format.formatter -> report -> unit
