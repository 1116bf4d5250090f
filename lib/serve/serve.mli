(** The overload-resilient streaming admission service.

    {!run} pulls jobs from a {!Source.t} one at a time and drives the
    stepwise executor ({!Rt_online.Admission.Exec}) through the same
    per-arrival decision code as the batch simulator, wrapped in a
    robustness layer with four independent mechanisms:

    - {e Ingress backpressure}: with a finite [queue_capacity] and a
      finite [decision_rate] (decisions per stream-time unit), arrivals
      queue while the decision server is busy; overflow sheds the
      {e undecided} job with the cheapest penalty per cycle (ties by
      id, then the older) — admitted work is never dropped by
      backpressure, and every shed pays its rejection penalty honestly.
      The queue is an {!Ingress.t}, a ring buffer holding each job's
      penalty rate from its push: an overflow costs one scan and one
      shift of the queue, and allocates nothing.
    - {e Watchdog tiers}: a per-decision wall-clock budget. A blown
      budget degrades the admission tier ({!Incident.tier}) one step —
      exact test, then threshold test, then admit-none — and
      [recover_after] consecutive in-budget decisions step back up.
      Every tier keeps admitted work deadline-safe; degradation trades
      decision quality for bounded decision latency.
    - {e Overload detection}: a sliding-window offered-load estimate
      (window cycles / (window × live capacity)) with hysteresis
      ({!Incident.Overload_on} above [enter_above], [Off] below
      [exit_below]); the report totals the time spent overloaded.
    - {e Fault tolerance}: [faults] strike the running service at their
      wrapper times through the executor's fault operations: a derate
      caps the speed ({!Rt_online.Admission.Exec.derate}), a crash kills
      a processor and re-homes its orphans to the least-dense feasible
      survivor or sheds them ({!Rt_online.Admission.Exec.crash}), an
      overrun inflates remaining cycles. After a derate or an overrun,
      {!Rt_online.Admission.Exec.replan} makes every over-committed
      processor shed its cheapest penalty-per-remaining-cycle jobs until
      EDF-feasible again — committed work is re-planned, never silently
      missed.

    With [queue_capacity = None], [decision_rate = None], no watchdog
    and no faults, the engine reduces to exactly the batch simulator's
    call sequence: {!run} then returns the byte-identical
    {!Rt_online.Admission.outcome} that
    {!Rt_online.Admission.simulate_mp} produces on the materialized
    stream — the oracle the property tests replay. *)

type watchdog = {
  latency_budget : float;
      (** wall-clock seconds one admission decision may take *)
  recover_after : int;
      (** consecutive in-budget decisions before stepping one tier up *)
}

type overload = {
  window : float;  (** sliding-window length, in stream time *)
  enter_above : float;  (** declare overload when offered load exceeds this *)
  exit_below : float;
      (** clear overload when offered load falls below this; must be at
          most [enter_above] (the hysteresis band) *)
}

type config = {
  policy : Rt_online.Admission.policy;
  m : int;  (** identical ideal processors, as {!Rt_online.Admission.simulate_mp} *)
  queue_capacity : int option;
      (** max undecided jobs held; [None] = unbounded. Only binds when a
          [decision_rate] makes the queue build up. *)
  decision_rate : float option;
      (** admission decisions per stream-time unit ([None] = decisions
          are instantaneous at arrival — the byte-identity fast path).
          A queued job is decided at the {e decision} time, with
          whatever slack it has left — queue latency honestly degrades
          schedulability. *)
  watchdog : watchdog option;
  degraded_theta : float;
      (** penalty-per-cycle threshold the {!Incident.Threshold} tier
          admits at *)
  overload : overload option;
  faults : Rt_fault.Fault.timed list;  (** applied in strike-time order *)
  yds_bound : bool;
      (** also compute the YDS offline-optimal energy of the admitted
          set. Needs [m = 1] and an ideal [proc]; {!run} rejects anything
          else as [Invalid]. {!Rt_online.Yds.blocks} decomposes n
          admitted jobs in O(n³) for typical streams (under 1 s at
          n = 1000), with the earliest window winning intensity ties
          within 1e-15. *)
}

val default_config : config
(** [Admit_all], [m = 1], unbounded queue, instantaneous decisions, no
    watchdog, no overload detector, no faults, no YDS bound,
    [degraded_theta = 0.] — the transparent service. *)

type report = {
  outcome : Rt_online.Admission.outcome;
      (** exactly the batch simulator's accounting: energy, penalty,
          admitted/rejected ids, forced rejections, makespan *)
  seen : int;  (** jobs pulled from the source *)
  shed : int;  (** undecided jobs dropped by ingress backpressure *)
  replan_shed : int;  (** admitted jobs dropped by fault re-planning *)
  declined : int;
      (** jobs the policy (or a degraded tier) turned away — rejected
          minus forced minus shed minus replan-shed *)
  tier_decisions : int array;
      (** decisions taken per tier, indexed by {!Incident.tier_index} *)
  tier_wall : float array;
      (** wall-clock seconds spent deciding, per tier *)
  max_latency : float;  (** worst single decision, wall-clock seconds *)
  p99_latency : float;  (** 99th-percentile decision latency *)
  overload_time : float;  (** stream time spent in declared overload *)
  incidents : Incident.t list;  (** chronological *)
  lower_bound : float;
      (** {!Rt_online.Admission.job_bound} summed over every job seen *)
  yds_energy : float option;
      (** offline-optimal energy of the admitted set when [yds_bound]
          is set; [None] otherwise, or if the admitted set needs more
          than [s_max] offline *)
}

val run :
  proc:Rt_power.Processor.t -> config:config -> Source.t ->
  (report, Rt_online.Admission.error) result
(** Serve the stream to exhaustion, then apply any remaining faults and
    drain the executors. Errors on invalid configuration (including
    [yds_bound] with [m <> 1] or a non-ideal [proc]), a broken
    source, a duplicate job id (when the second job is decided or
    shed), or — defensively — an admitted deadline miss, which the
    re-planning layer exists to make unreachable. *)

val run_sharded :
  ?pool:Rt_parallel.Pool.t -> shards:int -> proc:Rt_power.Processor.t ->
  config:config -> Rt_online.Job.t list ->
  (report, Rt_online.Admission.error) result
(** Partition a materialized job list by [id mod shards] and {!run} each
    shard independently (through [pool] when given — each shard's
    engine state is freshly created inside its task, so the shards
    share nothing). Models [shards] independent service replicas fed by
    a deterministic hash router: results are byte-stable for any pool
    size, and with [shards = 1] this is {!run}. Merged report: sums and
    id-list merges throughout, except [max_latency]/[p99_latency]
    (max over shards — an upper bound on the true merged p99) and
    [overload_time] (max over shards, since replicas overload
    concurrently). Errors as {!run}, lowest shard first; [shards < 1]
    is invalid. *)

val pp_report : Format.formatter -> report -> unit
(** Multi-line human summary: counts, energy vs bounds, per-tier and
    latency statistics, then the incident log. *)
