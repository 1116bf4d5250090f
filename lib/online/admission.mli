(** Online admission control with DVS speed scaling on one processor.

    The executor runs admitted jobs under preemptive EDF; between events
    it holds the {e density speed} — the largest, over pending deadlines
    [d], of (remaining work due by [d]) / (d − now) — which is the
    minimum constant speed that keeps every commitment, clamped from
    below by the floor speed and capped at [s_max]. The floor speed and
    the draw while no job is pending are the processor's
    ({!Rt_power.Processor.floor_speed} and
    {!Rt_power.Processor.rest_power}): the critical speed and sleep at
    zero power when it can sleep, [s_min] and [p_ind] when it cannot.
    This is the online analogue of the uniform-speed optimality the
    static problem enjoys.

    At each arrival the controller runs an exact admission test (is the
    density with the new job at most [s_max]?) and, if the job {e can} be
    admitted, a policy decides whether it {e should} be:

    - {!Admit_all}: accept whenever feasible (the clamping baseline);
    - {!Profitable}: accept iff the estimated marginal energy — running
      the job's cycles at the post-admission density speed — is below
      its penalty (the online marginal-greedy);
    - {!Density_threshold}: accept iff penalty per cycle clears a fixed
      threshold (the cheapest controller: no energy model needed at
      admission time).

    Admitted jobs are guaranteed to meet their deadlines (the test is
    exact for EDF over the {e current} commitments), which the simulator
    re-checks. Note the online/offline gap: because the executor runs at
    the current density, it procrastinates relative to a clairvoyant
    schedule ({!Yds}) that would pre-clear work before a burst — streams
    that are offline-feasible can therefore still suffer forced online
    rejections. The property tests pin this down.

    {!simulate} replays a finite, pre-collected job list; the streaming
    service ([Rt_serve.Serve]) instead drives the stepwise {!Exec} with
    jobs pulled one at a time, through the {e same} decision code — with
    an unbounded ingress queue, no watchdog, and no faults, the two are
    byte-identical by construction. *)

type policy =
  | Admit_all
  | Profitable
  | Density_threshold of float  (** minimum accepted penalty per cycle *)

type outcome = {
  energy : float;
  penalty : float;  (** Σ over rejected jobs *)
  total : float;
  admitted : int list;  (** job ids, ascending *)
  rejected : int list;
  forced_rejections : int;  (** rejections where admission was infeasible *)
  makespan : float;  (** time the last admitted job completed *)
}

type miss = {
  job_id : int;  (** the admitted job that completed late *)
  at : float;  (** its (late) completion time *)
  deadline : float;  (** the deadline it blew *)
  active_ids : int list;
      (** every job pending on that processor at the miss (ascending,
          including [job_id]) *)
  density : float;
      (** the density speed of that pending set at the miss — above the
          speed cap iff the commitment was genuinely infeasible *)
  backlog : float;  (** remaining cycles across that pending set *)
}
(** The state of the executor when an admitted job missed its deadline —
    structured so the service incident log and the fuzz shrinker can use
    it (which job, how loaded the processor was) instead of parsing a
    message. The admission test is supposed to make this unreachable;
    every simulator entry point still checks. *)

type error =
  | Deadline_miss of miss  (** defensive: admission should prevent this *)
  | Invalid of string  (** bad arguments or an impossible internal state *)

val error_to_string : error -> string
(** One-line rendering for CLI output and test failure messages. *)

type decision = Admitted | Declined | Infeasible
(** What became of one arrival: accepted; rejected by the policy;
    rejected because no processor could fit it ([forced_rejections]). *)

val simulate :
  proc:Rt_power.Processor.t -> policy:policy -> Job.t list ->
  (outcome, error) result
(** Jobs may be given in any order (sorted internally). Errors on a
    non-ideal processor (discrete-level online scaling is out of scope),
    on a repeated id — [Invalid "Admission.simulate: duplicate job ids"],
    from {!Exec}'s register when the repeat arrives — or, defensively, if
    an admitted job misses its deadline, which the admission test is
    supposed to make impossible; the first of these the run reaches is
    the one returned. *)

val simulate_mp :
  proc:Rt_power.Processor.t -> m:int -> policy:policy -> Job.t list ->
  (outcome, error) result
(** The partitioned multiprocessor form: [m] identical processors, each
    running its own density-speed EDF executor. An arriving job is tried
    on the feasible processor with the smallest marginal-energy estimate
    (equivalently the least-loaded, by convexity); the policy then decides
    as in {!simulate}. With [m = 1] this coincides with {!simulate}.
    Errors as {!simulate} plus [m < 1]. *)

val job_bound : proc:Rt_power.Processor.t -> Job.t -> float
(** One job's term of {!lower_bound}:
    [min(penalty, cycles × best-feasible-per-cycle-energy)] — additive,
    so a streaming consumer can accumulate the bound job by job. *)

val lower_bound : proc:Rt_power.Processor.t -> Job.t list -> float
(** An unreachable-but-sound reference: each job independently pays
    {!job_bound}, where the per-cycle energy is evaluated at the faster
    of the floor speed ({!Rt_power.Processor.floor_speed}: the critical
    speed, or [s_min] on a processor that cannot sleep) and the job's own
    laxity speed — interference between jobs can only make reality
    costlier. *)

(** The stepwise executor behind {!simulate_mp}, exposed for the
    streaming service. A [t] is [m] per-processor EDF executors plus the
    admission bookkeeping ({!outcome} accumulators); the batch simulator
    is [create] / sorted [advance_to]+[decide] per arrival / [finish],
    and [Rt_serve.Serve] interleaves the same calls with its robustness
    layer (ingress shedding, watchdog tiers, fault re-planning).

    Every arrival's fate is recorded by one path: {!decide} and
    {!decide_cheap} pick a processor (or none, a forced rejection) and
    a policy verdict, and hand both to the same admit/decline/force
    step. The executor is the one owner of the duplicate-id rule:
    {!decide}, {!decide_cheap} and {!reject} share one register of every
    id they have seen, and each refuses a repeat with
    [Invalid "Admission.simulate: duplicate job ids"], whether the first
    copy was admitted, declined, forced or shed. Every admission test,
    here and in the fault operations, is the same density fold over a
    processor's deadline-sorted pending set, with or without one trial
    job merged in.

    Time only moves forward: [advance_to] rejects a target before [now].
    Faults and their re-planning live here too, on the same pending sets
    and density test as {!decide}: {!derate}, {!crash} and {!inflate}
    apply a fault, and {!crash} and {!replan} make the accept-or-reject
    decision again on admitted jobs — keep, move to a live processor, or
    shed and pay the penalty. {!derate} and {!inflate} can leave a
    processor over-committed; the caller runs {!replan} on every live
    processor afterwards, or the next [advance_to] reports the resulting
    {!miss} instead of hiding it. *)
module Exec : sig
  type t

  val create : proc:Rt_power.Processor.t -> m:int -> (t, error) result
  (** Errors as {!simulate_mp} ([m < 1], non-ideal processor). *)

  val now : t -> float
  (** Current simulation time (starts at 0). *)

  val live : t -> int list
  (** Indices of processors that have not {!crash}ed, ascending. *)

  val speed_cap : t -> float
  (** Effective top speed: [s_max] until {!derate} lowers it. *)

  val advance_to : t -> until:float -> (unit, error) result
  (** Run every live processor's EDF executor forward to [until],
      accumulating energy and makespan. A job whose finish time rounds
      to the current time completes there: its work left is below the
      time resolution, as happens once stream times pass 2^24 and one
      ulp of a time exceeds the executor's 1e-9 completion tolerance.
      Errors with {!Deadline_miss} if an admitted job completes late
      (possible only after {!derate} or {!inflate} without a
      {!replan}). *)

  val decide : t -> policy:policy -> Job.t -> (decision, error) result
    [@@rt.hot "per-arrival step of the streaming admission service"]
  (** The full per-arrival step at time [now]: exact density feasibility
      over live processors, cheapest-marginal placement, then [policy].
      Records the outcome (admission, rejection penalty, forced count).
      Deciding later than the job's arrival leaves it less slack — queue
      latency degrades schedulability, as it should. Errors on an id
      the executor has seen before. *)

  val decide_cheap : t -> theta:float -> Job.t -> (decision, error) result
    [@@rt.hot "per-arrival step of the degraded service tier"]
  (** The degraded-tier step: density feasibility on the {e first}
      feasible live processor and a penalty-per-cycle threshold [theta] —
      no marginal-energy estimate. Same bookkeeping and duplicate-id
      error as {!decide}. *)

  val reject : t -> Job.t -> (unit, error) result
  (** Record a rejection decided {e outside} the executor (ingress shed,
      admit-none tier): the job pays its penalty and is never tested.
      Its id is registered as {!decide} registers one: errors on an id
      seen before, and a later arrival with this id is refused. *)

  val derate : t -> factor:float -> (unit, error) result
  (** Derating fault: the speed cap becomes
      [min (speed_cap t) (factor × s_max)], clamping every executor and
      every admission test from now on. Follow with {!replan} on each
      live processor. Errors unless [0 < factor <= 1]. *)

  val crash : t -> proc:int -> int list * int list
  (** Crash fault: processor [proc] is dead from now on (it executes and
      burns nothing) and its pending jobs are re-homed, in id order, each
      to the live processor (ascending index) whose density with the job
      is least and within {!speed_cap} — the earlier processor wins a
      tolerant tie. A job that fits nowhere is shed: it leaves the
      admitted set and pays its penalty. Returns [(moved, shed)] ids, each
      ascending; [([], [])] when [proc] is dead or out of range. *)

  val inflate : t -> id:int -> factor:float -> bool
  (** Overrun fault: multiply a pending job's remaining cycles. Follow
      with {!replan} on each live processor. [false] if no pending job
      has this id. *)

  val replan : t -> proc:int -> int list
  (** Re-plan processor [proc] after a fault: while its density exceeds
      {!speed_cap} (tolerant comparison, as the admission test), shed the
      pending job with the cheapest penalty per remaining cycle (ties by
      id). Each shed job leaves the admitted set and pays its penalty.
      Returns the shed ids in shed order; [[]] when the processor already
      fits, is dead or is out of range. *)

  val finish : t -> (outcome, error) result
  (** Drain all remaining work past the last deadline and return the
      accumulated outcome. Errors if work is left after every deadline
      (over-commitment that never got re-planned). *)
end
