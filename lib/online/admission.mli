(** Online admission control with DVS speed scaling on one processor.

    The executor runs admitted jobs under preemptive EDF; between events
    it holds the {e density speed} — the largest, over pending deadlines
    [d], of (remaining work due by [d]) / (d − now) — which is the
    minimum constant speed that keeps every commitment, clamped from
    below by the critical speed (sleep when idle) and capped at [s_max].
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
(** Jobs may be given in any order (sorted internally). Errors on
    duplicate ids, a non-ideal processor (discrete-level online scaling
    is out of scope), or — defensively — if an admitted job misses its
    deadline, which the admission test is supposed to make impossible. *)

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
    {!job_bound}, where the per-cycle energy is evaluated at the better
    of the critical speed and the job's own laxity speed — interference
    between jobs can only make reality costlier. *)

(** The stepwise executor behind {!simulate_mp}, exposed for the
    streaming service. A [t] is [m] per-processor EDF executors plus the
    admission bookkeeping ({!outcome} accumulators); the batch simulator
    is [create] / sorted [advance_to]+[decide] per arrival / [finish],
    and [Rt_serve.Serve] interleaves the same calls with its robustness
    layer (ingress shedding, watchdog tiers, fault re-planning).

    Time only moves forward: [advance_to] rejects a target before [now].
    The fault hooks ([set_speed_cap], [kill], [inflate], [remove_active],
    [place], [drop_admitted]) deliberately let the caller put the
    executor into an over-committed state — it is the caller's job to
    re-plan (shed or re-home) until every live processor's {!density_of}
    is back under {!speed_cap}, or the next [advance_to] will report the
    resulting {!miss} instead of hiding it. *)
module Exec : sig
  type t

  val create : proc:Rt_power.Processor.t -> m:int -> (t, error) result
  (** Errors as {!simulate_mp} ([m < 1], non-ideal processor). *)

  val now : t -> float
  (** Current simulation time (starts at 0). *)

  val m : t -> int
  (** Processor count, dead or alive. *)

  val live : t -> int list
  (** Indices of processors that have not been {!kill}ed, ascending. *)

  val backlog : t -> float
  (** Remaining admitted cycles, across all processors. *)

  val speed_cap : t -> float
  (** Effective top speed: [s_max] until {!set_speed_cap} lowers it. *)

  val set_speed_cap : t -> float -> (unit, error) result
  (** Derating fault hook: every executor and every admission test is
      clamped to this cap from now on. The caller re-plans committed
      work afterwards. Errors on a non-positive or non-finite cap. *)

  val advance_to : t -> until:float -> (unit, error) result
  (** Run every live processor's EDF executor forward to [until],
      accumulating energy and makespan. Errors with {!Deadline_miss} if
      an admitted job completes late (possible only after a fault hook
      was used without re-planning). *)

  val decide : t -> policy:policy -> Job.t -> (decision, error) result
    [@@rt.hot "per-arrival step of the streaming admission service"]
  (** The full per-arrival step at time [now]: exact density feasibility
      over live processors, cheapest-marginal placement, then [policy].
      Records the outcome (admission, rejection penalty, forced count).
      Deciding later than the job's arrival leaves it less slack — queue
      latency degrades schedulability, as it should. Errors on a
      duplicate id. *)

  val decide_cheap : t -> theta:float -> Job.t -> (decision, error) result
    [@@rt.hot "per-arrival step of the degraded service tier"]
  (** The degraded-tier step: density feasibility on the {e first}
      feasible live processor and a penalty-per-cycle threshold [theta] —
      no marginal-energy estimate. Same bookkeeping as {!decide}. *)

  val reject : t -> Job.t -> (unit, error) result
  (** Record a rejection decided {e outside} the executor (ingress shed,
      admit-none tier): the job pays its penalty and is never tested.
      Errors on a duplicate id. *)

  val residuals : t -> proc:int -> (Job.t * float) list
  (** Snapshot of one processor's pending jobs with their remaining
      cycles ([] out of range). *)

  val density_of : t -> proc:int -> extra:(float * float) list -> float
  (** Density speed of processor [proc]'s pending set plus [extra]
      hypothetical [(remaining, deadline)] work, at time [now] — the
      feasibility probe for re-homing and re-planning. *)

  val remove_active : t -> id:int -> (Job.t * float) option
  (** Detach a pending job (whichever processor holds it), returning it
      with its remaining cycles. The job stays admitted: follow with
      {!place} (re-home) or {!drop_admitted} (shed). *)

  val place : t -> proc:int -> Job.t * float -> (unit, error) result
  (** Attach a detached job to a live processor. The caller checks
      feasibility via {!density_of}; placing infeasible work will
      surface as a {!Deadline_miss} on a later [advance_to]. *)

  val drop_admitted : t -> Job.t -> unit
  (** Shed a previously admitted, now detached job: it leaves the
      admitted set and pays its rejection penalty — the "never a silent
      miss" escape hatch fault re-planning uses. *)

  val kill : t -> proc:int -> (Job.t * float) list
  (** Crash fault hook: mark the processor dead (it executes and burns
      nothing from now on) and detach its pending jobs, returned for the
      caller to re-home or shed. [] when out of range. *)

  val inflate : t -> id:int -> factor:float -> bool
  (** Overrun fault hook: multiply a pending job's remaining cycles.
      [false] if no pending job has this id. *)

  val finish : t -> (outcome, error) result
  (** Drain all remaining work past the last deadline and return the
      accumulated outcome. Errors if work is left after every deadline
      (over-commitment that never got re-planned — e.g. a crashed
      processor's orphans, or a dead-platform residue). *)
end
