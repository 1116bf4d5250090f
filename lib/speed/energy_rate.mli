(** Optimal sustained-speed energy: the central primitive.

    A processor that must deliver a {e required speed} [u] (cycles per time
    unit, sustained over a horizon — the per-processor weight sum of the
    item view) can realize it many ways: run continuously at [u], run
    faster and idle, run faster and sleep, or mix two discrete levels. This
    module computes the {e minimum average power} (energy per unit time)
    and the realizing time-fraction plan, for every processor kind:

    - {e ideal × dormant-disable}: run at [s = max(u, s_min)] for a [u/s]
      fraction of the time; idle pays the leakage [p_ind].
      Rate = [p_ind + (u/s)·P_d(s)].
    - {e ideal × dormant-enable}: run at [s = clamp(s_crit, max(u,s_min),
      s_max)] and sleep the rest at zero power; this is the critical-speed
      clamp of the leakage-aware algorithms. Rate = [u · P(s)/s].
    - {e levels × either}: the optimum mixes at most two adjacent vertices
      of the lower convex hull of [{(0, P_idle)} ∪ {(l, P(l))}] — the
      Ishihara–Yasuura two-level split generalized to account for idling or
      sleeping.

    Mode-switch overheads ([t_sw], [E_sw]) are not charged here (the
    frame/periodic models of the papers treat speed switching as free and
    charge sleep transitions separately); {!Procrastinate} accounts for
    them. *)

type segment = {
  speed : float;  [@rt.dim "speed"] (** a feasible running speed, or 0. for idle/sleep *)
  fraction : float;  [@rt.dim "1"] (** fraction of the horizon spent at [speed] *)
}

type plan = {
  segments : segment list;
      (** fractions sum to 1 (within tolerance); speeds are feasible for
          the processor; ordered fastest first *)
  rate : float;  [@rt.dim "watts"] (** average power of the plan = energy per unit horizon *)
}

val optimal : ?power_factor:float -> Rt_power.Processor.t -> u:float -> plan option
  [@@rt.hot "evaluated per candidate placement by every scheduler"]
(** [optimal proc ~u] is the minimum-average-power plan delivering required
    speed [u >= 0], or [None] when [u] exceeds [s_max] (no feasible plan).
    [power_factor] scales the speed-dependent power (heterogeneous tasks).
    @raise Invalid_argument on negative or non-finite [u]. *)

val prepare :
  ?power_factor:float -> Rt_power.Processor.t -> (float -> plan option)
  [@@rt.hot "amortizes hull/critical-speed setup across many evaluations"]
(** [prepare proc] hoists the per-processor setup of {!optimal} — the
    factored power model, the lower convex hull of the level points, the
    numeric critical speed — and returns an evaluator [fun u -> ...] whose
    results are bit-identical to [optimal proc ~u]. Build it once per
    instance and call it per candidate load (the SoA hot path). *)

val prepare_energy :
  ?power_factor:float -> Rt_power.Processor.t -> horizon:float ->
  (float -> float [@rt.dim "joules"])
  [@@rt.hot "scalar evaluator for the marginal-energy inner loops"]
(** Like {!prepare} but the evaluator returns only the plan's energy over
    [horizon] — [prepare_energy proc ~horizon u] equals
    [(Option.get (prepare proc u)).rate *. horizon] bit for bit, computed
    by one flat closure without materializing segments, plan or option.
    This is the evaluator behind [Rt_core.Problem.bucket_energy]: the
    greedy and local-search inner loops only ever need the scalar, and
    they pre-check capacity, so a required speed above [s_max] (where
    {!prepare} returns [None]) raises [Invalid_argument] here.
    @raise Invalid_argument on negative horizon or invalid [u]. *)

val rate :
  ?power_factor:float -> Rt_power.Processor.t -> u:float ->
  float option [@rt.dim "watts"]
  [@@rt.hot "evaluated per candidate placement by every scheduler"]
(** Average power of the optimal plan. *)

val energy :
  ?power_factor:float -> Rt_power.Processor.t -> u:float -> horizon:float ->
  float option [@rt.dim "joules"]
  [@@rt.hot "evaluated per candidate placement by every scheduler"]
(** [rate × horizon]. @raise Invalid_argument on negative horizon. *)

val plan_rate :
  ?power_factor:float -> Rt_power.Processor.t -> plan -> float [@rt.dim "watts"]
(** Recompute a plan's average power from its segments (idle/sleep segments
    charged per the processor's dormancy); used to cross-check [rate]. *)

val plan_throughput : plan -> float [@rt.dim "speed"]
(** [Σ speed·fraction] — the required speed the plan actually delivers. *)

val validate :
  ?eps:float -> Rt_power.Processor.t -> u:float -> plan -> (unit, string) result
(** Checks: feasible speeds, non-negative fractions summing to 1, delivered
    throughput [>= u], and [rate] consistent with the segments. *)
