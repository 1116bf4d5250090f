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
    - {e ideal × dormant-enable}: run at [s = min(max(u, s_floor), s_max)]
      and sleep the rest at zero power, where [s_floor] is
      {!Rt_power.Processor.floor_speed}, the critical speed raised to
      [s_min]; this is the critical-speed clamp of the leakage-aware
      algorithms. Rate = [u · P(s)/s].
    - {e levels × either}: the optimum mixes at most two adjacent vertices
      of the lower convex hull of [{(0, P_rest)} ∪ {(l, P(l))}] — the
      Ishihara–Yasuura two-level split generalized to account for idling or
      sleeping. The idle point [P_rest] is
      {!Rt_power.Processor.rest_power}: [0] when the processor sleeps,
      [p_ind] when it idles awake.

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

val optimal : Rt_power.Processor.t -> u:float -> plan option
  [@@rt.hot "evaluated per candidate placement by every scheduler"]
(** [optimal proc ~u] is the minimum-average-power plan delivering required
    speed [u >= 0], or [None] when [u] exceeds [s_max] (no feasible plan).
    Power is the processor's own model; heterogeneous per-task power
    factors are [Rt_partition.Hetero]'s, which scales the model itself.
    @raise Invalid_argument on negative or non-finite [u]. *)

val prepare_energy :
  Rt_power.Processor.t -> horizon:float -> (float -> float [@rt.dim "joules"])
  [@rt.hot "scalar evaluator for the marginal-energy inner loops"]
(** The per-load energy evaluator of the schedulers' inner loops. It
    hoists {!optimal}'s per-processor setup (the lower convex hull of the
    level points, the numeric critical speed) and returns only the plan's
    energy over [horizon]: [prepare_energy proc ~horizon u] equals
    [(Option.get (optimal proc ~u)).rate *. horizon] bit for bit. It is
    the evaluator behind [Rt_core.Problem.bucket_energy]: the greedy and
    local-search inner loops only ever need the scalar, and they
    pre-check capacity, so a required speed above [s_max] (where
    {!optimal} returns [None]) raises [Invalid_argument] here.

    The evaluator is flat: one closure per processor kind, the argument
    guard written once and inlined, and the ideal-speed clamps written as
    exact selects on the operands. It builds no segments, plan or option,
    and boxes no float for an out-of-line [Float.max]/[Float.min],
    [Float_cmp.gt] or [Float_cmp.clamp]; on the dormant ideal processor
    what is left is the power-model call and the boxed result.

    {b Shape.} For every processor {!Rt_power.Processor.make} accepts,
    the evaluator is non-decreasing and convex on [\[0, s_max\]] up to
    rounding: for [a <= b <= c <= d] with [a + d = b + c] there,
    [E(b) <= E(c)] and [E(a) + E(d) >= E(b) + E(c)], each within
    [32 * 2^-53 * E(s_max)] (test_speed checks this bound; the worst seen
    in 3 million draws was about 5.3). In exact arithmetic each kind is
    convex: a dormant-enable ideal domain is the chord from the origin up
    to [max s_min s_crit], then [P]; a dormant-disable one the chord from
    [(0, p_ind)] up to [s_min], then [P]; a level domain the lower convex
    hull of the idle point and its levels. The levels' spacing rule and
    [alpha <= 64] keep the rounding inside the bound. Past [s_max],
    inside the tolerance the guard admits, the energy is flat: it stays
    at [E(s_max)], which is not convex. Local search's gap test
    ([Rt_core.Local_search]) relies on this shape.
    @raise Invalid_argument on negative horizon, or on a [u] that is not
    finite, is below [-1e-9], or exceeds [s_max] past the
    {!Rt_prelude.Float_cmp} tolerance. *)

val rate :
  Rt_power.Processor.t -> u:float -> float option [@rt.dim "watts"]
  [@@rt.hot "evaluated per candidate placement by every scheduler"]
(** Average power of the optimal plan. *)

val energy :
  Rt_power.Processor.t -> u:float -> horizon:float ->
  float option [@rt.dim "joules"]
  [@@rt.hot "evaluated per candidate placement by every scheduler"]
(** [rate × horizon]. @raise Invalid_argument on negative horizon. *)

val plan_throughput : plan -> float [@rt.dim "speed"]
(** [Σ speed·fraction] — the required speed the plan actually delivers. *)

val validate : Rt_power.Processor.t -> u:float -> plan -> (unit, string) result
  [@@rt.test_api "the oracle of the energy-rate tests"]
(** Checks, at the {!Rt_prelude.Float_cmp} default tolerances: feasible
    speeds, non-negative fractions summing to 1, delivered throughput
    [>= u], and [rate] consistent with the segments (idle/sleep segments
    charged {!Rt_power.Processor.rest_power}). *)
