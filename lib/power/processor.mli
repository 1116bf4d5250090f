(** Processor descriptors: power model × speed domain × dormancy.

    The paper family distinguishes (1) {e ideal} processors, with a
    continuous speed spectrum, from {e non-ideal} processors with a finite
    set of levels, and (2) {e dormant-enable} processors, which can be put
    to sleep (paying a mode-switch overhead) so that their leakage power
    stops counting, from {e dormant-disable} processors, which pay [p_ind]
    whenever they are on. A homogeneous multiprocessor platform is [m]
    copies of one descriptor. *)

type speed_domain =
  | Ideal of { s_min : float; [@rt.dim "speed"] s_max : float [@rt.dim "speed"] }
      (** continuous spectrum [\[s_min, s_max\]], [0 <= s_min <= s_max] *)
  | Levels of float array
      (** finite speeds, strictly increasing, all [> 0], adjacent ones
          further apart than {!Rt_prelude.Float_cmp.approx_eq} tolerates *)

type dormancy =
  | Dormant_disable
      (** cannot sleep: pays [p_ind] whenever idle (speed 0, no progress) *)
  | Dormant_enable of { t_sw : float; [@rt.dim "seconds"] e_sw : float [@rt.dim "joules"] }
      (** can sleep at zero power; waking costs [t_sw] time and [e_sw]
          energy per sleep/wake round trip *)

type t = private {
  model : Power_model.t;
  domain : speed_domain;
  dormancy : dormancy;
}

val make :
  model:Power_model.t -> domain:speed_domain -> dormancy:dormancy -> t
(** @raise Invalid_argument on malformed domains (unsorted, non-positive
    or [Float_cmp]-equal adjacent levels, inverted or negative ideal
    bounds, negative overheads). Together with [alpha <= 64] in
    {!Power_model.make}, this keeps the bucket energy of every buildable
    processor convex and non-decreasing up to [s_max], within rounding:
    the contract [Rt_speed.Energy_rate.prepare_energy] states. *)

val s_max : t -> float [@rt.dim "speed"]
(** Fastest available speed. *)

val s_min : t -> float [@rt.dim "speed"]
(** Slowest available {e running} speed ([s_min] of the spectrum or the
    lowest level); being idle at speed 0 is always possible. *)

val is_ideal : t -> bool

val speed_feasible : ?eps:float -> t -> float -> bool
(** Can the processor run continuously at this speed? For level domains the
    speed must coincide (within [eps]) with one of the levels; speed [0.]
    (idle) is always feasible. *)

val nearest_level_above : t -> float -> float option [@rt.dim "speed"]
(** For level domains, the slowest level [>= s] (within tolerance); [None]
    if [s] exceeds the top level. For ideal domains, [s] clamped up to
    [s_min] if below, [None] if [s > s_max]. *)

val levels_around : t -> float -> (float * float) option
(** For level domains: the pair of adjacent levels [(s_lo, s_hi)] with
    [s_lo <= s <= s_hi] used by the two-level split; at or below the bottom
    level returns [(bottom, bottom)]; [None] if [s] is above the top level.
    @raise Invalid_argument on ideal domains. *)

val critical_speed : t -> float [@rt.dim "speed"]
(** {!Power_model.critical_speed} projected into the domain: for level
    domains, the level with minimal per-cycle energy. *)

val idle_power : t -> float [@rt.dim "watts"]
(** Power drawn while idle-but-awake: [p_ind] (dynamic power vanishes at
    speed 0 for the polynomial model). *)

val pp : Format.formatter -> t -> unit

(** {1 Presets used throughout the evaluation} *)

val xscale : dormancy:dormancy -> t
(** Ideal-spectrum processor with the normalized Intel XScale model
    [P(s) = 0.08 + 1.52 s^3], speeds in [\[0, 1\]]. *)

val xscale_levels : dormancy:dormancy -> t
(** Non-ideal XScale: same power model, levels {v 0.15 0.4 0.6 0.8 1.0 v}
    (the five XScale frequency grades normalized to the top one). *)

val cubic : ?p_ind:float -> ?s_max:float -> unit -> t
(** The classic [P(s) = s^3 + p_ind] model (dormant-disable, ideal spectrum
    up to [s_max], default 1.0) used in the companion Figure 4. *)

val uniform_levels : n:int -> ?p_ind:float -> unit -> t
(** [n >= 1] evenly spaced levels [1/n, 2/n, …, 1] with the cubic model —
    the grid-coarseness ablation of experiment E5. *)
