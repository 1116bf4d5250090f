(** DVS power-consumption models.

    The model follows the paper family's convention: the power drawn at
    speed [s] is split into a speed-independent part [P_ind] (leakage and
    other always-on consumers) and a speed-dependent convex part [P_d(s)]
    (gate switching plus short-circuit):

    {v P(s) = p_ind + coeff * s^alpha + linear * s v}

    with [alpha] in [\[2, 3\]] for CMOS, [coeff > 0], [linear >= 0]. The
    evaluation sections of the DATE'05–'07 papers normalize the Intel XScale
    to [P(s) = 0.08 + 1.52 s^3] W with the top speed scaled to 1; the same
    normalization is available as {!Processor.xscale}.

    Speeds are in (normalized) cycles per time unit; energy of running for
    [t] time units at speed [s] is [t * P(s)]. *)

type t = private {
  p_ind : float;  [@rt.dim "watts"] (** speed-independent power (leakage); >= 0 *)
  coeff : float;  (** coefficient of the [s^alpha] term; > 0 *)
  alpha : float;  [@rt.dim "1"] (** exponent of the dynamic term; in (1, 64] *)
  linear : float;  [@rt.dim "joules/cycles"] (** short-circuit term, proportional to speed; >= 0 *)
}

val make : ?p_ind:float -> ?linear:float -> coeff:float -> alpha:float -> unit -> t
(** Build a model; [p_ind] and [linear] default to [0.].
    @raise Invalid_argument when a parameter is out of the documented range
    (including non-finite values). The paper's models have [alpha] in
    [\[2, 3\]]; the cap at 64 keeps every buildable model inside the
    rounding bound of local search's gap test ([Rt_core.Local_search]
    skips a move that widens the gap between two loads, exact while the
    energy slope is at most [alpha] times the energy at [s_max] over
    [s_max]). *)

val power : t -> float -> float [@rt.dim "watts"]
(** [power m s] is [P(s)] for [s >= 0]. @raise Invalid_argument on
    negative speed. *)

val dynamic_power : t -> float -> float [@rt.dim "watts"]
(** The speed-dependent part [P_d(s) = P(s) - p_ind]. *)

val energy_per_cycle : t -> float -> float [@rt.dim "joules/cycles"]
(** [P(s)/s] for [s > 0] — the per-cycle energy whose minimizer is the
    critical speed. *)

val critical_speed : t -> s_max:float -> float [@rt.dim "speed"]
(** The speed in [(0, s_max\]] minimizing [P(s)/s]. Closed form
    [(p_ind / ((alpha-1) coeff))^(1/alpha)] when [linear = 0]; numeric
    (golden-section, [P(s)/s] is unimodal for this model family) otherwise.
    Returns [s_max] when the unconstrained minimizer exceeds it. With
    [p_ind = 0] and [linear = 0] the per-cycle energy is increasing, so the
    critical speed degenerates to 0; we return 0 in that case and callers
    treat it as "no lower clamp". *)

val pp : Format.formatter -> t -> unit
