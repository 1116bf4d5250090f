module Fc = Rt_prelude.Float_cmp

type t = { p_ind : float; coeff : float; alpha : float; linear : float }

let check name cond = if not cond then invalid_arg ("Power_model.make: " ^ name)

let make ?(p_ind = 0.) ?(linear = 0.) ~coeff ~alpha () =
  check "p_ind must be finite and >= 0"
    (Fc.is_finite p_ind && Fc.exact_ge p_ind 0.);
  check "coeff must be finite and > 0" (Fc.is_finite coeff && Fc.exact_gt coeff 0.);
  (* the upper limit keeps the slope bound alpha * P(s_max) / s_max that
     local search's gap test relies on within a rounding budget: see
     [Rt_core.Local_search] *)
  check "alpha must be finite, > 1 and <= 64"
    (Fc.is_finite alpha && Fc.exact_gt alpha 1. && Fc.exact_le alpha 64.);
  check "linear must be finite and >= 0"
    (Fc.is_finite linear && Fc.exact_ge linear 0.);
  { p_ind; coeff; alpha; linear }

let power m s =
  if Fc.exact_lt s 0. then invalid_arg "Power_model.power: negative speed";
  m.p_ind +. (m.coeff *. (s ** m.alpha)) +. (m.linear *. s)

let dynamic_power m s = power m s -. m.p_ind

let energy m ~speed ~time =
  if Fc.exact_lt time 0. then invalid_arg "Power_model.energy: negative time";
  time *. power m speed

let energy_cycles m ~speed ~cycles =
  if Fc.exact_le speed 0. then
    invalid_arg "Power_model.energy_cycles: speed <= 0";
  if Fc.exact_lt cycles 0. then
    invalid_arg "Power_model.energy_cycles: negative cycles";
  cycles /. speed *. power m speed

let energy_per_cycle m s =
  if Fc.exact_le s 0. then invalid_arg "Power_model.energy_per_cycle: speed <= 0";
  power m s /. s

let critical_speed m ~s_max =
  if Fc.exact_le s_max 0. then
    invalid_arg "Power_model.critical_speed: s_max <= 0";
  if Fc.exact_eq m.p_ind 0. then
    (* P(s)/s = coeff*s^(alpha-1) + linear is non-decreasing: no clamp. *)
    0.
  else if Fc.exact_eq m.linear 0. then
    (* d/ds [p_ind/s + coeff*s^(alpha-1)] = 0
       <=> s^alpha = p_ind / ((alpha-1) coeff) *)
    Float.min s_max ((m.p_ind /. ((m.alpha -. 1.) *. m.coeff)) ** (1. /. m.alpha))
  else begin
    let f s = energy_per_cycle m s in
    (* P(s)/s -> infinity at 0+ (p_ind > 0) and is eventually increasing, so
       it is unimodal on (0, inf); bracket generously. *)
    let lo = 1e-6 *. s_max in
    let x, _ = Rt_prelude.Math_util.golden_section_min ~f ~lo ~hi:s_max () in
    x
  end

let pp ppf m =
  Format.fprintf ppf "P(s) = %g + %g*s^%g" m.p_ind m.coeff m.alpha;
  if Fc.exact_gt m.linear 0. then Format.fprintf ppf " + %g*s" m.linear

let equal a b =
  Fc.exact_eq a.p_ind b.p_ind
  && Fc.exact_eq a.coeff b.coeff
  && Fc.exact_eq a.alpha b.alpha
  && Fc.exact_eq a.linear b.linear
