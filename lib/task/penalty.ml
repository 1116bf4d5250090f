module Fc = Rt_prelude.Float_cmp

type t =
  | Uniform of { lo : float; hi : float }
  | Proportional of { factor : float; jitter : float }
  | Inverse of { factor : float; jitter : float }
  | Bimodal of { low : float; high : float; p_high : float }

let validate = function
  | Uniform { lo; hi } ->
      if Fc.exact_lt lo 0. || Fc.exact_lt hi lo then
        Error "Uniform: need 0 <= lo <= hi"
      else Ok ()
  | Proportional { factor; jitter } | Inverse { factor; jitter } ->
      if Fc.exact_lt factor 0. then Error "factor must be >= 0"
      else if Fc.exact_lt jitter 0. || Fc.exact_ge jitter 1. then
        Error "jitter must be in [0, 1)"
      else Ok ()
  | Bimodal { low; high; p_high } ->
      if Fc.exact_lt low 0. || Fc.exact_lt high low then
        Error "Bimodal: need 0 <= low <= high"
      else if Fc.exact_lt p_high 0. || Fc.exact_gt p_high 1. then
        Error "Bimodal: p_high must be in [0, 1]"
      else Ok ()

let reference_energy ~proc ~horizon weight =
  let s_max = Rt_power.Processor.s_max proc in
  let power = Rt_power.Power_model.power proc.Rt_power.Processor.model s_max in
  weight *. horizon /. s_max *. power

let jittered rng jitter x =
  if Fc.exact_eq jitter 0. then x
  else x *. Rt_prelude.Rng.float rng ~lo:(1. -. jitter) ~hi:(1. +. jitter)

let assign t rng ~proc ~horizon items =
  (match validate t with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Penalty.assign: " ^ msg));
  if Fc.exact_le horizon 0. then invalid_arg "Penalty.assign: horizon <= 0";
  let mean_weight =
    match items with
    | [] -> 0.
    | _ -> Taskset.total_weight items /. float_of_int (List.length items)
  in
  let mean_ref = reference_energy ~proc ~horizon mean_weight in
  let draw (it : Task.item) =
    let ref_e = reference_energy ~proc ~horizon it.weight in
    match t with
    | Uniform { lo; hi } -> Rt_prelude.Rng.float rng ~lo ~hi *. mean_ref
    | Proportional { factor; jitter } -> jittered rng jitter (factor *. ref_e)
    | Inverse { factor; jitter } ->
        (* guard: weights are > 0 by the Task invariant *)
        jittered rng jitter (factor *. mean_weight /. it.weight *. mean_ref)
    | Bimodal { low; high; p_high } ->
        let level =
          if
            Rt_prelude.Float_cmp.exact_lt
              (Rt_prelude.Rng.float rng ~lo:0. ~hi:1.)
              p_high
          then high
          else low
        in
        level *. ref_e
  in
  List.map
    (fun (it : Task.item) ->
      Task.item ~penalty:(draw it) ~power_factor:it.item_power_factor
        ~id:it.item_id ~weight:it.weight ())
    items

let default_models =
  [
    ("uniform", Uniform { lo = 0.2; hi = 2.0 });
    ("proportional", Proportional { factor = 1.0; jitter = 0.25 });
    ("inverse", Inverse { factor = 1.0; jitter = 0.25 });
    ("bimodal", Bimodal { low = 0.1; high = 4.0; p_high = 0.3 });
  ]
