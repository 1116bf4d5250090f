module Fc = Rt_prelude.Float_cmp

type speed_domain =
  | Ideal of { s_min : float; s_max : float }
  | Levels of float array

type dormancy =
  | Dormant_disable
  | Dormant_enable of { t_sw : float; e_sw : float }

type t = {
  model : Power_model.t;
  domain : speed_domain;
  dormancy : dormancy;
}

let validate_domain = function
  | Ideal { s_min; s_max } ->
      if
        not
          (Fc.exact_le 0. s_min && Fc.exact_le s_min s_max
          && Float.is_finite s_max)
      then
        invalid_arg "Processor.make: need 0 <= s_min <= s_max < infinity"
  | Levels levels ->
      if Array.length levels = 0 then
        invalid_arg "Processor.make: empty level set";
      Array.iteri
        (fun i s ->
          if Fc.exact_le s 0. || not (Float.is_finite s) then
            invalid_arg "Processor.make: levels must be positive and finite";
          if i > 0 && Fc.exact_ge levels.(i - 1) s then
            invalid_arg "Processor.make: levels must be strictly increasing";
          (* the level hull prices two vertices within the tolerance as
             one, which would put a step into the convex energy curve *)
          if i > 0 && Fc.approx_eq levels.(i - 1) s then
            invalid_arg
              "Processor.make: adjacent levels must differ by more than the \
               Float_cmp tolerance")
        levels

let validate_dormancy = function
  | Dormant_disable -> ()
  | Dormant_enable { t_sw; e_sw } ->
      if Fc.exact_lt t_sw 0. || Fc.exact_lt e_sw 0. then
        invalid_arg "Processor.make: negative dormancy overhead"

let make ~model ~domain ~dormancy =
  validate_domain domain;
  validate_dormancy dormancy;
  { model; domain; dormancy }

let s_max t =
  match t.domain with
  | Ideal { s_max; _ } -> s_max
  | Levels levels -> levels.(Array.length levels - 1)

let s_min t =
  match t.domain with
  | Ideal { s_min; _ } -> s_min
  | Levels levels -> levels.(0)

let is_ideal t = match t.domain with Ideal _ -> true | Levels _ -> false

let speed_feasible ?(eps = Rt_prelude.Float_cmp.default_eps) t s =
  if Rt_prelude.Float_cmp.approx_eq ~eps s 0. then true
  else
    match t.domain with
    | Ideal { s_min; s_max } ->
        Rt_prelude.Float_cmp.geq ~eps s s_min
        && Rt_prelude.Float_cmp.leq ~eps s s_max
    | Levels levels ->
        Array.exists (fun l -> Rt_prelude.Float_cmp.approx_eq ~eps l s) levels

let nearest_level_above t s =
  match t.domain with
  | Ideal { s_min; s_max } ->
      if Rt_prelude.Float_cmp.leq s s_max then
        Some (Float.max s_min (Float.min s s_max))
      else None
  | Levels levels ->
      let eps = Rt_prelude.Float_cmp.default_eps in
      let found = ref None in
      Array.iter
        (fun l ->
          if Option.is_none !found && Rt_prelude.Float_cmp.geq ~eps l s then
            found := Some l)
        levels;
      !found

let critical_speed t =
  let unconstrained = Power_model.critical_speed t.model ~s_max:(s_max t) in
  match t.domain with
  | Ideal { s_min; s_max } ->
      Rt_prelude.Float_cmp.clamp ~lo:s_min ~hi:s_max unconstrained
  | Levels levels ->
      (* pick the level with minimal per-cycle energy; by unimodality it is
         one of the two levels around the unconstrained optimum, but scanning
         all levels is just as simple and obviously correct *)
      let per_cycle i = Power_model.energy_per_cycle t.model levels.(i) in
      let best = ref 0 in
      for i = 1 to Array.length levels - 1 do
        if Fc.exact_lt (per_cycle i) (per_cycle !best) then best := i
      done;
      levels.(!best)

let idle_power t = t.model.Power_model.p_ind

let rest_power t =
  match t.dormancy with Dormant_enable _ -> 0. | Dormant_disable -> idle_power t

let floor_speed t =
  match t.dormancy with
  | Dormant_enable _ -> critical_speed t
  | Dormant_disable -> s_min t

let pp ppf t =
  let domain_str =
    match t.domain with
    | Ideal { s_min; s_max } -> Printf.sprintf "ideal [%g, %g]" s_min s_max
    | Levels levels ->
        Array.to_list levels
        |> List.map (Printf.sprintf "%g")
        |> String.concat ", "
        |> Printf.sprintf "levels {%s}"
  in
  let dorm_str =
    match t.dormancy with
    | Dormant_disable -> "dormant-disable"
    | Dormant_enable { t_sw; e_sw } ->
        Printf.sprintf "dormant-enable (t_sw=%g, E_sw=%g)" t_sw e_sw
  in
  Format.fprintf ppf "{%a; %s; %s}" Power_model.pp t.model domain_str dorm_str

let xscale_model = Power_model.make ~p_ind:0.08 ~coeff:1.52 ~alpha:3. ()

let xscale ~dormancy =
  make ~model:xscale_model ~domain:(Ideal { s_min = 0.; s_max = 1. }) ~dormancy

let xscale_levels ~dormancy =
  make ~model:xscale_model
    ~domain:(Levels [| 0.15; 0.4; 0.6; 0.8; 1.0 |])
    ~dormancy

let cubic ?(p_ind = 0.) ?(s_max = 1.) () =
  make
    ~model:(Power_model.make ~p_ind ~coeff:1. ~alpha:3. ())
    ~domain:(Ideal { s_min = 0.; s_max })
    ~dormancy:Dormant_disable

let uniform_levels ~n ?(p_ind = 0.) () =
  if n < 1 then invalid_arg "Processor.uniform_levels: n < 1";
  let levels =
    Array.init n (fun i -> float_of_int (i + 1) /. float_of_int n)
  in
  make
    ~model:(Power_model.make ~p_ind ~coeff:1. ~alpha:3. ())
    ~domain:(Levels levels) ~dormancy:Dormant_disable
