module Fc = Rt_prelude.Float_cmp

open Rt_power

type segment = { speed : float; fraction : float }
type plan = { segments : segment list; rate : float }

let factored_model ?(power_factor = 1.) (m : Power_model.t) =
  if Fc.exact_eq power_factor 1. then m
  else
    Power_model.make ~p_ind:m.p_ind
      ~linear:(m.linear *. power_factor)
      ~coeff:(m.coeff *. power_factor)
      ~alpha:m.alpha ()

let idle_rate (proc : Processor.t) =
  match proc.dormancy with
  | Processor.Dormant_enable _ -> 0.
  | Processor.Dormant_disable -> Processor.idle_power proc

(* Lower convex hull (monotone chain) of points sorted by strictly
   increasing x; the optimal mixing of "operating points" lies on it.
   [pop] walks the hull as a suffix instead of rebuilding it, so one
   fold step allocates exactly the surviving vertex's cons cell. *)
let lower_hull points =
  let cross (ox, oy) (ax, ay) (bx, by) =
    ((ax -. ox) *. (by -. oy)) -. ((ay -. oy) *. (bx -. ox))
  in
  let rec pop p hull =
    match hull with
    | a :: (b :: _ as older) when Fc.exact_le (cross b a p) 0. -> pop p older
    | _ -> p :: hull
  in
  List.fold_left (fun hull p -> pop p hull) [] points |> List.rev

(* Mix the two hull vertices around [u]; returns segments + rate. *)
let mix_on_hull hull u =
  (* the hull suffix starting at the vertex pair bracketing [u]; sharing
     the suffix keeps the bracket unboxed (no per-call float pair) *)
  let rec find = function
    | [ (x, _) ] as last ->
        if
          Rt_prelude.Float_cmp.approx_eq x u
          || Rt_prelude.Float_cmp.exact_lt u x
        then Some last
        else None
    | (_ :: ((x2, _) :: _ as rest)) as bracket ->
        if Rt_prelude.Float_cmp.exact_gt u x2 then find rest
        else Some bracket
    | [] -> None
  in
  match find hull with
  | None | Some [] -> None
  | Some ((x1, y1) :: rest) ->
      let x2, y2 = match rest with [] -> (x1, y1) | v :: _ -> v in
      if Rt_prelude.Float_cmp.approx_eq x1 x2 then
        Some ([ { speed = x2; fraction = 1. } ], y2)
      else begin
        let a = (u -. x1) /. (x2 -. x1) in
        let a = Rt_prelude.Float_cmp.clamp ~lo:0. ~hi:1. a in
        let segments =
          [
            { speed = x2; fraction = a }; { speed = x1; fraction = 1. -. a };
          ]
          |> List.filter (fun s -> Fc.exact_gt s.fraction 0.)
        in
        (* make sure a pure-vertex mix still covers the whole horizon *)
        let segments =
          match segments with
          | [ s ] -> [ { s with fraction = 1. } ]
          | ss -> ss
        in
        Some (segments, y1 +. (a *. (y2 -. y1)))
      end

(* The per-processor preparation the hot path wants hoisted out of the
   per-[u] evaluation: the factored model, the lower hull of the level
   points (Levels domain), and the numeric critical speed (dormant ideal
   domain) depend only on the processor. [prepare] computes them once and
   returns a closure that performs exactly the per-[u] arithmetic
   [optimal] always did — same operations in the same order — so a
   prepared evaluator is bit-identical to calling [optimal] directly. *)
let prepare ?power_factor (proc : Processor.t) =
  let model = factored_model ?power_factor proc.model in
  let power s = Power_model.power model s in
  let dynamic s = Power_model.dynamic_power model s in
  let top = Processor.s_max proc in
  let eval =
    match proc.domain with
    | Processor.Levels ls ->
        let levels = Array.to_list ls in
        let points =
          (* lint: allow-hot-alloc-in-loop "bounded by the processor's static level count and built once per prepared evaluator, not per evaluation" *)
          (0., idle_rate proc) :: List.map (fun l -> (l, power l)) levels
        in
        let hull = lower_hull points in
        fun u ->
          Option.map
            (fun (segments, rate) -> { segments; rate })
            (mix_on_hull hull u)
    | Processor.Ideal { s_min; s_max } -> (
        match proc.dormancy with
        | Processor.Dormant_disable ->
            fun u ->
              if Fc.exact_eq u 0. && Fc.exact_eq s_min 0. then
                Some
                  {
                    segments = [ { speed = 0.; fraction = 1. } ];
                    rate = Processor.idle_power proc;
                  }
              else begin
                let s_run = Float.max u s_min in
                let s_run = Float.min s_run s_max in
                if Fc.exact_le s_run 0. then
                  Some
                    {
                      segments = [ { speed = 0.; fraction = 1. } ];
                      rate = Processor.idle_power proc;
                    }
                else begin
                  let busy =
                    Rt_prelude.Float_cmp.clamp ~lo:0. ~hi:1. (u /. s_run)
                  in
                  let rate =
                    Processor.idle_power proc +. (busy *. dynamic s_run)
                  in
                  let segments =
                    if Fc.exact_ge busy 1. then
                      [ { speed = s_run; fraction = 1. } ]
                    else if Fc.exact_le busy 0. then
                      [ { speed = 0.; fraction = 1. } ]
                    else
                      [
                        { speed = s_run; fraction = busy };
                        { speed = 0.; fraction = 1. -. busy };
                      ]
                  in
                  Some { segments; rate }
                end
              end
        | Processor.Dormant_enable _ ->
            let s_crit = Power_model.critical_speed model ~s_max in
            fun u ->
              if Fc.exact_eq u 0. then
                Some { segments = [ { speed = 0.; fraction = 1. } ]; rate = 0. }
              else begin
                let s_run = Float.max (Float.max u s_min) s_crit in
                let s_run = Float.min s_run s_max in
                let busy =
                  Rt_prelude.Float_cmp.clamp ~lo:0. ~hi:1. (u /. s_run)
                in
                let rate = busy *. power s_run in
                let segments =
                  if Fc.exact_ge busy 1. then
                    [ { speed = s_run; fraction = 1. } ]
                  else
                    [
                      { speed = s_run; fraction = busy };
                      { speed = 0.; fraction = 1. -. busy };
                    ]
                in
                Some { segments; rate }
              end)
  in
  fun u ->
    if Fc.exact_lt u (-1e-9) || not (Float.is_finite u) then
      invalid_arg "Energy_rate.optimal: u must be finite and >= 0";
    (* arithmetic on loads (repeated add/remove) can leave -1e-17 residues *)
    let u = Float.max 0. u in
    if Rt_prelude.Float_cmp.gt u top then None else eval u

(* Rate of the optimal mix on the hull — [mix_on_hull] minus the segment
   list. The rate arithmetic is copied verbatim (same bracket search,
   same clamp, same interpolation), so the value is bit-identical; only
   the plan materialization is skipped. *)
let rate_on_hull hull u =
  let rec find = function
    | [ (x, _) ] as last ->
        if
          Rt_prelude.Float_cmp.approx_eq x u
          || Rt_prelude.Float_cmp.exact_lt u x
        then Some last
        else None
    | (_ :: ((x2, _) :: _ as rest)) as bracket ->
        if Rt_prelude.Float_cmp.exact_gt u x2 then find rest
        else Some bracket
    | [] -> None
  in
  match find hull with
  | None | Some [] -> None
  | Some ((x1, y1) :: rest) ->
      let x2, y2 = match rest with [] -> (x1, y1) | v :: _ -> v in
      if Rt_prelude.Float_cmp.approx_eq x1 x2 then Some y2
      else begin
        let a = (u -. x1) /. (x2 -. x1) in
        let a = Rt_prelude.Float_cmp.clamp ~lo:0. ~hi:1. a in
        Some (y1 +. (a *. (y2 -. y1)))
      end

(* [prepare] collapsed to the scalar the schedulers actually compare:
   [prepare_energy proc ~horizon u] is exactly
   [(Option.get (prepare proc u)).rate *. horizon] bit for bit — every
   rate below is the same expression as the corresponding [prepare]
   branch — but computed by ONE flat closure per processor kind, with
   the argument guards inlined (direct calls) and no plan, segment list
   or option materialized. The marginal-energy inner loops (Greedy,
   Local_search) evaluate this thousands of times per instance, so the
   per-call closure depth and boxing are what this variant removes.
   Raises where [prepare] returns [None] (required speed over s_max):
   the schedulers pre-check capacity, so that is an internal error. *)
let prepare_energy ?power_factor (proc : Processor.t) ~horizon =
  if Fc.exact_lt horizon 0. then
    invalid_arg "Energy_rate.prepare_energy: negative horizon";
  let model = factored_model ?power_factor proc.model in
  let power s = Power_model.power model s in
  let dynamic s = Power_model.dynamic_power model s in
  let top = Processor.s_max proc in
  let invalid_u () : float =
    invalid_arg "Energy_rate.optimal: u must be finite and >= 0"
  in
  let overload u : float =
    invalid_arg
      (Printf.sprintf
         "Energy_rate.prepare_energy: required speed %.6g exceeds s_max %.6g"
         u top)
  in
  match proc.domain with
  | Processor.Levels ls ->
      let levels = Array.to_list ls in
      let points =
        (* lint: allow-hot-alloc-in-loop "bounded by the processor's static level count and built once per prepared evaluator, not per evaluation" *)
        (0., idle_rate proc) :: List.map (fun l -> (l, power l)) levels
      in
      let hull = lower_hull points in
      fun u ->
        if Fc.exact_lt u (-1e-9) || not (Float.is_finite u) then invalid_u ()
        else begin
          (* arithmetic on loads (repeated add/remove) leaves -1e-17 residues *)
          let u = Float.max 0. u in
          if Rt_prelude.Float_cmp.gt u top then overload u
          else
            match rate_on_hull hull u with
            | Some r -> r *. horizon
            | None -> overload u
        end
  | Processor.Ideal { s_min; s_max } -> (
      match proc.dormancy with
      | Processor.Dormant_disable ->
          fun u ->
            if Fc.exact_lt u (-1e-9) || not (Float.is_finite u) then
              invalid_u ()
            else begin
              let u = Float.max 0. u in
              if Rt_prelude.Float_cmp.gt u top then overload u
              else if Fc.exact_eq u 0. && Fc.exact_eq s_min 0. then
                Processor.idle_power proc *. horizon
              else begin
                let s_run = Float.max u s_min in
                let s_run = Float.min s_run s_max in
                if Fc.exact_le s_run 0. then
                  Processor.idle_power proc *. horizon
                else begin
                  let busy =
                    Rt_prelude.Float_cmp.clamp ~lo:0. ~hi:1. (u /. s_run)
                  in
                  (Processor.idle_power proc +. (busy *. dynamic s_run))
                  *. horizon
                end
              end
            end
      | Processor.Dormant_enable _ ->
          let s_crit = Power_model.critical_speed model ~s_max in
          fun u ->
            if Fc.exact_lt u (-1e-9) || not (Float.is_finite u) then
              invalid_u ()
            else begin
              let u = Float.max 0. u in
              if Rt_prelude.Float_cmp.gt u top then overload u
              else if Fc.exact_eq u 0. then 0. *. horizon
              else begin
                let s_run = Float.max (Float.max u s_min) s_crit in
                let s_run = Float.min s_run s_max in
                let busy =
                  Rt_prelude.Float_cmp.clamp ~lo:0. ~hi:1. (u /. s_run)
                in
                busy *. power s_run *. horizon
              end
            end)

let optimal ?power_factor (proc : Processor.t) ~u =
  prepare ?power_factor proc u

let rate ?power_factor proc ~u =
  Option.map (fun p -> p.rate) (optimal ?power_factor proc ~u)

let energy ?power_factor proc ~u ~horizon =
  if Fc.exact_lt horizon 0. then
    invalid_arg "Energy_rate.energy: negative horizon";
  Option.map (fun r -> r *. horizon) (rate ?power_factor proc ~u)

let plan_rate ?power_factor (proc : Processor.t) plan =
  let model = factored_model ?power_factor proc.model in
  List.fold_left
    (fun acc { speed; fraction } ->
      let p =
        if Fc.exact_eq speed 0. then idle_rate proc
        else Power_model.power model speed
      in
      acc +. (fraction *. p))
    0. plan.segments

let plan_throughput plan =
  List.fold_left
    (fun acc { speed; fraction } -> acc +. (speed *. fraction))
    0. plan.segments

let validate ?eps (proc : Processor.t) ~u plan =
  let ( let* ) = Result.bind in
  let* () =
    if
      List.for_all
        (fun s ->
          Fc.exact_ge s.fraction 0.
          && Rt_power.Processor.speed_feasible ?eps proc s.speed)
        plan.segments
    then Ok ()
    else Error "infeasible speed or negative fraction"
  in
  let total_fraction =
    List.fold_left (fun acc s -> acc +. s.fraction) 0. plan.segments
  in
  let* () =
    if Rt_prelude.Float_cmp.approx_eq ?eps total_fraction 1. then Ok ()
    else Error "fractions do not sum to 1"
  in
  let* () =
    if Rt_prelude.Float_cmp.geq ?eps (plan_throughput plan) u then Ok ()
    else Error "plan does not deliver the required speed"
  in
  if Rt_prelude.Float_cmp.approx_eq ?eps (plan_rate proc plan) plan.rate then
    Ok ()
  else Error "reported rate disagrees with segments"
