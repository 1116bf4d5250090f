module Fc = Rt_prelude.Float_cmp

open Rt_power

type segment = { speed : float; fraction : float }
type plan = { segments : segment list; rate : float }

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

(* The hull of a level domain: idle/sleep at speed 0, then every level at
   its power. *)
let level_hull (proc : Processor.t) ~power levels =
  let levels = Array.to_list levels in
  let rest = Processor.rest_power proc in
  lower_hull
    (* lint: allow-hot-alloc-in-loop "bounded by the processor's static level count and built once per prepared evaluator, not per evaluation" *)
    ((0., rest) :: List.map (fun l -> (l, power l)) levels)

(* The hull suffix starting at the vertex pair bracketing [u]; sharing
   the suffix keeps the bracket unboxed (no per-call float pair). *)
let rec bracket u = function
  | [ (x, _) ] as last ->
      if Rt_prelude.Float_cmp.approx_eq x u || Rt_prelude.Float_cmp.exact_lt u x
      then Some last
      else None
  | (_ :: ((x2, _) :: _ as rest)) as pair ->
      if Rt_prelude.Float_cmp.exact_gt u x2 then bracket u rest else Some pair
  | [] -> None

(* Mix the two hull vertices around [u]; returns segments + rate. *)
let mix_on_hull hull u =
  match bracket u hull with
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

(* [optimal]'s body: the per-processor setup (the lower hull of the
   level points in a Levels domain, the numeric critical speed in a
   dormant ideal one), then a closure with the per-[u] arithmetic.
   [prepare_energy] below repeats that arithmetic, in the same order,
   for the rate alone. *)
let prepare (proc : Processor.t) =
  let model = proc.model in
  let power s = Power_model.power model s in
  let dynamic s = Power_model.dynamic_power model s in
  let top = Processor.s_max proc in
  let eval =
    match proc.domain with
    | Processor.Levels ls ->
        let hull = level_hull proc ~power ls in
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
            let s_floor = Processor.floor_speed proc in
            fun u ->
              if Fc.exact_eq u 0. then
                Some { segments = [ { speed = 0.; fraction = 1. } ]; rate = 0. }
              else begin
                let s_run = Float.min (Float.max u s_floor) s_max in
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
   list. Same bracket, same clamp, same interpolation, so the value is
   bit-identical; only the plan materialization is skipped. *)
let rate_on_hull hull u =
  match bracket u hull with
  | None | Some [] -> None
  | Some ((x1, y1) :: rest) ->
      let x2, y2 = match rest with [] -> (x1, y1) | v :: _ -> v in
      if Rt_prelude.Float_cmp.approx_eq x1 x2 then Some y2
      else begin
        let a = (u -. x1) /. (x2 -. x1) in
        let a = Rt_prelude.Float_cmp.clamp ~lo:0. ~hi:1. a in
        Some (y1 +. (a *. (y2 -. y1)))
      end

(* The argument guard every [prepare_energy] evaluator runs first, in
   the order [optimal] runs it: reject a non-finite or clearly negative
   load, clamp the -1e-17 residues that repeated add/remove arithmetic
   on loads leaves to 0, then raise past capacity. Written once and
   inlined into each evaluator; the selects below are [Float.max 0. u]
   and [Float_cmp.gt u top] bit for bit (an exactly-below-[top] load
   never needs the tolerant test), without the boxing an out-of-line
   stdlib call costs. *)
let invalid_u () : float =
  invalid_arg "Energy_rate.optimal: u must be finite and >= 0"

let overload u top : float =
  invalid_arg
    (Printf.sprintf
       "Energy_rate.prepare_energy: required speed %.6g exceeds s_max %.6g" u
       top)

let[@inline] checked_load ~top u =
  if Fc.exact_lt u (-1e-9) || not (Float.is_finite u) then invalid_u ()
  else
    let u = if Fc.exact_gt u 0. then u else 0. in
    if Fc.exact_le u top || not (Fc.gt u top) then u else overload u top

(* [Float.max]/[Float.min] and [clamp ~lo:0. ~hi:1.] on the ideal-speed
   path, as selects. Each returns what the stdlib call returns for the
   operands it sees there: finite speeds, a guarded load, and a busy
   fraction [u /. s_run] that is never NaN (u > 0, or s_run > 0). The
   speeds are already boxed, so [Fc.exact_*] passes them as they are;
   the fresh quotient would be boxed for each out-of-line call, so
   [unit_clamp] uses [Float.compare], which takes it unboxed and agrees
   with [<] and [>] off NaN. *)
let[@inline] at_least lo x = if Fc.exact_gt lo x then lo else x
let[@inline] at_most hi x = if Fc.exact_lt hi x then hi else x

let[@inline] unit_clamp x =
  if Float.compare x 0. < 0 then 0.
  else if Float.compare x 1. > 0 then 1.
  else x

(* [optimal] collapsed to the scalar the schedulers actually compare:
   [prepare_energy proc ~horizon u] is exactly
   [(Option.get (optimal proc ~u)).rate *. horizon] bit for bit — every
   rate below is the same expression as the corresponding [prepare]
   branch — but computed by ONE flat closure per processor kind, with
   the guard and clamps inlined and no plan, segment list or option
   materialized. The marginal-energy inner loops (Greedy, Local_search)
   evaluate this hundreds of thousands of times per instance, so the
   per-call closure depth and float boxing are what this variant
   removes. Raises where [optimal] returns [None] (required speed over
   s_max): the schedulers pre-check capacity, so that is an internal
   error. *)
let prepare_energy (proc : Processor.t) ~horizon =
  if Fc.exact_lt horizon 0. then
    invalid_arg "Energy_rate.prepare_energy: negative horizon";
  let model = proc.model in
  let top = Processor.s_max proc in
  match proc.domain with
  | Processor.Levels ls ->
      let hull = level_hull proc ~power:(Power_model.power model) ls in
      fun u ->
        let u = checked_load ~top u in
        (match rate_on_hull hull u with
        | Some r -> r *. horizon
        | None -> overload u top)
  | Processor.Ideal { s_min; s_max } -> (
      match proc.dormancy with
      | Processor.Dormant_disable ->
          fun u ->
            let u = checked_load ~top u in
            if Fc.exact_eq u 0. && Fc.exact_eq s_min 0. then
              Processor.idle_power proc *. horizon
            else begin
              let s_run = at_most s_max (at_least s_min u) in
              if Fc.exact_le s_run 0. then Processor.idle_power proc *. horizon
              else
                let busy = unit_clamp (u /. s_run) in
                (Processor.idle_power proc
                +. (busy *. Power_model.dynamic_power model s_run))
                *. horizon
            end
      | Processor.Dormant_enable _ ->
          let s_floor = Processor.floor_speed proc in
          fun u ->
            let u = checked_load ~top u in
            if Fc.exact_eq u 0. then 0. *. horizon
            else
              let s_run = at_most s_max (at_least s_floor u) in
              let busy = unit_clamp (u /. s_run) in
              busy *. Power_model.power model s_run *. horizon)

let optimal (proc : Processor.t) ~u = prepare proc u

let rate proc ~u = Option.map (fun p -> p.rate) (optimal proc ~u)

let energy proc ~u ~horizon =
  if Fc.exact_lt horizon 0. then
    invalid_arg "Energy_rate.energy: negative horizon";
  Option.map (fun r -> r *. horizon) (rate proc ~u)

let plan_rate (proc : Processor.t) plan =
  List.fold_left
    (fun acc { speed; fraction } ->
      let p =
        if Fc.exact_eq speed 0. then Processor.rest_power proc
        else Power_model.power proc.model speed
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
