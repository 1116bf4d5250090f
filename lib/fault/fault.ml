module Fc = Rt_prelude.Float_cmp
open Rt_power

type t =
  | Wcec_overrun of { task_id : int; factor : float }
  | Proc_crash of { proc : int; at : float }
  | Speed_derate of { factor : float }

type scenario = t list

let overrun_factor sc id =
  List.fold_left
    (fun acc f ->
      match f with
      | Wcec_overrun { task_id; factor } when task_id = id -> acc *. factor
      | _ -> acc)
    1. sc

let crash_time sc j =
  List.fold_left
    (fun acc f ->
      match f with
      | Proc_crash { proc; at } when proc = j -> (
          match acc with
          | None -> Some at
          | Some t -> Some (Float.min t at))
      | _ -> acc)
    None sc

let derate sc =
  List.fold_left
    (fun acc f ->
      match f with Speed_derate { factor } -> Float.min acc factor | _ -> acc)
    1. sc

let surviving sc ~m =
  List.filter
    (fun j -> Option.is_none (crash_time sc j))
    (Rt_prelude.Math_util.range 0 (m - 1))

let validate ~m sc =
  List.fold_left
    (fun acc f ->
      Result.bind acc (fun () ->
          match f with
          | Wcec_overrun { task_id; factor } ->
              if Fc.exact_gt factor 0. && Float.is_finite factor then Ok ()
              else
                Error
                  (Printf.sprintf
                     "Fault: overrun factor %.6g for task %d must be finite \
                      and > 0"
                     factor task_id)
          | Proc_crash { proc; at } ->
              if proc < 0 || proc >= m then
                Error
                  (Printf.sprintf "Fault: crash names processor %d of %d" proc
                     m)
              else if Fc.exact_ge at 0. && Float.is_finite at then Ok ()
              else
                Error
                  (Printf.sprintf
                     "Fault: crash time %.6g must be finite and >= 0" at)
          | Speed_derate { factor } ->
              if Fc.exact_gt factor 0. && Fc.exact_le factor 1. then Ok ()
              else
                Error
                  (Printf.sprintf
                     "Fault: derate factor %.6g must be in (0, 1]" factor)))
    (Ok ()) sc

let derated_proc sc (proc : Processor.t) =
  let d = derate sc in
  if Fc.approx_eq d 1. then Ok proc
  else
    match proc.domain with
    | Processor.Ideal { s_min; s_max } ->
        let s_max' = d *. s_max in
        if Fc.exact_lt s_max' s_min then
          Error
            (Printf.sprintf
               "Fault: derating to %.6g leaves no speed above s_min %.6g"
               s_max' s_min)
        else
          Ok
            (Processor.make ~model:proc.model
               ~domain:(Processor.Ideal { s_min; s_max = s_max' })
               ~dormancy:proc.dormancy)
    | Processor.Levels ls ->
        let top = ls.(Array.length ls - 1) in
        let cap = d *. top in
        let keep =
          Array.of_list
            (List.filter (fun s -> Fc.leq s cap) (Array.to_list ls))
        in
        if Array.length keep = 0 then
          Error
            (Printf.sprintf
               "Fault: derating to %.6g drops every DVS level" cap)
        else
          Ok
            (Processor.make ~model:proc.model ~domain:(Processor.Levels keep)
               ~dormancy:proc.dormancy)

let speed_cap sc (proc : Processor.t) =
  let d = derate sc in
  if Fc.approx_eq d 1. then None else Some (d *. Processor.s_max proc)

let frame_injection sc ~(proc : Processor.t) =
  {
    Rt_sim.Frame_sim.overrun = overrun_factor sc;
    crash = crash_time sc;
    speed_cap = speed_cap sc proc;
  }

let edf_injection sc ~(proc : Processor.t) ~proc_index =
  {
    Rt_sim.Edf_sim.overrun = overrun_factor sc;
    crash_at = crash_time sc proc_index;
    speed_cap = speed_cap sc proc;
  }

type timed = { at : float; fault : t }

let validate_timed ~m events =
  List.fold_left
    (fun acc e ->
      Result.bind acc (fun () ->
          if not (Float.is_finite e.at) || Fc.exact_lt e.at 0. then
            Error
              (Printf.sprintf
                 "Fault: injection time %.6g must be finite and >= 0" e.at)
          else validate ~m [ e.fault ]))
    (Ok ()) events

let by_time events =
  List.stable_sort (fun a b -> Float.compare a.at b.at) events

type rates = {
  overrun_prob : float;
  overrun_factor : float;
  crash_prob : float;
  derate_prob : float;
  derate_factor : float;
}

let gen rng rates ~task_ids ~m ~horizon =
  let hit p = Fc.exact_lt (Rt_prelude.Rng.float rng ~lo:0. ~hi:1.) p in
  let overruns =
    List.filter_map
      (fun id ->
        if hit rates.overrun_prob then
          Some (Wcec_overrun { task_id = id; factor = rates.overrun_factor })
        else None)
      task_ids
  in
  (* never crash the last processor standing: the degradation policies need
     somewhere to put the survivors *)
  let crashes = ref [] in
  let alive = ref m in
  for j = 0 to m - 1 do
    if !alive > 1 && hit rates.crash_prob then begin
      decr alive;
      crashes :=
        Proc_crash { proc = j; at = Rt_prelude.Rng.float rng ~lo:0. ~hi:horizon }
        :: !crashes
    end
  done;
  let derates =
    if hit rates.derate_prob then
      [ Speed_derate { factor = rates.derate_factor } ]
    else []
  in
  overruns @ List.rev !crashes @ derates

let pp_fault ppf = function
  | Wcec_overrun { task_id; factor } ->
      Format.fprintf ppf "overrun(task %d, x%.3g)" task_id factor
  | Proc_crash { proc; at } ->
      Format.fprintf ppf "crash(proc %d @@ %.3g)" proc at
  | Speed_derate { factor } -> Format.fprintf ppf "derate(x%.3g)" factor

let pp ppf sc =
  match sc with
  | [] -> Format.fprintf ppf "fault-free"
  | _ ->
      Format.fprintf ppf "[@[<hov>%a@]]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           pp_fault)
        sc
