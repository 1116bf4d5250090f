open Rt_power
open Rt_task
open Rt_speed
module Fc = Rt_prelude.Float_cmp

type slice = { task_id : int option; t0 : float; t1 : float; speed : float }

type proc_timeline = {
  proc_index : int;
  slices : slice list;
  proc_energy : float;
}

type t = {
  frame_length : float;
  proc : Processor.t;
  partition : Rt_partition.Partition.t;
  timelines : proc_timeline list;
  total_energy : float;
}

let energy_of_slices ~(proc : Processor.t) slices =
  List.fold_left
    (fun acc s ->
      let dt = s.t1 -. s.t0 in
      let p =
        if s.task_id = None || Fc.exact_eq s.speed 0. then
          Processor.rest_power proc
        else Power_model.power proc.model s.speed
      in
      acc +. (dt *. p))
    0. slices

(* Walk the bucket's tasks through the plan's segments (fastest first),
   splitting tasks across segment boundaries. *)
let lay_out ~frame_length bucket (plan : Energy_rate.plan) =
  let running =
    List.filter
      (fun (s : Energy_rate.segment) -> Fc.exact_gt s.speed 0.)
      plan.segments
    |> List.map (fun (s : Energy_rate.segment) ->
           (s.speed, s.fraction *. frame_length))
  in
  let rec go t segments tasks acc =
    match (tasks, segments) with
    | [], _ -> (t, List.rev acc)
    | _ :: _, [] ->
        (* throughput matches load up to rounding; any residual cycles are
           below tolerance and dropped here — validation re-checks *)
        (t, List.rev acc)
    | (it, cycles) :: rest_tasks, (speed, seg_time) :: rest_segments ->
        if Fc.exact_le cycles (1e-12 *. frame_length) then
          go t segments rest_tasks acc
        else if Fc.exact_le seg_time (1e-12 *. frame_length) then
          go t rest_segments tasks acc
        else begin
          let need = cycles /. speed in
          let dt = Float.min need seg_time in
          let slice =
            { task_id = Some it.Task.item_id; t0 = t; t1 = t +. dt; speed }
          in
          let cycles_left = cycles -. (dt *. speed) in
          let seg_left = seg_time -. dt in
          let tasks' =
            if Fc.exact_le cycles_left (1e-12 *. frame_length) then rest_tasks
            else (it, cycles_left) :: rest_tasks
          in
          let segments' =
            if Fc.exact_le seg_left (1e-12 *. frame_length) then rest_segments
            else (speed, seg_left) :: rest_segments
          in
          go (t +. dt) segments' tasks' (slice :: acc)
        end
  in
  let tasks =
    List.map (fun (it : Task.item) -> (it, it.weight *. frame_length)) bucket
  in
  let t_end, slices = go 0. running tasks [] in
  let slices =
    if Fc.exact_lt t_end (frame_length -. (1e-12 *. frame_length)) then
      slices @ [ { task_id = None; t0 = t_end; t1 = frame_length; speed = 0. } ]
    else slices
  in
  slices

let build ~proc ~frame_length partition =
  if Fc.exact_le frame_length 0. then Error "Frame_sim.build: frame_length <= 0"
  else begin
    let items = Rt_partition.Partition.all_items partition in
    if
      List.exists
        (fun (it : Task.item) -> not (Fc.exact_eq it.item_power_factor 1.))
        items
    then Error "Frame_sim.build: non-unit power_factor unsupported"
    else begin
      let m = Rt_partition.Partition.m partition in
      let rec per_proc j acc =
        if j = m then Ok (List.rev acc)
        else begin
          let bucket = List.rev (Rt_partition.Partition.bucket partition j) in
          let u = Rt_partition.Partition.load partition j in
          match Energy_rate.optimal proc ~u with
          | None ->
              Error
                (Printf.sprintf
                   "Frame_sim.build: processor %d overloaded (load %.6g > \
                    s_max %.6g)"
                   j u (Processor.s_max proc))
          | Some plan ->
              let slices = lay_out ~frame_length bucket plan in
              let proc_energy = energy_of_slices ~proc slices in
              per_proc (j + 1) ({ proc_index = j; slices; proc_energy } :: acc)
        end
      in
      match per_proc 0 [] with
      | Error _ as e -> e
      | Ok timelines ->
          let total_energy =
            List.fold_left (fun acc tl -> acc +. tl.proc_energy) 0. timelines
          in
          Ok { frame_length; proc; partition; timelines; total_energy }
    end
  end

let validate ?eps t =
  let ( let* ) = Result.bind in
  let feps = match eps with Some e -> e | None -> 1e-6 in
  let* () =
    if List.length t.timelines = Rt_partition.Partition.m t.partition then
      Ok ()
    else Error "timeline count differs from partition size"
  in
  let check_timeline tl =
    let rec contiguous prev = function
      | [] ->
          if Rt_prelude.Float_cmp.approx_eq ~eps:feps prev t.frame_length then
            Ok ()
          else Error "timeline does not end at the frame boundary"
      | s :: rest ->
          if not (Rt_prelude.Float_cmp.approx_eq ~eps:feps s.t0 prev) then
            Error "timeline has a gap or overlap"
          else if Fc.exact_lt s.t1 (s.t0 -. feps) then Error "negative slice"
          else if
            s.task_id <> None
            && not (Processor.speed_feasible ~eps:feps t.proc s.speed)
          then Error "infeasible slice speed"
          else contiguous s.t1 rest
    in
    match tl.slices with
    | [] ->
        if Fc.exact_eq t.frame_length 0. then Ok ()
        else Error "empty timeline on a positive frame"
    | first :: _ ->
        let* () =
          if Rt_prelude.Float_cmp.approx_eq ~eps:feps first.t0 0. then Ok ()
          else Error "timeline does not start at 0"
        in
        contiguous 0. tl.slices
  in
  let rec all = function
    | [] -> Ok ()
    | tl :: rest ->
        let* () = check_timeline tl in
        all rest
  in
  let* () = all t.timelines in
  (* every task's executed cycles match its weight × frame *)
  let executed = Hashtbl.create 16 in
  List.iter
    (fun tl ->
      List.iter
        (fun s ->
          match s.task_id with
          | None -> ()
          | Some id ->
              let prev = Option.value ~default:0. (Hashtbl.find_opt executed id) in
              Hashtbl.replace executed id (prev +. ((s.t1 -. s.t0) *. s.speed)))
        tl.slices)
    t.timelines;
  let items = Rt_partition.Partition.all_items t.partition in
  let* () =
    List.fold_left
      (fun acc (it : Task.item) ->
        let* () = acc in
        let got = Option.value ~default:0. (Hashtbl.find_opt executed it.item_id) in
        let want = it.weight *. t.frame_length in
        if Rt_prelude.Float_cmp.approx_eq ~eps:feps got want then Ok ()
        else
          Error
            (Printf.sprintf "task %d executed %.9g of %.9g cycles" it.item_id
               got want))
      (Ok ()) items
  in
  let* () =
    if Hashtbl.length executed = List.length items then Ok ()
    else Error "schedule executes a task that is not in the partition"
  in
  let recomputed =
    List.fold_left
      (fun acc tl -> acc +. energy_of_slices ~proc:t.proc tl.slices)
      0. t.timelines
  in
  if Rt_prelude.Float_cmp.approx_eq ~eps:feps recomputed t.total_energy then
    Ok ()
  else Error "total_energy disagrees with the slice integral"

type injection = {
  overrun : int -> float;
  crash : int -> float option;
  speed_cap : float option;
}

let no_injection =
  { overrun = (fun _ -> 1.); crash = (fun _ -> None); speed_cap = None }

type fault_report = {
  missed : int list;
  delivered : (int * float) list;
  faulty_energy : float;
  dead_time : float;
}

let run_injected ?nominal ~inject t =
  let ( let* ) = Result.bind in
  let items = Rt_partition.Partition.all_items t.partition in
  let m = Rt_partition.Partition.m t.partition in
  let* () =
    List.fold_left
      (fun acc (it : Task.item) ->
        let* () = acc in
        let f = inject.overrun it.item_id in
        if Fc.exact_gt f 0. && Float.is_finite f then Ok ()
        else
          Error
            (Printf.sprintf "Frame_sim: overrun factor %.6g for task %d" f
               it.item_id))
      (Ok ()) items
  in
  let rec check_crashes j =
    if j = m then Ok ()
    else
      match inject.crash j with
      | None -> check_crashes (j + 1)
      | Some tc ->
          if Fc.exact_ge tc 0. && Float.is_finite tc then check_crashes (j + 1)
          else
            Error
              (Printf.sprintf "Frame_sim: crash time %.6g for processor %d" tc j)
  in
  let* () = check_crashes 0 in
  let* cap =
    match inject.speed_cap with
    | None -> Ok None
    | Some c ->
        if Fc.exact_gt c 0. && Float.is_finite c then Ok (Some c)
        else Error "Frame_sim: speed_cap must be finite and > 0"
  in
  let nominal_of =
    match nominal with
    | Some f -> f
    | None ->
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun (it : Task.item) -> Hashtbl.replace tbl it.item_id it.weight)
          items;
        fun id -> Option.value ~default:0. (Hashtbl.find_opt tbl id)
  in
  let delivered = Hashtbl.create 16 in
  List.iter
    (fun (it : Task.item) -> Hashtbl.replace delivered it.item_id 0.)
    items;
  let energy = ref 0. in
  let dead = ref 0. in
  List.iter
    (fun tl ->
      let stop =
        match inject.crash tl.proc_index with
        | None -> t.frame_length
        | Some tc -> Float.min tc t.frame_length
      in
      dead := !dead +. (t.frame_length -. stop);
      List.iter
        (fun s ->
          let t1 = Float.min s.t1 stop in
          let dt = t1 -. s.t0 in
          if Fc.exact_gt dt 0. then
            match s.task_id with
            | None -> energy := !energy +. (dt *. Processor.rest_power t.proc)
            | Some id ->
                let actual =
                  match cap with
                  | None -> s.speed
                  | Some c -> Float.min s.speed c
                in
                let prev =
                  Option.value ~default:0. (Hashtbl.find_opt delivered id)
                in
                Hashtbl.replace delivered id (prev +. (dt *. actual));
                if Fc.exact_gt actual 0. then
                  energy := !energy +. (dt *. Power_model.power t.proc.model actual))
        tl.slices)
    t.timelines;
  let got id = Option.value ~default:0. (Hashtbl.find_opt delivered id) in
  let missed =
    List.filter_map
      (fun (it : Task.item) ->
        let want =
          nominal_of it.item_id *. inject.overrun it.item_id *. t.frame_length
        in
        if Fc.lt (got it.item_id) want then Some it.item_id else None)
      items
  in
  Ok
    {
      missed;
      delivered = List.map (fun (it : Task.item) -> (it.item_id, got it.item_id)) items;
      faulty_energy = !energy;
      dead_time = !dead;
    }

let glyph_of_id id =
  let alphabet = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ" in
  alphabet.[id mod String.length alphabet]

let gantt t =
  let segments =
    List.concat_map
      (fun tl ->
        List.filter_map
          (fun s ->
            match s.task_id with
            | None -> None
            | Some id ->
                Some
                  {
                    Gantt.t0 = s.t0;
                    t1 = s.t1;
                    row = Printf.sprintf "P%d" tl.proc_index;
                    glyph = glyph_of_id id;
                  })
          tl.slices)
      t.timelines
  in
  Gantt.render ~horizon:t.frame_length segments
