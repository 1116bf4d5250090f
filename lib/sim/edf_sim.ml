module Fc = Rt_prelude.Float_cmp

open Rt_power
open Rt_task

type miss = { task_id : int; deadline : float; late_by : float }
type gap = { g0 : float; g1 : float }

type outcome = {
  horizon : float;
  misses : miss list;
  busy_time : float;
  gaps : gap list;
  exec_energy : float;
  idle_energy_awake : float;
  idle_energy_sleep : float;
  idle_energy_proc : float;
  preemptions : int;
}

type job = {
  jtask : int;
  release : float;
  deadline : float;
  mutable remaining : float;  (** execution time left at the given speed *)
}

type injection = {
  overrun : int -> float;
  crash_at : float option;
  speed_cap : float option;
}

let no_injection =
  { overrun = (fun _ -> 1.); crash_at = None; speed_cap = None }

let build_jobs ~overrun ~horizon ~speed tasks =
  List.concat_map
    (fun (t : Task.periodic) ->
      let p = float_of_int t.period in
      let exec = float_of_int t.cycles *. overrun t.id /. speed in
      let rec go k acc =
        let release = float_of_int k *. p in
        if Fc.exact_ge release (horizon -. 1e-9) then List.rev acc
        else
          go (k + 1)
            ({ jtask = t.id; release; deadline = release +. p; remaining = exec }
            :: acc)
      in
      go 0 [])
    tasks

(* Core event loop. [exec_until <= horizon] bounds *execution* (a crashed
   processor stops there and consumes nothing afterwards); deadline-miss
   accounting always runs against the full [horizon]. *)
let simulate_jobs ~horizon ~exec_until ~(proc : Processor.t) ~speed jobs =
  let future =
    List.sort
      (fun a b ->
        let c = Float.compare a.release b.release in
        if c <> 0 then c else compare a.jtask b.jtask)
      jobs
  in
  let pick ready =
    (* earliest deadline first; ties by task id then release for determinism *)
    List.fold_left
      (fun best j ->
        match best with
        | None -> Some j
        | Some b ->
            if
              (* exact tie-break: tolerance here would break the total order *)
              Fc.exact_lt j.deadline b.deadline
              || (Fc.exact_eq j.deadline b.deadline && j.jtask < b.jtask)
            then Some j
            else best)
      None ready
  in
  let gaps = ref [] in
  let misses = ref [] in
  let busy = ref 0. in
  let preemptions = ref 0 in
  let rec loop t ready future =
    if Fc.exact_ge t (exec_until -. 1e-9) then
      (* no further execution possible: account every unfinished job whose
         deadline falls within the horizon (including jobs released after a
         crash — the processor is gone, so they can never run) *)
      List.iter
        (fun j ->
          if
            Fc.exact_gt j.remaining 1e-9
            && Fc.exact_le j.deadline (horizon +. 1e-9)
          then
            misses :=
              {
                task_id = j.jtask;
                deadline = j.deadline;
                late_by = horizon -. j.deadline;
              }
              :: !misses)
        (ready @ future)
    else
      match (pick ready, future) with
      | None, [] ->
          if Fc.exact_gt (exec_until -. t) 1e-9 then
            gaps := { g0 = t; g1 = exec_until } :: !gaps
      | None, next :: _ ->
          let t' = Float.min exec_until next.release in
          if Fc.exact_gt (t' -. t) 1e-9 then gaps := { g0 = t; g1 = t' } :: !gaps;
          let arrived, future' =
            List.partition (fun j -> Fc.exact_le j.release (t' +. 1e-12)) future
          in
          loop t' (arrived @ ready) future'
      | Some j, _ ->
          let next_release =
            match future with [] -> Float.infinity | n :: _ -> n.release
          in
          let finish = t +. j.remaining in
          let t' = Float.min (Float.min finish next_release) exec_until in
          let ran = t' -. t in
          if Fc.exact_gt ran 0. then begin
            busy := !busy +. ran;
            j.remaining <- j.remaining -. ran
          end;
          let completed = Fc.exact_le j.remaining 1e-9 in
          if completed && Fc.exact_gt t' (j.deadline +. 1e-9) then
            misses :=
              {
                task_id = j.jtask;
                deadline = j.deadline;
                late_by = t' -. j.deadline;
              }
              :: !misses;
          let ready' =
            (* lint: allow-phys-cmp "jobs are mutable records; physical identity is the intended key" *)
            if completed then List.filter (fun x -> x != j) ready else ready
          in
          let arrived, future' =
            List.partition (fun x -> Fc.exact_le x.release (t' +. 1e-12)) future
          in
          (* a preemption happens when the job is unfinished and a newly
             arrived job takes over *)
          let ready'' = arrived @ ready' in
          (if (not completed) && Fc.exact_lt t' exec_until then
             match pick ready'' with
             (* lint: allow-phys-cmp "jobs are mutable records; physical identity is the intended key" *)
             | Some nxt when nxt != j -> incr preemptions
             | _ -> ());
          loop t' ready'' future'
  in
  let arrived, future' =
    List.partition (fun j -> Fc.exact_le j.release 1e-12) future
  in
  loop 0. arrived future';
  let gaps = List.rev !gaps in
  let idle_total =
    List.fold_left (fun acc g -> acc +. (g.g1 -. g.g0)) 0. gaps
  in
  let p_idle = Processor.idle_power proc in
  let idle_energy_sleep =
    List.fold_left
      (fun acc g ->
        acc +. Rt_speed.Procrastinate.idle_energy proc ~interval:(g.g1 -. g.g0))
      0. gaps
  in
  let idle_energy_proc =
    if Fc.exact_eq idle_total 0. then 0.
    else Rt_speed.Procrastinate.idle_energy proc ~interval:idle_total
  in
  let exec_energy =
    if Fc.exact_eq !busy 0. then 0.
    else !busy *. Power_model.power proc.model speed
  in
  {
    horizon;
    misses = List.rev !misses;
    busy_time = !busy;
    gaps;
    exec_energy;
    idle_energy_awake = p_idle *. idle_total;
    idle_energy_sleep;
    idle_energy_proc;
    preemptions = !preemptions;
  }

let prepare ?horizon ~proc ~speed tasks =
  let ( let* ) = Result.bind in
  let* () =
    match Taskset.well_formed_periodic tasks with
    | Ok () -> Ok ()
    | Error e -> Error ("Edf_sim: " ^ e)
  in
  let* horizon =
    match horizon with
    | Some h -> if Fc.exact_gt h 0. then Ok h else Error "Edf_sim: horizon <= 0"
    | None -> (
        match tasks with
        | [] -> Error "Edf_sim: empty task set needs an explicit horizon"
        | _ -> (
            match Taskset.hyper_period_checked tasks with
            | Ok hp -> Ok (float_of_int hp)
            | Error e -> Error ("Edf_sim: " ^ e)))
  in
  let* () =
    if tasks = [] then Ok ()
    else if Fc.exact_le speed 0. then Error "Edf_sim: speed <= 0"
    else if not (Processor.speed_feasible proc speed) then
      Error
        (Printf.sprintf "Edf_sim: speed %.6g not available on this processor"
           speed)
    else Ok ()
  in
  Ok horizon

let run ?horizon ?(inject = no_injection) ~proc ~speed tasks =
  let ( let* ) = Result.bind in
  let* horizon = prepare ?horizon ~proc ~speed tasks in
  let* () =
    List.fold_left
      (fun acc (t : Task.periodic) ->
        let* () = acc in
        let f = inject.overrun t.id in
        if Fc.exact_gt f 0. && Float.is_finite f then Ok ()
        else
          Error
            (Printf.sprintf "Edf_sim: overrun factor %.6g for task %d" f t.id))
      (Ok ()) tasks
  in
  let* eff_speed =
    match inject.speed_cap with
    | None -> Ok speed
    | Some c ->
        if Fc.exact_gt c 0. && Float.is_finite c then Ok (Float.min speed c)
        else Error "Edf_sim: speed_cap must be finite and > 0"
  in
  let* exec_until =
    match inject.crash_at with
    | None -> Ok horizon
    | Some tc ->
        if Fc.exact_ge tc 0. && Float.is_finite tc then
          Ok (Float.min tc horizon)
        else Error "Edf_sim: crash time must be finite and >= 0"
  in
  match tasks with
  | [] -> Ok (simulate_jobs ~horizon ~exec_until:horizon ~proc ~speed [])
  | _ ->
      let jobs =
        build_jobs ~overrun:inject.overrun ~horizon ~speed:eff_speed tasks
      in
      Ok (simulate_jobs ~horizon ~exec_until ~proc ~speed:eff_speed jobs)
