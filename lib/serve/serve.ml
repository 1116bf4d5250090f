module Fc = Rt_prelude.Float_cmp
module Clock = Rt_prelude.Clock
module Job = Rt_online.Job
module Admission = Rt_online.Admission
module Exec = Rt_online.Admission.Exec
module Fault = Rt_fault.Fault

type watchdog = { latency_budget : float; recover_after : int }
type overload = { window : float; enter_above : float; exit_below : float }

type config = {
  policy : Admission.policy;
  m : int;
  queue_capacity : int option;
  decision_rate : float option;
  watchdog : watchdog option;
  degraded_theta : float;
  overload : overload option;
  faults : Fault.timed list;
  yds_bound : bool;
}

let default_config =
  {
    policy = Admission.Admit_all;
    m = 1;
    queue_capacity = None;
    decision_rate = None;
    watchdog = None;
    degraded_theta = 0.;
    overload = None;
    faults = [];
    yds_bound = false;
  }

type report = {
  outcome : Admission.outcome;
  seen : int;
  shed : int;
  replan_shed : int;
  declined : int;
  tier_decisions : int array;
  tier_wall : float array;
  max_latency : float;
  p99_latency : float;
  overload_time : float;
  incidents : Incident.t list;
  lower_bound : float;
  yds_energy : float option;
}

let bind r k = match r with Error _ as e -> e | Ok v -> k v

let validate_config cfg =
  let err fmt = Printf.ksprintf (fun msg -> Error (Admission.Invalid msg)) fmt in
  let ( let* ) = bind in
  let* () =
    match cfg.queue_capacity with
    | Some c when c < 0 -> err "serve: queue capacity %d must be >= 0" c
    | _ -> Ok ()
  in
  let* () =
    match cfg.decision_rate with
    | Some r when (not (Float.is_finite r)) || Fc.exact_le r 0. ->
        err "serve: decision rate %.6g must be finite and > 0" r
    | _ -> Ok ()
  in
  let* () =
    match cfg.watchdog with
    | Some w
      when (not (Float.is_finite w.latency_budget))
           || Fc.exact_le w.latency_budget 0. ->
        err "serve: watchdog latency budget %.6g must be finite and > 0"
          w.latency_budget
    | Some w when w.recover_after < 1 ->
        err "serve: watchdog recover_after %d must be >= 1" w.recover_after
    | _ -> Ok ()
  in
  let* () =
    if
      (not (Float.is_finite cfg.degraded_theta))
      || Fc.exact_lt cfg.degraded_theta 0.
    then err "serve: degraded theta %.6g must be finite and >= 0"
        cfg.degraded_theta
    else Ok ()
  in
  let* () =
    match cfg.overload with
    | Some o when (not (Float.is_finite o.window)) || Fc.exact_le o.window 0.
      ->
        err "serve: overload window %.6g must be finite and > 0" o.window
    | Some o
      when (not (Float.is_finite o.enter_above))
           || (not (Float.is_finite o.exit_below))
           || Fc.exact_lt o.exit_below 0.
           || Fc.exact_gt o.exit_below o.enter_above ->
        err "serve: overload thresholds must satisfy 0 <= exit %.6g <= enter \
             %.6g"
          o.exit_below o.enter_above
    | _ -> Ok ()
  in
  let* () =
    if cfg.yds_bound && cfg.m <> 1 then
      err "serve: yds_bound prices one processor, not m = %d" cfg.m
    else Ok ()
  in
  match Fault.validate_timed ~m:cfg.m cfg.faults with
  | Error msg -> Error (Admission.Invalid msg)
  | Ok () -> Ok ()

let run ~proc ~config source =
  bind (validate_config config) @@ fun () ->
  bind
    (if config.yds_bound && not (Rt_power.Processor.is_ideal proc) then
       Error (Admission.Invalid "serve: yds_bound needs an ideal processor")
     else Ok ())
  @@ fun () ->
  bind (Exec.create ~proc ~m:config.m) @@ fun exec ->
  let faults = ref (Fault.by_time config.faults) in
  let tier = ref Incident.Exact in
  let streak = ref 0 in
  let incidents = ref [] in
  let incident i = incidents := i :: !incidents in
  let queue = Ingress.create () in
  (* the overload window: the jobs that arrived in the last [window]
     time units, oldest first, and their cycles in a one-slot float
     array, which updates in place where a float ref these closures
     capture would box every new sum *)
  let win = Ingress.create () and win_cycles = [| 0. |] in
  let overloaded = ref false in
  let overload_since = ref 0. in
  let overload_time = ref 0. in
  (* decision-latency statistics *)
  let lat = ref (Array.make 1024 0.) in
  let lat_n = ref 0 in
  let push_lat x =
    let buf =
      (!lat)
      [@rt.domain_safe
        "the latency buffer is private to this [run] invocation, like \
         every other piece of engine state"]
    in
    if !lat_n = Array.length buf then begin
      let bigger = Array.make (2 * Array.length buf) 0. in
      Array.blit buf 0 bigger 0 !lat_n;
      lat := bigger
    end;
    let buf =
      (!lat)
      [@rt.domain_safe "as above: single-invocation private state"]
    in
    buf.(!lat_n) <- x;
    incr lat_n
  in
  let max_lat = ref 0. in
  let tier_decisions = Array.make 3 0 in
  let tier_wall = Array.make 3 0. in
  let seen = ref 0 in
  let shed_count = ref 0 in
  let replan_shed = ref 0 in
  let lower = ref 0. in
  let admitted_jobs = ref [] in
  let decision_clock = ref 0. in
  (* one-job lookahead on the source *)
  let peeked = ref None in
  let source_done = ref false in
  let peek_arrival () =
    match !peeked with
    | Some _ as s -> Ok s
    | None ->
        if !source_done then Ok None
        else begin
          match Source.next source with
          | Error msg -> Error (Admission.Invalid ("serve: source: " ^ msg))
          | Ok None ->
              source_done := true;
              Ok None
          | Ok (Some j) ->
              peeked := Some j;
              Ok (Some j)
        end
  in
  (* live processors: all [m] until a crash *)
  let live_n = ref config.m in
  let offered_load_update (j : Job.t) =
    match config.overload with
    | None -> ()
    | Some ov ->
        let at = j.arrival in
        Ingress.push win j;
        win_cycles.(0) <- win_cycles.(0) +. j.cycles;
        (* no float compared here is NaN, so [Float.compare] orders as
           [<] and [>] do, on unboxed operands *)
        let cutoff = at -. ov.window in
        while
          Ingress.length win > 0
          && Float.compare (Ingress.peek win).arrival cutoff < 0
        do
          win_cycles.(0) <- win_cycles.(0) -. (Ingress.pop win).cycles
        done;
        let denom =
          ov.window *. (float_of_int !live_n *. Exec.speed_cap exec)
        in
        let offered =
          if Float.compare denom 0. > 0 then win_cycles.(0) /. denom
          else Float.infinity
        in
        if (not !overloaded) && Float.compare offered ov.enter_above > 0 then
        begin
          overloaded := true;
          overload_since := at;
          incident (Incident.Overload_on { at; offered })
        end
        else if !overloaded && Float.compare offered ov.exit_below < 0 then
        begin
          overloaded := false;
          overload_time := !overload_time +. (at -. !overload_since);
          incident (Incident.Overload_off { at; offered })
        end
  in
  let decide_tiered j =
    let t0 = Clock.now () in
    let result =
      match !tier with
      | Incident.Exact -> Exec.decide exec ~policy:config.policy j
      | Incident.Threshold ->
          Exec.decide_cheap exec ~theta:config.degraded_theta j
      | Incident.Admit_none ->
          bind (Exec.reject exec j) (fun () -> Ok Admission.Declined)
    in
    let dt = Clock.elapsed ~since:t0 in
    let idx = Incident.tier_index !tier in
    tier_decisions.(idx) <- tier_decisions.(idx) + 1;
    tier_wall.(idx) <- tier_wall.(idx) +. dt;
    push_lat dt;
    if Fc.exact_gt dt !max_lat then max_lat := dt;
    (match config.watchdog with
    | None -> ()
    | Some wd ->
        let at = Exec.now exec in
        if Fc.exact_gt dt wd.latency_budget then begin
          streak := 0;
          match Incident.next_down !tier with
          | None -> ()
          | Some worse ->
              incident
                (Incident.Tier_down
                   { at; from_ = !tier; to_ = worse; latency = dt });
              tier := worse
        end
        else begin
          incr streak;
          if !streak >= wd.recover_after then
            match Incident.next_up !tier with
            | None -> ()
            | Some better ->
                streak := 0;
                incident (Incident.Tier_up { at; from_ = !tier; to_ = better });
                tier := better
        end);
    bind result (fun d ->
        (match d with
        | Admission.Admitted when config.yds_bound ->
            admitted_jobs := j :: !admitted_jobs
        | _ -> ());
        Ok ())
  in
  let shed_overflow ~at =
    match config.queue_capacity with
    | None -> Ok ()
    | Some cap ->
        let rec go () =
          if Ingress.length queue <= cap then Ok ()
          else begin
            let j = Ingress.shed queue in
            incr shed_count;
            incident
              (Incident.Shed
                 { at; job_id = j.id; rate = j.penalty /. j.cycles });
            bind (Exec.reject exec j) go
          end
        in
        go ()
  in
  let replanned ~at ~moved shed =
    replan_shed := !replan_shed + List.length shed;
    if shed <> [] || moved <> [] then
      incident (Incident.Replanned { at; shed; moved })
  in
  let replan_all ~at =
    List.iter
      (fun p -> replanned ~at ~moved:[] (Exec.replan exec ~proc:p))
      (Exec.live exec)
  in
  let apply_fault (e : Fault.timed) =
    bind (Exec.advance_to exec ~until:e.at) (fun () ->
        let at = Exec.now exec in
        incident (Incident.Fault_struck { at; fault = e.fault });
        match e.fault with
        | Fault.Speed_derate { factor } ->
            bind (Exec.derate exec ~factor) (fun () ->
                replan_all ~at;
                Ok ())
        | Fault.Proc_crash { proc; at = _ } ->
            let moved, shed = Exec.crash exec ~proc in
            live_n := List.length (Exec.live exec);
            replanned ~at ~moved shed;
            Ok ()
        | Fault.Wcec_overrun { task_id; factor } ->
            ignore (Exec.inflate exec ~id:task_id ~factor);
            replan_all ~at;
            Ok ())
  in
  let handle_arrival (j : Job.t) =
    peeked := None;
    incr seen;
    lower := !lower +. Admission.job_bound ~proc j;
    offered_load_update j;
    match config.decision_rate with
    | None ->
        bind (Exec.advance_to exec ~until:j.arrival) (fun () ->
            decide_tiered j)
    | Some _ ->
        Ingress.push queue j;
        shed_overflow ~at:j.arrival
  in
  let handle_decision () =
    match config.decision_rate with
    | Some r when Ingress.length queue > 0 ->
        let j = Ingress.pop queue in
        let t_dec = Float.max j.Job.arrival !decision_clock in
        decision_clock := t_dec +. (1. /. r);
        bind (Exec.advance_to exec ~until:t_dec) (fun () -> decide_tiered j)
    | _ ->
        Error (Admission.Invalid "serve: internal: stray decision event")
  in
  let next_decision_time () =
    match config.decision_rate with
    | Some _ when Ingress.length queue > 0 ->
        Some (Float.max (Ingress.peek queue).Job.arrival !decision_clock)
    | _ -> None
  in
  (* the event loop: earliest of (pending fault, queued decision, next
     arrival) wins; ties strike the fault first, then decide, then admit
     the arrival under the post-fault regime *)
  let le a b =
    match (a, b) with
    | None, _ -> false
    | Some _, None -> true
    | Some x, Some y -> Fc.exact_le x y
  in
  let rec loop () =
    bind (peek_arrival ()) @@ fun next_arr ->
    let t_arr = Option.map (fun (j : Job.t) -> j.arrival) next_arr in
    let t_dec = next_decision_time () in
    let t_fault =
      match !faults with [] -> None | e :: _ -> Some e.Fault.at
    in
    match (t_fault, t_dec, t_arr) with
    | None, None, None -> Ok ()
    | _ ->
        if le t_fault t_dec && le t_fault t_arr then begin
          match !faults with
          | [] -> Ok ()
          | e :: tl ->
              faults := tl;
              bind (apply_fault e) loop
        end
        else if le t_dec t_arr then bind (handle_decision ()) loop
        else begin
          match next_arr with
          | None -> Ok ()
          | Some j -> bind (handle_arrival j) loop
        end
  in
  bind (loop ()) @@ fun () ->
  if !overloaded then begin
    overloaded := false;
    overload_time := !overload_time +. (Exec.now exec -. !overload_since)
  end;
  bind (Exec.finish exec) @@ fun outcome ->
  let p99 =
    if !lat_n = 0 then 0.
    else begin
      let arr =
        (Array.sub !lat 0 !lat_n)
        [@rt.domain_safe
          "a private copy of the private latency buffer, sorted in place \
           after the stream is fully drained"]
      in
      Array.sort Float.compare arr;
      arr.(int_of_float (0.99 *. float_of_int (!lat_n - 1)))
    end
  in
  let yds_energy =
    if config.yds_bound then begin
      let tbl = Hashtbl.create 64 in
      List.iter (fun (j : Job.t) -> Hashtbl.replace tbl j.id j) !admitted_jobs;
      let jobs = List.filter_map (Hashtbl.find_opt tbl) outcome.admitted in
      match Rt_online.Yds.energy ~proc jobs with
      | Ok e -> Some e
      | Error _ -> None
    end
    else None
  in
  let declined =
    List.length outcome.rejected - outcome.forced_rejections - !shed_count
    - !replan_shed
  in
  Ok
    {
      outcome;
      seen = !seen;
      shed = !shed_count;
      replan_shed = !replan_shed;
      declined;
      tier_decisions;
      tier_wall;
      max_latency = !max_lat;
      p99_latency = p99;
      overload_time = !overload_time;
      incidents = List.rev !incidents;
      lower_bound = !lower;
      yds_energy;
    }

let merge_outcomes (a : Admission.outcome) (b : Admission.outcome) =
  {
    Admission.energy = a.energy +. b.energy;
    penalty = a.penalty +. b.penalty;
    total = a.total +. b.total;
    admitted = List.merge compare a.admitted b.admitted;
    rejected = List.merge compare a.rejected b.rejected;
    forced_rejections = a.forced_rejections + b.forced_rejections;
    makespan = Float.max a.makespan b.makespan;
  }

let merge2 a b =
  {
    outcome = merge_outcomes a.outcome b.outcome;
    seen = a.seen + b.seen;
    shed = a.shed + b.shed;
    replan_shed = a.replan_shed + b.replan_shed;
    declined = a.declined + b.declined;
    tier_decisions =
      Array.init 3 (fun i -> a.tier_decisions.(i) + b.tier_decisions.(i));
    tier_wall = Array.init 3 (fun i -> a.tier_wall.(i) +. b.tier_wall.(i));
    max_latency = Float.max a.max_latency b.max_latency;
    p99_latency = Float.max a.p99_latency b.p99_latency;
    overload_time = Float.max a.overload_time b.overload_time;
    incidents =
      List.stable_sort
        (fun x y -> Float.compare (Incident.at x) (Incident.at y))
        (a.incidents @ b.incidents);
    lower_bound = a.lower_bound +. b.lower_bound;
    yds_energy =
      (match (a.yds_energy, b.yds_energy) with
      | Some x, Some y -> Some (x +. y)
      | _ -> None);
  }

let run_sharded ?pool ~shards ~proc ~config jobs =
  if shards < 1 then
    Error (Admission.Invalid "serve: shard count must be >= 1")
  else begin
    let buckets = Array.make shards [] in
    List.iter
      (fun (j : Job.t) ->
        let k = j.id mod shards in
        let k = if k < 0 then k + shards else k in
        buckets.(k) <- j :: buckets.(k))
      jobs;
    let inputs = Array.to_list (Array.map List.rev buckets) in
    let results =
      Rt_parallel.Pool.map ?pool
        (fun bucket -> run ~proc ~config (Source.of_list bucket))
        inputs
    in
    let rec first_error = function
      | [] -> None
      | Error e :: _ -> Some e
      | Ok _ :: tl -> first_error tl
    in
    match first_error results with
    | Some e -> Error e
    | None -> (
        match List.filter_map Result.to_option results with
        | [] -> Error (Admission.Invalid "serve: internal: no shard reports")
        | r :: rest -> Ok (List.fold_left merge2 r rest))
  end

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "jobs seen        %d@," r.seen;
  Format.fprintf ppf "admitted         %d@," (List.length r.outcome.admitted);
  Format.fprintf ppf "declined         %d@," r.declined;
  Format.fprintf ppf "forced-rejected  %d@," r.outcome.forced_rejections;
  Format.fprintf ppf "ingress-shed     %d@," r.shed;
  Format.fprintf ppf "replan-shed      %d@," r.replan_shed;
  Format.fprintf ppf "energy           %.6g@," r.outcome.energy;
  Format.fprintf ppf "penalty          %.6g@," r.outcome.penalty;
  Format.fprintf ppf "objective        %.6g@," r.outcome.total;
  Format.fprintf ppf "lower bound      %.6g@," r.lower_bound;
  (match r.yds_energy with
  | Some e -> Format.fprintf ppf "yds energy       %.6g@," e
  | None -> ());
  Format.fprintf ppf "makespan         %.6g@," r.outcome.makespan;
  List.iter
    (fun tr ->
      let i = Incident.tier_index tr in
      Format.fprintf ppf "tier %-11s %d decisions, %.3gs wall@,"
        (Incident.tier_name tr) r.tier_decisions.(i) r.tier_wall.(i))
    Incident.tiers;
  Format.fprintf ppf "latency          max %.3gs, p99 %.3gs@," r.max_latency
    r.p99_latency;
  Format.fprintf ppf "overload time    %.6g@," r.overload_time;
  (match r.incidents with
  | [] -> Format.fprintf ppf "incidents        none"
  | is ->
      Format.fprintf ppf "incidents        %d@," (List.length is);
      Format.pp_print_list ~pp_sep:Format.pp_print_cut
        (fun ppf i -> Format.fprintf ppf "  %a" Incident.pp i)
        ppf is);
  Format.fprintf ppf "@]"
