module Fc = Rt_prelude.Float_cmp

(* rt_sched: generate a synthetic rejection-scheduling instance, run one or
   all algorithms on it, validate, and show the schedule.

   Examples:
     rt_sched solve --n 12 --m 4 --load 1.6 --alg ltf-ls --gantt
     rt_sched compare --n 10 --m 2 --load 1.4 --exact
     rt_sched describe --n 6 --m 2 --load 1.2
     rt_sched faults -n 12 -m 4 --load 0.8 --fault-rate 0.3
     rt_sched portfolio --n 14 --m 4 --load 1.6 --jobs 4 *)

open Cmdliner

let named_algorithms =
  Rt_core.Greedy.named
  @ [
      ( "ltf-ls",
        Rt_core.Local_search.with_local_search Rt_core.Greedy.ltf_reject );
      ( "marginal-ls",
        Rt_core.Local_search.with_local_search Rt_core.Greedy.marginal_greedy );
      ( "density-ls",
        Rt_core.Local_search.with_local_search Rt_core.Greedy.density_reject );
    ]

let processor_of_name name =
  let enable = Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. } in
  match name with
  | "xscale" -> Ok (Rt_power.Processor.xscale ~dormancy:enable)
  | "xscale-levels" -> Ok (Rt_power.Processor.xscale_levels ~dormancy:enable)
  | "cubic" -> Ok (Rt_power.Processor.cubic ())
  | other -> Error (`Msg ("unknown processor preset: " ^ other))

let penalty_of_name name =
  match List.assoc_opt name Rt_task.Penalty.default_models with
  | Some m -> Ok m
  | None -> Error (`Msg ("unknown penalty model: " ^ name))

let build_instance ~proc_name ~penalty_name ~seed ~n ~m ~load =
  match (processor_of_name proc_name, penalty_of_name penalty_name) with
  | Error e, _ | _, Error e -> Error e
  | Ok proc, Ok penalty_model ->
      Ok
        ( proc,
          Rt_expkit.Instances.frame_instance ~penalty_model ~proc ~seed ~n ~m
            ~load () )

let print_cost p s =
  match Rt_core.Solution.cost p s with
  | Error e -> Printf.printf "  INVALID: %s\n" e
  | Ok c ->
      Printf.printf "  energy %.4f  penalty %.4f  total %.4f  accepted %d/%d\n"
        c.Rt_core.Solution.energy c.Rt_core.Solution.penalty
        c.Rt_core.Solution.total
        (Rt_partition.Partition.size s.Rt_core.Solution.partition)
        (List.length p.Rt_core.Problem.items)

let validation_tag p s =
  match Rt_core.Solution.validate p s with
  | Ok () -> "valid (simulator-checked)"
  | Error e -> "INVALID: " ^ e

let describe proc_name penalty_name seed n m load =
  match build_instance ~proc_name ~penalty_name ~seed ~n ~m ~load with
  | Error e -> Error e
  | Ok (_, p) ->
      Format.printf "%a@." Rt_core.Problem.pp p;
      Ok ()

let solve proc_name penalty_name seed n m load alg_name gantt =
  match build_instance ~proc_name ~penalty_name ~seed ~n ~m ~load with
  | Error e -> Error e
  | Ok (proc, p) -> (
      match List.assoc_opt alg_name named_algorithms with
      | None ->
          Error
            (`Msg
              (Printf.sprintf "unknown algorithm %s (have: %s)" alg_name
                 (String.concat ", " (List.map fst named_algorithms))))
      | Some alg ->
          let s = alg p in
          Printf.printf "algorithm %s on n=%d m=%d load=%.2f (seed %d)\n"
            alg_name n m load seed;
          print_cost p s;
          Printf.printf "  rejected ids: [%s]\n"
            (String.concat "; "
               (List.map string_of_int (Rt_core.Solution.rejected_ids s)));
          Printf.printf "  %s\n" (validation_tag p s);
          if gantt then begin
            match
              Rt_sim.Frame_sim.build ~proc
                ~frame_length:p.Rt_core.Problem.horizon
                s.Rt_core.Solution.partition
            with
            | Ok sim -> print_endline (Rt_sim.Frame_sim.gantt sim)
            | Error e -> Printf.printf "  (no gantt: %s)\n" e
          end;
          Ok ())

(* the OPTIMAL row of [compare --exact], under the oracle node limit *)
let optimal_row p =
  match
    Rt_core.Exact.branch_and_bound_budgeted
      ~node_budget:Rt_exact.Search.node_limit p
  with
  | Error e -> Error (`Msg e)
  | Ok b when b.Rt_core.Exact.exhausted ->
      Error (`Msg "exact search exceeded its node limit")
  | Ok b -> Ok ("OPTIMAL", b.Rt_core.Exact.cost, b.Rt_core.Exact.solution)

let compare_all proc_name penalty_name seed n m load exact =
  match
    Result.bind (build_instance ~proc_name ~penalty_name ~seed ~n ~m ~load)
      (fun (_, p) ->
        if exact then Result.map (fun row -> (p, [ row ])) (optimal_row p)
        else Ok (p, []))
  with
  | Error e -> Error e
  | Ok (p, optimal) ->
      Printf.printf "instance: n=%d m=%d load=%.2f penalties=%s seed=%d\n" n m
        load penalty_name seed;
      let rows =
        List.map
          (fun (name, alg) ->
            let s = alg p in
            (name, Rt_expkit.Instances.solution_total p s, s))
          named_algorithms
        @ optimal
      in
      let table =
        List.fold_left
          (fun t (name, total, s) ->
            Rt_prelude.Tablefmt.add_row t
              [
                name;
                Rt_prelude.Tablefmt.float_cell total;
                string_of_int
                  (Rt_partition.Partition.size s.Rt_core.Solution.partition);
                validation_tag p s;
              ])
          (Rt_prelude.Tablefmt.create
             ~aligns:
               [
                 Rt_prelude.Tablefmt.Left;
                 Rt_prelude.Tablefmt.Right;
                 Rt_prelude.Tablefmt.Right;
                 Rt_prelude.Tablefmt.Left;
               ]
             [ "algorithm"; "total cost"; "accepted"; "validation" ])
          rows
      in
      Rt_prelude.Tablefmt.print table;
      Ok ()

let periodic proc_name seed n m total_util =
  match processor_of_name proc_name with
  | Error e -> Error e
  | Ok proc -> (
      let problem, tasks =
        Rt_expkit.Instances.periodic_instance ~proc ~seed ~n ~m ~total_util ()
      in
      Printf.printf
        "periodic: n=%d m=%d total U=%.2f hyper-period=%g (seed %d)\n" n m
        (Rt_task.Taskset.total_utilization tasks)
        problem.Rt_core.Problem.horizon seed;
      let s =
        Rt_core.Local_search.with_local_search Rt_core.Greedy.ltf_reject
          problem
      in
      print_cost problem s;
      Printf.printf "  %s\n" (validation_tag problem s);
      (* EDF check per core at the clamped sustained speed *)
      let rec per_core core =
        if core = m then Ok ()
        else begin
          let ids =
            List.map
              (fun (it : Rt_task.Task.item) -> it.Rt_task.Task.item_id)
              (Rt_partition.Partition.bucket s.Rt_core.Solution.partition core)
          in
          let core_tasks =
            List.filter
              (fun (t : Rt_task.Task.periodic) ->
                List.mem t.Rt_task.Task.id ids)
              tasks
          in
          if core_tasks = [] then begin
            Printf.printf "  core %d: idle\n" core;
            per_core (core + 1)
          end
          else begin
            let u = Rt_task.Taskset.total_utilization core_tasks in
            let speed =
              Float.min
                (Rt_power.Processor.s_max proc)
                (Float.max u (Rt_power.Processor.critical_speed proc))
            in
            match Rt_sim.Edf_sim.run ~proc ~speed core_tasks with
            | Error e -> Error (`Msg e)
            | Ok o ->
                Printf.printf "  core %d: %d tasks, U=%.3f, EDF %s\n" core
                  (List.length core_tasks) u
                  (if o.Rt_sim.Edf_sim.misses = [] then "clean"
                   else "MISSES!");
                per_core (core + 1)
          end
        end
      in
      match per_core 0 with Error e -> Error e | Ok () -> Ok ())

let online seed n load policy_name =
  let policy =
    match policy_name with
    | "admit-all" -> Ok Rt_online.Admission.Admit_all
    | "profitable" -> Ok Rt_online.Admission.Profitable
    | other -> (
        match float_of_string_opt other with
        | Some theta -> Ok (Rt_online.Admission.Density_threshold theta)
        | None ->
            Error
              (`Msg
                "policy must be admit-all, profitable, or a numeric \
                 threshold"))
  in
  match policy with
  | Error e -> Error e
  | Ok policy -> (
      let proc =
        Rt_power.Processor.xscale
          ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })
      in
      let rng = Rt_prelude.Rng.create ~seed in
      let mean_cycles = 25. in
      let jobs =
        Rt_online.Job.stream rng ~n ~rate:(load /. mean_cycles) ~s_max:1.
          ~mean_cycles ~slack_lo:1.2 ~slack_hi:4. ~penalty_factor:1.3
      in
      match Rt_online.Admission.simulate ~proc ~policy jobs with
      | Error e -> Error (`Msg (Rt_online.Admission.error_to_string e))
      | Ok o ->
          Printf.printf
            "online: %d jobs at offered load %.2f, policy %s (seed %d)\n" n
            load policy_name seed;
          Printf.printf
            "  energy %.1f  penalty %.1f  total %.1f  admitted %d  forced \
             rejections %d\n"
            o.Rt_online.Admission.energy o.Rt_online.Admission.penalty
            o.Rt_online.Admission.total
            (List.length o.Rt_online.Admission.admitted)
            o.Rt_online.Admission.forced_rejections;
          Printf.printf "  clairvoyant lower bound: %.1f (ratio %.2fx)\n"
            (Rt_online.Admission.lower_bound ~proc jobs)
            (o.Rt_online.Admission.total
            /. Float.max 1e-9 (Rt_online.Admission.lower_bound ~proc jobs));
          Ok ())

(* Resolve a worker-domain count: --jobs beats RT_JOBS beats 1. A count
   of 1 means "no pool" — run on the calling domain without spawning.
   Validation lives in Pool.resolve_jobs so both --jobs 0 and a
   malformed RT_JOBS (e.g. RT_JOBS=abc) fail with one clear message
   instead of a parse backtrace. *)
let with_jobs jobs f =
  match Rt_parallel.Pool.resolve_jobs ?jobs () with
  | Error msg -> Error (`Msg msg)
  | Ok 1 -> f None
  | Ok domains -> Rt_parallel.Pool.with_pool ~domains (fun pool -> f (Some pool))

let parse_policy policy_name =
  match policy_name with
  | "admit-all" -> Ok Rt_online.Admission.Admit_all
  | "profitable" -> Ok Rt_online.Admission.Profitable
  | other -> (
      match float_of_string_opt other with
      | Some theta -> Ok (Rt_online.Admission.Density_threshold theta)
      | None ->
          Error
            (`Msg
              "policy must be admit-all, profitable, or a numeric threshold"))

(* --fault grammar: derate:FACTOR@TIME, crash:PROC@TIME,
   overrun:JOB:FACTOR@TIME — TIME is the stream time the fault strikes
   the running service. *)
let parse_timed_fault s =
  let fail () =
    Error
      (`Msg
        (Printf.sprintf
           "fault %S: expected derate:FACTOR@T, crash:PROC@T, or \
            overrun:JOB:FACTOR@T"
           s))
  in
  match String.index_opt s '@' with
  | None -> fail ()
  | Some i -> (
      let body = String.sub s 0 i in
      let at_s = String.sub s (i + 1) (String.length s - i - 1) in
      match float_of_string_opt at_s with
      | None -> fail ()
      | Some at -> (
          match String.split_on_char ':' body with
          | [ "derate"; f ] -> (
              match float_of_string_opt f with
              | Some factor ->
                  Ok
                    {
                      Rt_fault.Fault.at;
                      fault = Rt_fault.Fault.Speed_derate { factor };
                    }
              | None -> fail ())
          | [ "crash"; p ] -> (
              match int_of_string_opt p with
              | Some proc ->
                  Ok
                    {
                      Rt_fault.Fault.at;
                      fault = Rt_fault.Fault.Proc_crash { proc; at };
                    }
              | None -> fail ())
          | [ "overrun"; id; f ] -> (
              match (int_of_string_opt id, float_of_string_opt f) with
              | Some task_id, Some factor ->
                  Ok
                    {
                      Rt_fault.Fault.at;
                      fault = Rt_fault.Fault.Wcec_overrun { task_id; factor };
                    }
              | _ -> fail ())
          | _ -> fail ()))

let serve seed n rate_load policy_name m shards queue_cap decision_rate
    latency_budget theta window trace_file fault_specs yds jobs =
  match parse_policy policy_name with
  | Error e -> Error e
  | Ok policy -> (
      let faults =
        List.fold_left
          (fun acc s ->
            match (acc, parse_timed_fault s) with
            | (Error _ as e), _ -> e
            | _, (Error _ as e) -> e
            | Ok fs, Ok f -> Ok (f :: fs))
          (Ok []) fault_specs
      in
      match faults with
      | Error e -> Error e
      | Ok faults -> (
          let faults = List.rev faults in
          let proc =
            Rt_power.Processor.xscale
              ~dormancy:
                (Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })
          in
          let config =
            {
              Rt_serve.Serve.policy;
              m;
              queue_capacity = queue_cap;
              decision_rate;
              watchdog =
                Option.map
                  (fun b ->
                    { Rt_serve.Serve.latency_budget = b; recover_after = 32 })
                  latency_budget;
              degraded_theta = theta;
              overload =
                Option.map
                  (fun w ->
                    {
                      Rt_serve.Serve.window = w;
                      enter_above = 1.;
                      exit_below = 0.75;
                    })
                  window;
              faults;
              yds_bound = yds;
            }
          in
          let mean_cycles = 25. in
          let source =
            match trace_file with
            | Some path -> Rt_serve.Source.of_trace_file path
            | None ->
                Ok
                  (Rt_serve.Source.synthetic ~seed ~limit:n
                     ~rate:(rate_load /. mean_cycles) ~s_max:1. ~mean_cycles
                     ~slack_lo:1.2 ~slack_hi:4. ~penalty_factor:1.3 ())
          in
          match source with
          | Error msg -> Error (`Msg msg)
          | Ok source -> (
              let show = function
                | Error e ->
                    Error (`Msg (Rt_online.Admission.error_to_string e))
                | Ok r ->
                    Printf.printf "serve: policy %s, m=%d, %d shard%s\n"
                      policy_name m shards (if shards = 1 then "" else "s");
                    Format.printf "%a@." Rt_serve.Serve.pp_report r;
                    Ok ()
              in
              if shards <= 1 then
                show (Rt_serve.Serve.run ~proc ~config source)
              else begin
                (* sharding needs the whole stream to route by id *)
                let rec drain acc =
                  match Rt_serve.Source.next source with
                  | Error msg -> Error (`Msg msg)
                  | Ok None -> Ok (List.rev acc)
                  | Ok (Some j) -> drain (j :: acc)
                in
                match drain [] with
                | Error e -> Error e
                | Ok jobs_list ->
                    with_jobs jobs (fun pool ->
                        show
                          (Rt_serve.Serve.run_sharded ?pool ~shards ~proc
                             ~config jobs_list))
              end)))

let faults proc_name penalty_name seed n m load fault_rate =
  if Fc.exact_lt fault_rate 0. || Fc.exact_gt fault_rate 1. then
    Error (`Msg "fault-rate must be in [0, 1]")
  else
    match build_instance ~proc_name ~penalty_name ~seed ~n ~m ~load with
    | Error e -> Error e
    | Ok (_, p) ->
        let baseline = Rt_core.Greedy.ltf_reject p in
        let rates =
          {
            Rt_fault.Fault.overrun_prob = fault_rate;
            overrun_factor = 1.5;
            crash_prob = fault_rate;
            derate_prob = fault_rate;
            derate_factor = 0.8;
          }
        in
        let rng = Rt_prelude.Rng.create ~seed:((seed * 7919) + 17) in
        let sc =
          Rt_fault.Fault.gen rng rates
            ~task_ids:
              (List.map
                 (fun (it : Rt_task.Task.item) -> it.Rt_task.Task.item_id)
                 p.Rt_core.Problem.items)
            ~m ~horizon:p.Rt_core.Problem.horizon
        in
        Printf.printf "faults: n=%d m=%d load=%.2f fault-rate=%.2f (seed %d)\n"
          n m load fault_rate seed;
        Format.printf "  scenario: %a@." Rt_fault.Fault.pp sc;
        let rows =
          List.filter_map
            (fun policy ->
              match Rt_fault.Degrade.recover_frame p sc ~baseline policy with
              | Error e ->
                  Printf.printf "  %s failed: %s\n"
                    (Rt_fault.Degrade.policy_name policy)
                    e;
                  None
              | Ok r -> Some (policy, r))
            Rt_fault.Degrade.all_policies
        in
        let table =
          List.fold_left
            (fun t (policy, (r : Rt_fault.Degrade.report)) ->
              Rt_prelude.Tablefmt.add_row t
                [
                  Rt_fault.Degrade.policy_name policy;
                  string_of_int (List.length r.Rt_fault.Degrade.misses);
                  string_of_int (List.length r.Rt_fault.Degrade.shed);
                  Rt_prelude.Tablefmt.float_cell r.Rt_fault.Degrade.extra_penalty;
                  Rt_prelude.Tablefmt.float_cell r.Rt_fault.Degrade.energy_faulty;
                  Rt_prelude.Tablefmt.float_cell r.Rt_fault.Degrade.energy_delta;
                ])
            (Rt_prelude.Tablefmt.create
               ~aligns:
                 [
                   Rt_prelude.Tablefmt.Left;
                   Rt_prelude.Tablefmt.Right;
                   Rt_prelude.Tablefmt.Right;
                   Rt_prelude.Tablefmt.Right;
                   Rt_prelude.Tablefmt.Right;
                   Rt_prelude.Tablefmt.Right;
                 ]
               [
                 "policy";
                 "misses";
                 "shed";
                 "extra penalty";
                 "energy (faulty)";
                 "energy delta";
               ])
            rows
        in
        Rt_prelude.Tablefmt.print table;
        Ok ()

let qos proc_name penalty_name seed n m load steps curve =
  match build_instance ~proc_name ~penalty_name ~seed ~n ~m ~load with
  | Error e -> Error e
  | Ok (proc, base) -> (
      let empty =
        Rt_core.Problem.make ~proc ~m ~horizon:base.Rt_core.Problem.horizon []
      in
      match empty with
      | Error e -> Error (`Msg e)
      | Ok p ->
          Printf.printf "qos: n=%d m=%d load=%.2f, %d-level menus, curve %.1f\n"
            n m load steps curve;
          List.iter
            (fun (name, tasks) ->
              let s = Rt_core.Qos.greedy_degrade p tasks in
              match Rt_core.Qos.cost p tasks s with
              | Error e -> Printf.printf "  %-8s failed: %s\n" name e
              | Ok total ->
                  (* classify by the chosen level's weight, so binary and
                     graceful menus are counted the same way *)
                  let weight_of c =
                    match
                      List.find_opt
                        (fun t -> t.Rt_core.Qos.id = c.Rt_core.Qos.task_id)
                        tasks
                    with
                    | None -> 0.
                    | Some t ->
                        (List.nth t.Rt_core.Qos.levels c.Rt_core.Qos.level_index)
                          .Rt_core.Qos.weight
                  in
                  let full_of c =
                    match
                      List.find_opt
                        (fun t -> t.Rt_core.Qos.id = c.Rt_core.Qos.task_id)
                        tasks
                    with
                    | None -> 0.
                    | Some t -> (List.hd t.Rt_core.Qos.levels).Rt_core.Qos.weight
                  in
                  let dropped =
                    List.length
                      (List.filter
                         (fun c -> Fc.exact_eq (weight_of c) 0.)
                         s.Rt_core.Qos.choices)
                  in
                  let degraded =
                    List.length
                      (List.filter
                         (fun c ->
                           let w = weight_of c in
                           Fc.exact_gt w 0. && Fc.exact_lt w (full_of c))
                         s.Rt_core.Qos.choices)
                  in
                  Printf.printf
                    "  %-8s total %.1f   degraded %d   dropped %d\n" name
                    total degraded dropped)
            [
              ( "binary",
                List.map Rt_core.Qos.of_item base.Rt_core.Problem.items );
              ( "graceful",
                List.map
                  (Rt_core.Qos.graceful ~steps ~curve)
                  base.Rt_core.Problem.items );
            ];
          Ok ())

let portfolio proc_name penalty_name seed n m load node_budget time_budget
    jobs =
  match build_instance ~proc_name ~penalty_name ~seed ~n ~m ~load with
  | Error e -> Error e
  | Ok (_, p) ->
      with_jobs jobs (fun pool ->
          match
            Rt_core.Portfolio.run ?pool ?node_budget ?time_budget p
          with
          | Error e -> Error (`Msg e)
          | Ok o ->
              Printf.printf
                "portfolio on n=%d m=%d load=%.2f (seed %d, %d domain%s)\n" n
                m load seed
                (match pool with
                | None -> 1
                | Some pl -> Rt_parallel.Pool.size pl)
                (match pool with Some pl when Rt_parallel.Pool.size pl > 1 -> "s" | _ -> "");
              let table =
                List.fold_left
                  (fun t (st : Rt_core.Portfolio.stat) ->
                    Rt_prelude.Tablefmt.add_row t
                      [
                        st.Rt_core.Portfolio.name;
                        (match st.Rt_core.Portfolio.cost with
                        | None -> "-"
                        | Some c -> Rt_prelude.Tablefmt.float_cell c);
                        Printf.sprintf "%.1f"
                          (1e3 *. st.Rt_core.Portfolio.wall);
                        string_of_int st.Rt_core.Portfolio.nodes;
                        (if st.Rt_core.Portfolio.exhausted then "yes"
                         else "");
                      ])
                  (Rt_prelude.Tablefmt.create
                     ~aligns:
                       [
                         Rt_prelude.Tablefmt.Left;
                         Rt_prelude.Tablefmt.Right;
                         Rt_prelude.Tablefmt.Right;
                         Rt_prelude.Tablefmt.Right;
                         Rt_prelude.Tablefmt.Left;
                       ]
                     [ "entrant"; "cost"; "wall ms"; "nodes"; "exhausted" ])
                  o.Rt_core.Portfolio.stats
              in
              Rt_prelude.Tablefmt.print table;
              Printf.printf "winner: %s  total %.4f\n"
                o.Rt_core.Portfolio.winner o.Rt_core.Portfolio.cost;
              print_cost p o.Rt_core.Portfolio.solution;
              Printf.printf "  %s\n"
                (validation_tag p o.Rt_core.Portfolio.solution);
              Ok ())

let exact proc_name penalty_name seed n m load node_budget time_budget jobs =
  match build_instance ~proc_name ~penalty_name ~seed ~n ~m ~load with
  | Error e -> Error e
  | Ok (_, p) ->
      with_jobs jobs (fun pool ->
          let t0 = Rt_prelude.Clock.now () in
          match
            Rt_core.Exact.branch_and_bound_budgeted ?pool ?node_budget
              ?time_budget p
          with
          | Error e -> Error (`Msg e)
          | Ok b ->
              let wall = Rt_prelude.Clock.elapsed ~since:t0 in
              let st = b.Rt_core.Exact.stats in
              (match pool with
              | None ->
                  Printf.printf
                    "sequential exact search on n=%d m=%d load=%.2f (seed %d)\n\
                    \  wall %.1f ms   nodes %d\n"
                    n m load seed (1e3 *. wall) b.Rt_core.Exact.nodes
              | Some pl ->
                  Printf.printf
                    "work-stealing exact search on n=%d m=%d load=%.2f (seed \
                     %d, %d domains)\n\
                    \  wall %.1f ms   nodes %d   splits %d   subtree drops %d   \
                     steals per domain [%s]\n"
                    n m load seed (Rt_parallel.Pool.size pl)
                    (1e3 *. wall) b.Rt_core.Exact.nodes
                    st.Rt_exact.Search.splits st.Rt_exact.Search.pruned
                    (String.concat "; "
                       (List.map string_of_int st.Rt_exact.Search.steals)));
              if b.Rt_core.Exact.exhausted then
                print_endline
                  "  budget exhausted: best incumbent, not a proven optimum";
              print_cost p b.Rt_core.Exact.solution;
              Printf.printf "  %s\n" (validation_tag p b.Rt_core.Exact.solution);
              Ok ())

let fuzz seed count time_budget corpus_dir jobs =
  let config =
    {
      Rt_check.Fuzz.default_config with
      Rt_check.Fuzz.seed;
      count;
      time_budget;
    }
  in
  let run pool =
    let report = Rt_check.Fuzz.run ?pool ~config () in
    print_string (Rt_check.Fuzz.summary report);
    Ok report
  in
  match with_jobs jobs run with
  | Error e -> Error e
  | Ok report -> (
      match report.Rt_check.Fuzz.failures with
      | [] -> Ok ()
      | failures ->
          (match corpus_dir with
          | None -> ()
          | Some dir ->
              List.iteri
                (fun i f ->
                  let name = Printf.sprintf "fuzz-seed%d-%02d" seed i in
                  match
                    Rt_check.Corpus.save ~dir
                      (Rt_check.Fuzz.failure_entry ~name f)
                  with
                  | Ok path -> Printf.printf "  saved %s\n" path
                  | Error e -> Printf.printf "  %s\n" e)
                failures);
          Error
            (`Msg
              (Printf.sprintf "fuzz found %d failure(s)"
                 (List.length failures))))

let lint paths rules format require_cmts =
  let roots =
    if paths = [] then [ "lib"; "bin"; "bench"; "examples" ] else paths
  in
  match List.find_opt (fun r -> not (Sys.file_exists r)) roots with
  | Some r -> Error (`Msg ("no such file or directory: " ^ r))
  | None -> (
      let findings =
        Rt_lint_core.Lint_core.lint_paths ~require_cmts roots
      in
      let findings =
        match rules with
        | [] -> findings
        | rules ->
            List.filter
              (fun (f : Rt_lint_core.Lint_core.finding) ->
                List.mem f.Rt_lint_core.Lint_core.rule rules)
              findings
      in
      print_string (Rt_lint_core.Report.render format findings);
      (* note-level findings are informational; only errors and
         warnings fail the command *)
      match
        List.length (List.filter Rt_lint_core.Finding.gates findings)
      with
      | 0 -> Ok ()
      | n -> Error (`Msg (Printf.sprintf "%d lint issue(s) found" n)))

(* ---------------------------------------------------------------- *)

let proc_arg =
  Arg.(
    value & opt string "xscale"
    & info [ "proc" ] ~docv:"PRESET"
        ~doc:"Processor preset: xscale, xscale-levels, or cubic.")

let penalty_arg =
  Arg.(
    value & opt string "proportional"
    & info [ "penalties" ] ~docv:"MODEL"
        ~doc:"Penalty model: uniform, proportional, inverse, bimodal.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let n_arg = Arg.(value & opt int 12 & info [ "n" ] ~doc:"Number of tasks.")
let m_arg = Arg.(value & opt int 4 & info [ "m" ] ~doc:"Number of processors.")

let load_arg =
  Arg.(
    value & opt float 1.5
    & info [ "load" ] ~doc:"Normalized system load (1.0 = full capacity).")

let alg_arg =
  Arg.(
    value & opt string "ltf-ls"
    & info [ "alg" ] ~docv:"NAME" ~doc:"Algorithm to run (see compare).")

let gantt_arg =
  Arg.(value & flag & info [ "gantt" ] ~doc:"Print the frame schedule.")

let exact_arg =
  Arg.(
    value & flag
    & info [ "exact" ] ~doc:"Also run the exponential exact solver.")

let describe_cmd =
  Cmd.v
    (Cmd.info "describe" ~doc:"print a generated instance")
    Term.(
      term_result
        (const describe $ proc_arg $ penalty_arg $ seed_arg $ n_arg $ m_arg
       $ load_arg))

let solve_cmd =
  Cmd.v
    (Cmd.info "solve" ~doc:"run one algorithm on a generated instance")
    Term.(
      term_result
        (const solve $ proc_arg $ penalty_arg $ seed_arg $ n_arg $ m_arg
       $ load_arg $ alg_arg $ gantt_arg))

let compare_cmd =
  Cmd.v
    (Cmd.info "compare" ~doc:"run every algorithm on a generated instance")
    Term.(
      term_result
        (const compare_all $ proc_arg $ penalty_arg $ seed_arg $ n_arg $ m_arg
       $ load_arg $ exact_arg))

let util_arg =
  Arg.(
    value & opt float 5.
    & info [ "util" ] ~doc:"Total utilization of the periodic task set.")

let load_online_arg =
  Arg.(
    value & opt float 1.4
    & info [ "rate-load" ]
        ~doc:"Offered load of the job stream (1.0 = capacity).")

let policy_arg =
  Arg.(
    value & opt string "profitable"
    & info [ "policy" ]
        ~doc:
          "Admission policy: admit-all, profitable, or a numeric \
           penalty-per-cycle threshold.")

let steps_arg =
  Arg.(value & opt int 4 & info [ "steps" ] ~doc:"Service levels per task.")

let curve_arg =
  Arg.(
    value & opt float 2.
    & info [ "curve" ] ~doc:"Penalty-loss exponent (>1: early losses cheap).")

let periodic_cmd =
  Cmd.v
    (Cmd.info "periodic"
       ~doc:"solve a periodic instance and EDF-check every core")
    Term.(
      term_result
        (const periodic $ proc_arg $ seed_arg $ n_arg $ m_arg $ util_arg))

let online_cmd =
  Cmd.v
    (Cmd.info "online" ~doc:"simulate online admission on a job stream")
    Term.(
      term_result
        (const online $ seed_arg $ n_arg $ load_online_arg $ policy_arg))

let qos_cmd =
  Cmd.v
    (Cmd.info "qos"
       ~doc:"compare binary rejection against graceful QoS degradation")
    Term.(
      term_result
        (const qos $ proc_arg $ penalty_arg $ seed_arg $ n_arg $ m_arg
       $ load_arg $ steps_arg $ curve_arg))

let fault_rate_arg =
  Arg.(
    value & opt float 0.15
    & info [ "fault-rate" ]
        ~doc:
          "Per-task overrun / per-processor crash / platform derate \
           probability, in [0,1].")

let faults_cmd =
  Cmd.v
    (Cmd.info "faults"
       ~doc:"inject a seeded fault scenario and compare degradation policies")
    Term.(
      term_result
        (const faults $ proc_arg $ penalty_arg $ seed_arg $ n_arg $ m_arg
       $ load_arg $ fault_rate_arg))

let serve_n_arg =
  Arg.(
    value & opt int 10_000
    & info [ "n" ] ~doc:"Jobs to draw from the synthetic stream.")

let serve_m_arg =
  Arg.(value & opt int 1 & info [ "m" ] ~doc:"Number of processors.")

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"K"
        ~doc:
          "Service replicas; jobs are routed by id mod $(docv) and the \
           reports merged. Byte-stable for any --jobs value.")

let queue_cap_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "queue-cap" ] ~docv:"N"
        ~doc:
          "Ingress queue capacity; overflow sheds the cheapest \
           penalty-per-cycle undecided jobs (default: unbounded).")

let decision_rate_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "decision-rate" ] ~docv:"R"
        ~doc:
          "Admission decisions per stream-time unit (default: \
           instantaneous — the ingress queue never builds up).")

let latency_budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "latency-budget" ] ~docv:"SECONDS"
        ~doc:
          "Watchdog: wall-clock budget per admission decision; blowing \
           it degrades the admission tier (default: no watchdog).")

let theta_arg =
  Arg.(
    value & opt float 0.
    & info [ "theta" ]
        ~doc:"Penalty-per-cycle threshold of the degraded tier.")

let overload_window_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "overload-window" ] ~docv:"T"
        ~doc:
          "Sliding-window length for the offered-load estimator \
           (default: no overload detection).")

let trace_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Serve this trace file (id arrival cycles deadline penalty per \
           line) instead of the synthetic stream.")

let fault_spec_arg =
  Arg.(
    value & opt_all string []
    & info [ "fault" ] ~docv:"SPEC"
        ~doc:
          "Inject a fault into the running service (repeatable): \
           derate:FACTOR@T, crash:PROC@T, or overrun:JOB:FACTOR@T.")

let yds_arg =
  Arg.(
    value & flag
    & info [ "yds" ]
        ~doc:
          "Also compute the YDS offline-optimal energy of the admitted \
           set. Needs -m 1 and an ideal processor. Typical streams cost \
           O(n^3) in the admitted count, under 1 s at n = 1000; \
           intensity ties within 1e-15 go to the earliest window.")

(* RT_JOBS is read by Pool.resolve_jobs, not by cmdliner's ~env: the
   pool validates it and reports a malformed value ("RT_JOBS: job count
   must be ...") instead of a generic option-parse failure. *)
let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel solving (default: the RT_JOBS \
           environment variable, else 1). Results are byte-identical at \
           any value; only wall time changes.")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "stream jobs through the overload-resilient admission service \
          (bounded ingress, watchdog tiers, live fault injection)")
    Term.(
      term_result
        (const serve $ seed_arg $ serve_n_arg $ load_online_arg $ policy_arg
       $ serve_m_arg $ shards_arg $ queue_cap_arg $ decision_rate_arg
       $ latency_budget_arg $ theta_arg $ overload_window_arg $ trace_arg
       $ fault_spec_arg $ yds_arg $ jobs_arg))

let node_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "node-budget" ] ~docv:"NODES"
        ~doc:"Node budget for the exact entrant (per subtree).")

let portfolio_time_budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "time-budget" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget (monotonic) for the exact entrant; the \
           heuristics always run to completion.")

let portfolio_cmd =
  Cmd.v
    (Cmd.info "portfolio"
       ~doc:
         "race the greedy family against budgeted exact search, sharing \
          the incumbent bound")
    Term.(
      term_result
        (const portfolio $ proc_arg $ penalty_arg $ seed_arg $ n_arg $ m_arg
       $ load_arg $ node_budget_arg $ portfolio_time_budget_arg $ jobs_arg))

let exact_time_budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "time-budget" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget (monotonic) shared by all domains; on expiry \
           the pending subtrees are dropped unrun and the incumbent is \
           returned.")

let exact_cmd =
  Cmd.v
    (Cmd.info "exact"
       ~doc:
         "run the exact branch-and-bound, by work stealing with --jobs > 1 \
          (deterministic: a completed run returns the same solution at any \
          domain count)")
    Term.(
      term_result
        (const exact $ proc_arg $ penalty_arg $ seed_arg $ n_arg $ m_arg
       $ load_arg $ node_budget_arg $ exact_time_budget_arg $ jobs_arg))

let count_arg =
  Arg.(
    value
    & opt int Rt_check.Fuzz.default_config.Rt_check.Fuzz.count
    & info [ "count" ] ~doc:"Instances to generate.")

let fuzz_seed_arg =
  Arg.(
    value
    & opt int Rt_check.Fuzz.default_config.Rt_check.Fuzz.seed
    & info [ "seed" ] ~doc:"Base seed; every instance derives from it.")

let time_budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "time-budget" ] ~docv:"SECONDS"
        ~doc:
          "Stop generating new instances after this many wall-clock \
           seconds (monotonic).")

let corpus_dir_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "corpus-dir" ] ~docv:"DIR"
        ~doc:
          "Save each minimized failure as a corpus entry in this \
           (existing) directory.")

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "cross-check every heuristic against the exact solvers, the \
          simulators and the metamorphic laws on seeded random instances")
    Term.(
      term_result
        (const fuzz $ fuzz_seed_arg $ count_arg $ time_budget_arg
       $ corpus_dir_arg $ jobs_arg))

let lint_paths_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"PATH"
        ~doc:
          "Files or directories to lint (default: lib bin bench examples).")

let lint_rule_arg =
  Arg.(
    value & opt_all string []
    & info [ "rule" ] ~docv:"ID"
        ~doc:"Only report findings of rule $(docv) (repeatable).")

let lint_format_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("text", Rt_lint_core.Report.Text);
             ("json", Rt_lint_core.Report.Json);
             ("sarif", Rt_lint_core.Report.Sarif);
           ])
        Rt_lint_core.Report.Text
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:"Output format: text, json, or sarif.")

let lint_require_cmts_arg =
  Arg.(
    value & flag
    & info [ "require-cmts" ]
        ~doc:
          "Report sources whose typed pass could not run instead of \
           silently skipping them.")

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "run the repo's typedtree-based static analysis (float \
          comparisons, determinism, units of measure)")
    Term.(
      term_result
        (const lint $ lint_paths_arg $ lint_rule_arg $ lint_format_arg
       $ lint_require_cmts_arg))

let cmd =
  Cmd.group
    (Cmd.info "rt_sched" ~version:"1.0.0"
       ~doc:"energy-efficient real-time scheduling with task rejection")
    [
      describe_cmd;
      solve_cmd;
      compare_cmd;
      periodic_cmd;
      online_cmd;
      serve_cmd;
      qos_cmd;
      faults_cmd;
      exact_cmd;
      portfolio_cmd;
      fuzz_cmd;
      lint_cmd;
    ]

let () = exit (Cmd.eval cmd)
