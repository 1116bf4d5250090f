(* Tests for rt_fault: scenario accessors and validation, injected
   simulation semantics, and the degradation policies' recovery
   guarantees on small deterministic instances. *)

open Rt_power
open Rt_task
open Rt_fault

let check_float eps = Alcotest.(check (float eps))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_ids = Alcotest.(check (list int))

let xscale =
  Processor.xscale ~dormancy:(Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })

let levels = Processor.xscale_levels ~dormancy:Processor.Dormant_disable

let items_of weights =
  List.mapi (fun id w -> Task.item ~id ~weight:w ~penalty:1. ()) weights

let ok_exn = function Ok v -> v | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Fault scenarios *)

let test_scenario_accessors () =
  let sc =
    [
      Fault.Wcec_overrun { task_id = 3; factor = 1.5 };
      Fault.Wcec_overrun { task_id = 3; factor = 2. };
      Fault.Proc_crash { proc = 1; at = 5. };
      Fault.Proc_crash { proc = 1; at = 2. };
      Fault.Speed_derate { factor = 0.9 };
      Fault.Speed_derate { factor = 0.8 };
    ]
  in
  check_float 1e-12 "overrun composes" 3. (Fault.overrun_factor sc 3);
  check_float 1e-12 "no overrun" 1. (Fault.overrun_factor sc 0);
  check_bool "earliest crash wins" true (Fault.crash_time sc 1 = Some 2.);
  check_bool "no crash" true (Fault.crash_time sc 0 = None);
  check_float 1e-12 "harshest derate wins" 0.8 (Fault.derate sc);
  check_ids "survivors" [ 0; 2 ] (Fault.surviving sc ~m:3);
  check_bool "valid" true (Fault.validate ~m:3 sc = Ok ())

let test_scenario_validate_rejects () =
  let bad sc = Result.is_error (Fault.validate ~m:2 sc) in
  check_bool "zero overrun" true
    (bad [ Fault.Wcec_overrun { task_id = 0; factor = 0. } ]);
  check_bool "nan overrun" true
    (bad [ Fault.Wcec_overrun { task_id = 0; factor = Float.nan } ]);
  check_bool "proc out of range" true
    (bad [ Fault.Proc_crash { proc = 2; at = 1. } ]);
  check_bool "negative crash time" true
    (bad [ Fault.Proc_crash { proc = 0; at = -1. } ]);
  check_bool "derate above 1" true
    (bad [ Fault.Speed_derate { factor = 1.1 } ])

let test_derated_proc_ideal () =
  let sc = [ Fault.Speed_derate { factor = 0.5 } ] in
  let p = ok_exn (Fault.derated_proc sc xscale) in
  check_float 1e-9 "s_max halved" 0.5 (Processor.s_max p)

let test_derated_proc_levels () =
  (* xscale levels: 0.15 0.4 0.6 0.8 1.0; derate 0.7 keeps up to 0.6 *)
  let sc = [ Fault.Speed_derate { factor = 0.7 } ] in
  let p = ok_exn (Fault.derated_proc sc levels) in
  check_float 1e-9 "top surviving level" 0.6 (Processor.s_max p);
  let sc_kill = [ Fault.Speed_derate { factor = 0.1 } ] in
  check_bool "all levels lost is an error" true
    (Result.is_error (Fault.derated_proc sc_kill levels))

let test_gen_deterministic () =
  let draw () =
    let rng = Rt_prelude.Rng.create ~seed:42 in
    Fault.gen rng
      { Fault.overrun_prob = 0.5; overrun_factor = 1.5; crash_prob = 0.5;
        derate_prob = 0.5; derate_factor = 0.8 }
      ~task_ids:[ 0; 1; 2; 3 ] ~m:3 ~horizon:100.
  in
  check_bool "same seed, same scenario" true (draw () = draw ());
  (* never crashes every processor *)
  for seed = 0 to 50 do
    let rng = Rt_prelude.Rng.create ~seed in
    let sc =
      Fault.gen rng
        { Fault.overrun_prob = 0.; overrun_factor = 1.5; crash_prob = 1.;
          derate_prob = 0.; derate_factor = 0.8 }
        ~task_ids:[] ~m:4 ~horizon:10.
    in
    check_bool "a survivor remains" true (Fault.surviving sc ~m:4 <> [])
  done

(* ------------------------------------------------------------------ *)
(* Injected frame simulation *)

let frame_sim ~proc ~m ~frame_length buckets =
  let arr = Array.make m [] in
  List.iteri (fun j b -> arr.(j) <- b) buckets;
  ok_exn
    (Rt_sim.Frame_sim.build ~proc ~frame_length
       (Rt_partition.Partition.of_buckets arr))

let test_frame_injection_identity () =
  let sim = frame_sim ~proc:xscale ~m:2 ~frame_length:10.
      [ items_of [ 0.3; 0.2 ]; [ Task.item ~id:5 ~weight:0.4 () ] ]
  in
  let rep =
    ok_exn (Rt_sim.Frame_sim.run_injected ~inject:Rt_sim.Frame_sim.no_injection sim)
  in
  check_ids "no misses" [] rep.Rt_sim.Frame_sim.missed;
  check_float 1e-6 "nominal energy" sim.Rt_sim.Frame_sim.total_energy
    rep.Rt_sim.Frame_sim.faulty_energy;
  check_float 1e-12 "no dead time" 0. rep.Rt_sim.Frame_sim.dead_time

let test_frame_injection_crash () =
  let sim = frame_sim ~proc:xscale ~m:2 ~frame_length:10.
      [ items_of [ 0.5 ]; [ Task.item ~id:7 ~weight:0.5 () ] ]
  in
  (* processor 0 dies at t=0: its only task cannot run *)
  let rep =
    ok_exn
      (Rt_sim.Frame_sim.run_injected
         ~inject:
           { Rt_sim.Frame_sim.no_injection with crash = (fun j -> if j = 0 then Some 0. else None) }
         sim)
  in
  check_ids "task on crashed proc misses" [ 0 ] rep.Rt_sim.Frame_sim.missed;
  check_float 1e-12 "dead time is the whole frame" 10.
    rep.Rt_sim.Frame_sim.dead_time

let test_frame_injection_overrun () =
  let sim = frame_sim ~proc:xscale ~m:1 ~frame_length:10.
      [ items_of [ 0.5; 0.3 ] ]
  in
  (* task 0 needs 1.5x its cycles; the plan only delivers 1.0x *)
  let rep =
    ok_exn
      (Rt_sim.Frame_sim.run_injected
         ~inject:
           { Rt_sim.Frame_sim.no_injection with
             overrun = (fun id -> if id = 0 then 1.5 else 1.) }
         sim)
  in
  check_ids "overrun task misses" [ 0 ] rep.Rt_sim.Frame_sim.missed

let test_frame_injection_derate () =
  let sim = frame_sim ~proc:xscale ~m:1 ~frame_length:10.
      [ items_of [ 0.8 ] ]
  in
  (* plan runs at 0.8; capped to 0.4 only half the cycles arrive *)
  let rep =
    ok_exn
      (Rt_sim.Frame_sim.run_injected
         ~inject:{ Rt_sim.Frame_sim.no_injection with speed_cap = Some 0.4 }
         sim)
  in
  check_ids "derated task misses" [ 0 ] rep.Rt_sim.Frame_sim.missed;
  (match rep.Rt_sim.Frame_sim.delivered with
  | [ (0, cycles) ] -> check_float 1e-6 "half the cycles" 4. cycles
  | _ -> Alcotest.fail "unexpected delivered shape");
  check_bool "validation rejects bad factors" true
    (Result.is_error
       (Rt_sim.Frame_sim.run_injected
          ~inject:{ Rt_sim.Frame_sim.no_injection with speed_cap = Some 0. }
          sim))

(* ------------------------------------------------------------------ *)
(* Injected EDF simulation *)

let periodic_tasks =
  [
    Task.periodic ~id:0 ~cycles:2 ~period:10 ~penalty:1. ();
    Task.periodic ~id:1 ~cycles:3 ~period:20 ~penalty:1. ();
  ]

let test_edf_injection_identity () =
  let base =
    ok_exn (Rt_sim.Edf_sim.run ~proc:xscale ~speed:0.5 periodic_tasks)
  in
  let inj =
    ok_exn
      (Rt_sim.Edf_sim.run ~proc:xscale ~speed:0.5
         ~inject:Rt_sim.Edf_sim.no_injection periodic_tasks)
  in
  check_int "same misses" 0 (List.length inj.Rt_sim.Edf_sim.misses);
  check_float 1e-9 "same busy time" base.Rt_sim.Edf_sim.busy_time
    inj.Rt_sim.Edf_sim.busy_time;
  check_float 1e-9 "same energy" base.Rt_sim.Edf_sim.exec_energy
    inj.Rt_sim.Edf_sim.exec_energy

let test_edf_injection_crash () =
  (* crash at t=0: every job within the horizon misses *)
  let o =
    ok_exn
      (Rt_sim.Edf_sim.run ~proc:xscale ~speed:0.5
         ~inject:{ Rt_sim.Edf_sim.no_injection with crash_at = Some 0. }
         periodic_tasks)
  in
  (* hyper-period 20: task 0 has 2 jobs, task 1 has 1 *)
  check_int "all jobs miss" 3 (List.length o.Rt_sim.Edf_sim.misses);
  check_float 1e-12 "nothing executed" 0. o.Rt_sim.Edf_sim.busy_time

let test_edf_injection_overrun_feasible () =
  (* utilization 0.35; 1.5x overrun needs 0.525 <= speed 0.6: still meets *)
  let o =
    ok_exn
      (Rt_sim.Edf_sim.run ~proc:xscale ~speed:0.6
         ~inject:{ Rt_sim.Edf_sim.no_injection with overrun = (fun _ -> 1.5) }
         periodic_tasks)
  in
  check_int "no misses under absorbed overrun" 0
    (List.length o.Rt_sim.Edf_sim.misses)

let test_edf_injection_derate_misses () =
  (* utilization 0.35 at commanded speed 0.4 is fine; capped to 0.2 the
     processor is overloaded and misses appear *)
  let o =
    ok_exn
      (Rt_sim.Edf_sim.run ~proc:xscale ~speed:0.4
         ~inject:{ Rt_sim.Edf_sim.no_injection with speed_cap = Some 0.2 }
         periodic_tasks)
  in
  check_bool "misses under derating" true (o.Rt_sim.Edf_sim.misses <> [])

(* ------------------------------------------------------------------ *)
(* Degradation policies *)

let frame_problem () =
  (* 6 items, 2 processors, load 1.2/2.0 = comfortable *)
  let items = items_of [ 0.5; 0.4; 0.3; 0.25; 0.25; 0.2 ] in
  ok_exn (Rt_core.Problem.make ~proc:xscale ~m:2 ~horizon:10. items)

let crash_scenario = [ Fault.Proc_crash { proc = 1; at = 0. } ]

let test_recover_frame_crash () =
  let p = frame_problem () in
  let baseline = Rt_core.Greedy.ltf_reject p in
  let noop =
    ok_exn (Degrade.recover_frame p crash_scenario ~baseline Degrade.No_op)
  in
  check_bool "no-op misses under a crash" true
    (noop.Degrade.misses <> []);
  List.iter
    (fun pol ->
      let r = ok_exn (Degrade.recover_frame p crash_scenario ~baseline pol) in
      check_ids
        (Degrade.policy_name pol ^ " has zero misses")
        [] r.Degrade.misses;
      (match r.Degrade.residual with
      | None -> Alcotest.fail "expected a residual solution"
      | Some s ->
          check_int "residual width = survivors" 1
            (Rt_partition.Partition.m s.Rt_core.Solution.partition));
      (* total load 1.9 on one surviving processor of capacity 1: something
         must have been shed, and shedding pays penalty *)
      check_bool "recovery shed something" true (r.Degrade.shed <> []);
      check_bool "extra penalty is positive" true
        (Rt_prelude.Float_cmp.exact_gt r.Degrade.extra_penalty 0.))
    [ Degrade.Shed_density; Degrade.Shed_marginal; Degrade.Repartition_ltf ]

let test_recover_frame_fault_free () =
  let p = frame_problem () in
  let baseline = Rt_core.Greedy.ltf_reject p in
  let r = ok_exn (Degrade.recover_frame p [] ~baseline Degrade.Repartition_ltf) in
  check_ids "no misses" [] r.Degrade.misses;
  check_ids "nothing shed" [] r.Degrade.shed;
  check_float 1e-6 "no energy delta" 0. r.Degrade.energy_delta

let test_recover_frame_overrun () =
  let p = frame_problem () in
  let baseline = Rt_core.Greedy.ltf_reject p in
  let sc =
    List.map (fun id -> Fault.Wcec_overrun { task_id = id; factor = 1.5 })
      [ 0; 1; 2; 3; 4; 5 ]
  in
  let noop = ok_exn (Degrade.recover_frame p sc ~baseline Degrade.No_op) in
  check_bool "no-op misses under global overrun" true
    (noop.Degrade.misses <> []);
  let r = ok_exn (Degrade.recover_frame p sc ~baseline Degrade.Shed_density) in
  check_ids "shed-density absorbs the overrun" [] r.Degrade.misses

let test_recover_periodic_crash () =
  let tasks =
    [
      Task.periodic ~id:0 ~cycles:4 ~period:10 ~penalty:2. ();
      Task.periodic ~id:1 ~cycles:3 ~period:10 ~penalty:1.5 ();
      Task.periodic ~id:2 ~cycles:2 ~period:20 ~penalty:1. ();
      Task.periodic ~id:3 ~cycles:5 ~period:20 ~penalty:1. ();
    ]
  in
  let sc = [ Fault.Proc_crash { proc = 0; at = 0. } ] in
  let noop =
    ok_exn
      (Degrade.recover_periodic ~proc:levels ~m:2 ~tasks sc Degrade.No_op)
  in
  check_bool "no-op misses when a processor dies" true
    (noop.Degrade.misses <> []);
  let r =
    ok_exn
      (Degrade.recover_periodic ~proc:levels ~m:2 ~tasks sc
         Degrade.Repartition_ltf)
  in
  check_ids "repartitioned survivors meet deadlines" [] r.Degrade.misses

let test_residual_problem_errors () =
  let p = frame_problem () in
  check_bool "all-crash scenario has no residual" true
    (Result.is_error
       (Degrade.residual_problem p
          [
            Fault.Proc_crash { proc = 0; at = 0. };
            Fault.Proc_crash { proc = 1; at = 0. };
          ]))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "rt_fault"
    [
      ( "scenario",
        [
          Alcotest.test_case "accessors" `Quick test_scenario_accessors;
          Alcotest.test_case "validate rejects" `Quick
            test_scenario_validate_rejects;
          Alcotest.test_case "derated ideal proc" `Quick
            test_derated_proc_ideal;
          Alcotest.test_case "derated level proc" `Quick
            test_derated_proc_levels;
          Alcotest.test_case "seeded generation" `Quick test_gen_deterministic;
        ] );
      ( "frame injection",
        [
          Alcotest.test_case "identity" `Quick test_frame_injection_identity;
          Alcotest.test_case "crash" `Quick test_frame_injection_crash;
          Alcotest.test_case "overrun" `Quick test_frame_injection_overrun;
          Alcotest.test_case "derate" `Quick test_frame_injection_derate;
        ] );
      ( "edf injection",
        [
          Alcotest.test_case "identity" `Quick test_edf_injection_identity;
          Alcotest.test_case "crash" `Quick test_edf_injection_crash;
          Alcotest.test_case "absorbed overrun" `Quick
            test_edf_injection_overrun_feasible;
          Alcotest.test_case "derate misses" `Quick
            test_edf_injection_derate_misses;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "frame crash recovery" `Quick
            test_recover_frame_crash;
          Alcotest.test_case "frame fault-free" `Quick
            test_recover_frame_fault_free;
          Alcotest.test_case "frame overrun recovery" `Quick
            test_recover_frame_overrun;
          Alcotest.test_case "periodic crash recovery" `Quick
            test_recover_periodic_crash;
          Alcotest.test_case "residual errors" `Quick
            test_residual_problem_errors;
        ] );
    ]
