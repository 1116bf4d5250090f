(* Tests for rt_task: task constructors, task-set queries, penalty models,
   generators. *)

open Rt_task

let check_float eps = Alcotest.(check (float eps))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let proc = Rt_power.Processor.xscale ~dormancy:Rt_power.Processor.Dormant_disable

(* ------------------------------------------------------------------ *)
(* Task *)

let test_constructors () =
  let f = Task.frame ~penalty:2.5 ~id:1 ~cycles:100 () in
  check_int "frame cycles" 100 f.Task.cycles;
  check_float 1e-12 "frame penalty" 2.5 f.Task.penalty;
  let p = Task.periodic ~id:2 ~cycles:50 ~period:200 () in
  check_float 1e-12 "utilization" 0.25 (Task.utilization p);
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s should be rejected" name
  in
  expect_invalid "zero cycles" (fun () -> Task.frame ~id:0 ~cycles:0 ());
  expect_invalid "negative penalty" (fun () ->
      Task.frame ~penalty:(-1.) ~id:0 ~cycles:1 ());
  expect_invalid "zero period" (fun () ->
      Task.periodic ~id:0 ~cycles:1 ~period:0 ());
  expect_invalid "zero power factor" (fun () ->
      Task.frame ~power_factor:0. ~id:0 ~cycles:1 ())

let test_item_views () =
  let f = Task.frame ~penalty:3. ~id:7 ~cycles:50 () in
  let it = Task.item_of_frame ~frame_length:100. f in
  check_float 1e-12 "frame weight = cycles/D" 0.5 it.Task.weight;
  check_int "id preserved" 7 it.Task.item_id;
  check_float 1e-12 "penalty preserved" 3. it.Task.item_penalty;
  let p = Task.periodic ~penalty:1. ~id:3 ~cycles:30 ~period:120 () in
  let ip = Task.item_of_periodic p in
  check_float 1e-12 "periodic weight = utilization" 0.25 ip.Task.weight

let test_orders () =
  let a = Task.frame ~id:0 ~cycles:10 () in
  let b = Task.frame ~id:1 ~cycles:20 () in
  let c = Task.frame ~id:2 ~cycles:10 () in
  let sorted = List.sort Task.compare_frame_cycles_desc [ a; b; c ] in
  Alcotest.(check (list int))
    "cycles desc, ties by id"
    [ 1; 0; 2 ]
    (List.map (fun (t : Task.frame) -> t.Task.id) sorted)

let test_distinct_ids () =
  check_bool "distinct" true (Task.distinct_ids [ 1; 2; 3 ]);
  check_bool "duplicate" false (Task.distinct_ids [ 1; 2; 1 ]);
  check_bool "empty" true (Task.distinct_ids [])

(* ------------------------------------------------------------------ *)
(* Taskset *)

let test_taskset_queries () =
  let ts =
    [
      Task.frame ~penalty:1. ~id:0 ~cycles:10 ();
      Task.frame ~penalty:2. ~id:1 ~cycles:30 ();
    ]
  in
  check_bool "well formed" true (Taskset.well_formed_frame ts = Ok ());
  let dup = ts @ [ Task.frame ~id:0 ~cycles:5 () ] in
  check_bool "duplicate detected" true
    (Taskset.well_formed_frame dup <> Ok ())

let test_hyper_period () =
  let ts =
    [
      Task.periodic ~id:0 ~cycles:1 ~period:100 ();
      Task.periodic ~id:1 ~cycles:1 ~period:250 ();
      Task.periodic ~id:2 ~cycles:1 ~period:400 ();
    ]
  in
  check_int "lcm of periods" 2000 (Taskset.hyper_period ts)

let test_hyper_period_checked () =
  let ts =
    [
      Task.periodic ~id:0 ~cycles:1 ~period:100 ();
      Task.periodic ~id:1 ~cycles:1 ~period:250 ();
    ]
  in
  check_bool "small ok" true (Taskset.hyper_period_checked ts = Ok 500);
  check_bool "empty is an error" true
    (Result.is_error (Taskset.hyper_period_checked []));
  (* near-max-int coprime periods: the hyper-period would overflow *)
  let adversarial =
    [
      Task.periodic ~id:0 ~cycles:1 ~period:max_int ();
      Task.periodic ~id:1 ~cycles:1 ~period:(max_int - 1) ();
    ]
  in
  check_bool "overflow is a typed error" true
    (Result.is_error (Taskset.hyper_period_checked adversarial))

let test_load_factor () =
  let items = [ Task.item ~id:0 ~weight:0.5 (); Task.item ~id:1 ~weight:1.0 () ] in
  check_float 1e-12 "load over 2 procs" 0.75
    (Taskset.load_factor ~m:2 ~s_max:1. items)

(* ------------------------------------------------------------------ *)
(* Penalty *)

let test_penalty_validate () =
  check_bool "uniform ok" true
    (Penalty.validate (Penalty.Uniform { lo = 0.; hi = 1. }) = Ok ());
  check_bool "uniform bad" true
    (Penalty.validate (Penalty.Uniform { lo = 2.; hi = 1. }) <> Ok ());
  check_bool "jitter bad" true
    (Penalty.validate (Penalty.Proportional { factor = 1.; jitter = 1.5 })
    <> Ok ());
  check_bool "bimodal p bad" true
    (Penalty.validate (Penalty.Bimodal { low = 0.1; high = 1.; p_high = 1.5 })
    <> Ok ())

let test_penalty_assign_preserves_structure () =
  let rng = Rt_prelude.Rng.create ~seed:5 in
  let items =
    [ Task.item ~id:0 ~weight:0.2 (); Task.item ~id:1 ~weight:0.4 () ]
  in
  let out =
    Penalty.assign
      (Penalty.Proportional { factor = 1.; jitter = 0. })
      rng ~proc ~horizon:1. items
  in
  check_int "same count" 2 (List.length out);
  List.iter2
    (fun (a : Task.item) (b : Task.item) ->
      check_int "id" a.Task.item_id b.Task.item_id;
      check_float 1e-12 "weight" a.Task.weight b.Task.weight;
      check_bool "penalty set" true (b.Task.item_penalty > 0.))
    items out

let test_penalty_proportional_scales_with_weight () =
  let rng = Rt_prelude.Rng.create ~seed:5 in
  let items =
    [ Task.item ~id:0 ~weight:0.2 (); Task.item ~id:1 ~weight:0.4 () ]
  in
  match
    Penalty.assign
      (Penalty.Proportional { factor = 1.; jitter = 0. })
      rng ~proc ~horizon:1. items
  with
  | [ a; b ] ->
      (* no jitter: penalty is exactly proportional to weight *)
      check_float 1e-9 "2x weight -> 2x penalty"
        (2. *. a.Task.item_penalty)
        b.Task.item_penalty
  | _ -> Alcotest.fail "expected two items"

let test_penalty_inverse_orders_against_weight () =
  let rng = Rt_prelude.Rng.create ~seed:5 in
  let items =
    [ Task.item ~id:0 ~weight:0.2 (); Task.item ~id:1 ~weight:0.4 () ]
  in
  match
    Penalty.assign (Penalty.Inverse { factor = 1.; jitter = 0. }) rng ~proc
      ~horizon:1. items
  with
  | [ a; b ] ->
      check_bool "smaller task has larger penalty" true
        (a.Task.item_penalty > b.Task.item_penalty)
  | _ -> Alcotest.fail "expected two items"

let prop_penalties_non_negative =
  qtest "all penalty models produce finite non-negative penalties"
    QCheck2.Gen.(pair (int_range 1 20) (int_range 0 3))
    (fun (n, which) ->
      let rng = Rt_prelude.Rng.create ~seed:(n + (which * 100)) in
      let items = Gen.items rng ~n ~weight_lo:0.05 ~weight_hi:0.9 in
      let _, model = List.nth Penalty.default_models which in
      let out = Penalty.assign model rng ~proc ~horizon:1. items in
      List.for_all
        (fun (it : Task.item) ->
          Float.is_finite it.Task.item_penalty && it.Task.item_penalty >= 0.)
        out)

(* ------------------------------------------------------------------ *)
(* Gen *)

let test_gen_frame () =
  let rng = Rt_prelude.Rng.create ~seed:1 in
  let ts = Gen.frame_tasks rng ~n:50 ~cycles_lo:10 ~cycles_hi:99 in
  check_int "count" 50 (List.length ts);
  check_bool "ids distinct" true
    (Task.distinct_ids (List.map (fun (t : Task.frame) -> t.Task.id) ts));
  check_bool "cycles in range" true
    (List.for_all
       (fun (t : Task.frame) -> t.Task.cycles >= 10 && t.Task.cycles <= 99)
       ts)

let test_gen_frame_with_load () =
  let rng = Rt_prelude.Rng.create ~seed:2 in
  let ts =
    Gen.frame_tasks_with_load rng ~n:40 ~m:4 ~s_max:1. ~frame_length:1000.
      ~load:1.5
  in
  let total =
    float_of_int (List.fold_left (fun acc (t : Task.frame) -> acc + t.cycles) 0 ts)
  in
  (* target = 1.5 * 4 * 1000 = 6000, rounding slack is small *)
  check_bool "total close to target" true
    (Float.abs (total -. 6000.) /. 6000. < 0.02)

let test_gen_periodic () =
  let rng = Rt_prelude.Rng.create ~seed:3 in
  let ts =
    Gen.periodic_tasks rng ~n:20 ~total_util:2.0 ~periods:Gen.default_periods
  in
  check_int "count" 20 (List.length ts);
  check_bool "hyper-period bounded" true (Taskset.hyper_period ts <= 2000);
  let u = Taskset.total_utilization ts in
  check_bool "total utilization near target" true (Float.abs (u -. 2.0) < 0.2)

let prop_gen_items_in_range =
  qtest "item generator respects the weight range"
    QCheck2.Gen.(int_range 0 40)
    (fun n ->
      let rng = Rt_prelude.Rng.create ~seed:n in
      let items = Gen.items rng ~n ~weight_lo:0.1 ~weight_hi:0.7 in
      List.length items = n
      && List.for_all
           (fun (it : Task.item) ->
             it.Task.weight >= 0.1 && it.Task.weight < 0.7)
           items)

let test_hetero_factors () =
  let rng = Rt_prelude.Rng.create ~seed:9 in
  let items = Gen.items rng ~n:10 ~weight_lo:0.1 ~weight_hi:0.5 in
  let out = Gen.heterogeneous_power_factors rng ~lo:0.5 ~hi:2. items in
  check_bool "factors in range" true
    (List.for_all
       (fun (it : Task.item) ->
         it.Task.item_power_factor >= 0.5 && it.Task.item_power_factor < 2.)
       out)

let () =
  Alcotest.run "rt_task"
    [
      ( "task",
        [
          Alcotest.test_case "constructors" `Quick test_constructors;
          Alcotest.test_case "item views" `Quick test_item_views;
          Alcotest.test_case "sort orders" `Quick test_orders;
          Alcotest.test_case "distinct ids" `Quick test_distinct_ids;
        ] );
      ( "taskset",
        [
          Alcotest.test_case "queries" `Quick test_taskset_queries;
          Alcotest.test_case "hyper-period" `Quick test_hyper_period;
          Alcotest.test_case "hyper-period overflow guard" `Quick
            test_hyper_period_checked;
          Alcotest.test_case "load factor" `Quick test_load_factor;
        ] );
      ( "penalty",
        [
          Alcotest.test_case "validation" `Quick test_penalty_validate;
          Alcotest.test_case "assign preserves structure" `Quick
            test_penalty_assign_preserves_structure;
          Alcotest.test_case "proportional scales with weight" `Quick
            test_penalty_proportional_scales_with_weight;
          Alcotest.test_case "inverse orders against weight" `Quick
            test_penalty_inverse_orders_against_weight;
          prop_penalties_non_negative;
        ] );
      ( "gen",
        [
          Alcotest.test_case "frame tasks" `Quick test_gen_frame;
          Alcotest.test_case "frame tasks with load" `Quick
            test_gen_frame_with_load;
          Alcotest.test_case "periodic tasks" `Quick test_gen_periodic;
          prop_gen_items_in_range;
          Alcotest.test_case "hetero factors" `Quick test_hetero_factors;
        ] );
    ]
