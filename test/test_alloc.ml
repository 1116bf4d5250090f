(* Tests for rt_alloc: the synthesis model, the LP-based ROUNDING family,
   and the RS-LEUF / First-Fit processor-count minimizers. *)

open Rt_alloc
module Taskset = Rt_task.Taskset
module Fc = Rt_prelude.Float_cmp

let check_float eps = Alcotest.(check (float eps))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 40) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let cubic_model = Rt_power.Power_model.make ~coeff:1. ~alpha:3. ()

let simple_types =
  [|
    Alloc.proc_type ~type_id:0 ~alloc_cost:1. ~model:cubic_model
      ~speeds:[| 0.5; 1.0 |];
    Alloc.proc_type ~type_id:1 ~alloc_cost:3. ~model:cubic_model
      ~speeds:[| 1.0; 2.0 |];
  |]

let simple_tasks =
  [
    Alloc.task ~id:0 ~cycles:[| 400.; 500. |];
    Alloc.task ~id:1 ~cycles:[| 600.; 700. |];
  ]

let instance_exn ?(budget = 1e6) () =
  match
    Alloc.instance ~types:simple_types ~tasks:simple_tasks ~frame:1000.
      ~energy_budget:budget
  with
  | Ok i -> i
  | Error e -> Alcotest.failf "instance: %s" e

(* ------------------------------------------------------------------ *)
(* model *)

let test_derived_quantities () =
  let inst = instance_exn () in
  let t0 = List.hd simple_tasks in
  (* type 0, slow speed 0.5: u = 400 / (0.5·1000) = 0.8 *)
  check_float 1e-9 "utilization" 0.8 (Alloc.utilization inst t0 ~ti:0 ~level:0);
  (* energy = 400/0.5 · P(0.5) = 800 · 0.125 = 100 *)
  check_float 1e-9 "energy" 100. (Alloc.energy inst t0 ~ti:0 ~level:0);
  Alcotest.(check (option int)) "kappa slow ok" (Some 0) (Alloc.kappa inst t0 ~ti:0)

let test_kappa_skips_infeasible_levels () =
  let types =
    [|
      Alloc.proc_type ~type_id:0 ~alloc_cost:1. ~model:cubic_model
        ~speeds:[| 0.2; 1.0 |];
    |]
  in
  let tasks = [ Alloc.task ~id:0 ~cycles:[| 500. |] ] in
  match Alloc.instance ~types ~tasks ~frame:1000. ~energy_budget:1e6 with
  | Error e -> Alcotest.fail e
  | Ok inst ->
      (* at 0.2 the task would need 2500 time units: infeasible *)
      Alcotest.(check (option int))
        "kappa skips the slow level" (Some 1)
        (Alloc.kappa inst (List.hd tasks) ~ti:0)

let test_e_min_le_e_max () =
  let inst = instance_exn () in
  check_bool "e_min <= e_max" true (Alloc.e_min inst <= Alloc.e_max inst);
  check_bool "positive" true (Alloc.e_min inst > 0.)

let test_pack () =
  let inst = instance_exn () in
  let placements =
    [
      { Alloc.task_id = 0; ti = 0; level = 0 };
      { Alloc.task_id = 1; ti = 0; level = 1 };
    ]
  in
  match Alloc.pack inst placements with
  | Error e -> Alcotest.fail e
  | Ok b ->
      (* u = 0.8 and 0.6 on type 0: two processors, none of type 1 *)
      check_int "type 0 count" 2 b.Alloc.counts.(0);
      check_int "type 1 count" 0 b.Alloc.counts.(1);
      check_float 1e-9 "cost" 2. b.Alloc.alloc_cost

let test_pack_rejects_bad_placements () =
  let inst = instance_exn () in
  check_bool "missing task" true
    (Result.is_error (Alloc.pack inst [ { Alloc.task_id = 0; ti = 0; level = 0 } ]));
  check_bool "infeasible level" true
    (Result.is_error
       (Alloc.pack inst
          [
            { Alloc.task_id = 0; ti = 0; level = 0 };
            (* task 1 at speed 0.5 needs u = 1.2 > 1 *)
            { Alloc.task_id = 1; ti = 0; level = 0 };
          ]))

(* ------------------------------------------------------------------ *)
(* rounding *)

let gen_instance seed n_types n_tasks gamma =
  let rng = Rt_prelude.Rng.create ~seed in
  match Alloc.gen rng ~n_types ~n_tasks ~instance_gamma:gamma with
  | Ok i -> i
  | Error e -> Alcotest.failf "gen: %s" e

let test_rounding_small () =
  let inst = gen_instance 1 2 5 0.5 in
  match Rounding.rounding inst with
  | Error e -> Alcotest.fail e
  | Ok b ->
      check_bool "positive cost" true (b.Alloc.alloc_cost > 0.);
      check_int "places every task" 5 (List.length b.Alloc.placements)

let prop_e_rounding_no_worse =
  qtest "E-ROUNDING realized cost <= ROUNDING realized cost"
    QCheck2.Gen.(pair (int_range 1 2000) (float_range 0.1 0.9))
    (fun (seed, gamma) ->
      let inst = gen_instance seed 3 8 gamma in
      match (Rounding.rounding inst, Rounding.e_rounding inst) with
      | Ok r, Ok er -> Fc.leq ~eps:1e-9 er.Alloc.alloc_cost r.Alloc.alloc_cost
      | Error _, Error _ -> true (* both infeasible: consistent *)
      | _ -> false)

let prop_rounded_builds_are_valid =
  qtest "rounded placements re-pack identically (self-consistency)"
    QCheck2.Gen.(pair (int_range 1 2000) (float_range 0.1 0.9))
    (fun (seed, gamma) ->
      let inst = gen_instance seed 3 8 gamma in
      match Rounding.e_rounding inst with
      | Error _ -> true
      | Ok b -> (
          match Alloc.pack inst b.Alloc.placements with
          | Ok b2 ->
              Fc.approx_eq ~eps:1e-9 b2.Alloc.alloc_cost b.Alloc.alloc_cost
          | Error _ -> false))

let prop_lp_bound_below_builds =
  qtest "the LP bound never exceeds a realized build's cost"
    QCheck2.Gen.(pair (int_range 1 2000) (float_range 0.2 0.9))
    (fun (seed, gamma) ->
      let inst = gen_instance seed 2 6 gamma in
      match (Rounding.lp_lower_bound inst, Rounding.e_rounding inst) with
      | Some lb, Ok b -> Fc.leq ~eps:1e-6 lb b.Alloc.alloc_cost
      | None, Error _ -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* rs_leuf *)

let leaky_ideal =
  Rt_power.Processor.make
    ~model:(Rt_power.Power_model.make ~p_ind:0.08 ~coeff:1.52 ~alpha:3. ())
    ~domain:(Rt_power.Processor.Ideal { s_min = 0.; s_max = 1. })
    ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })

let items_of weights =
  List.mapi (fun id w -> Rt_task.Task.item ~id ~weight:w ()) weights

let test_pooled_min_processors () =
  (* total weight 1.5 at s_max 1: at least 2 processors regardless of
     energy *)
  let items = items_of [ 0.5; 0.5; 0.5 ] in
  match
    Rs_leuf.pooled_min_processors ~proc:leaky_ideal ~frame:1000. ~budget:1e9
      items
  with
  | Error e -> Alcotest.fail e
  | Ok (m, times) ->
      check_int "m*" 2 m;
      check_int "times for all" 3 (List.length times)

let test_budget_unreachable () =
  let items = items_of [ 0.5; 0.5 ] in
  check_bool "tiny budget" true
    (Result.is_error
       (Rs_leuf.pooled_min_processors ~proc:leaky_ideal ~frame:1000.
          ~budget:0.001 items))

(* A seeded instance: 3..13 items of weight 0.05..0.6, budget [gamma] of
   the all-at-top-speed energy. *)
let rs_instance ~seed ~gamma =
  let rng = Rt_prelude.Rng.create ~seed in
  let n = Rt_prelude.Rng.int rng ~lo:3 ~hi:14 in
  let items =
    items_of
      (List.init n (fun _ -> Rt_prelude.Rng.float rng ~lo:0.05 ~hi:0.6))
  in
  let e_fast =
    Taskset.total_weight items *. 1000.
    *. Rt_power.Power_model.energy_per_cycle leaky_ideal.model 1.
  in
  (items, gamma *. e_fast)

let rs_and_ff ~seed ~gamma =
  let items, budget = rs_instance ~seed ~gamma in
  ( budget,
    Rs_leuf.rs_leuf ~proc:leaky_ideal ~frame:1000. ~budget items,
    Rs_leuf.first_fit ~proc:leaky_ideal ~frame:1000. ~budget items )

(* RS-LEUF packs largest-first onto the least-loaded processor, which is
   not bin-count dominant over First-Fit in input order: processor counts
   are compared in aggregate below, not per instance. *)
let prop_rs_leuf_succeeds_within_budget =
  qtest "RS-LEUF succeeds whenever First-Fit does, within budget"
    QCheck2.Gen.(pair (int_range 1 2000) (float_range 0.3 0.9))
    (fun (seed, gamma) ->
      match rs_and_ff ~seed ~gamma with
      | budget, Ok rs, _ -> Fc.leq ~eps:1e-6 rs.Rs_leuf.energy budget
      | _, Error _, ff -> Result.is_error ff)

let test_rs_leuf_more_than_ff () =
  (* known answer: m* = 5, yet LEUF packing fails at 5 and 6 processors
     where First-Fit fits 6 bins — RS-LEUF returns 7 at lower energy *)
  match rs_and_ff ~seed:138 ~gamma:0.42 with
  | budget, Ok rs, Ok ff ->
      check_int "RS-LEUF processors" 7 rs.Rs_leuf.processors;
      check_int "First-Fit processors" 6 ff.Rs_leuf.processors;
      check_float 0.05 "RS-LEUF energy" 1469.37 rs.Rs_leuf.energy;
      check_float 0.05 "First-Fit energy" 1996.86 ff.Rs_leuf.energy;
      check_float 0.05 "budget" 1997.51 budget
  | _ -> Alcotest.fail "seed 138: both algorithms should succeed"

let test_rs_leuf_fewer_processors_in_total () =
  let sum_rs = ref 0 and sum_ff = ref 0 in
  List.iter
    (fun gamma ->
      for seed = 1 to 200 do
        match rs_and_ff ~seed ~gamma with
        | _, Ok rs, Ok ff ->
            sum_rs := !sum_rs + rs.Rs_leuf.processors;
            sum_ff := !sum_ff + ff.Rs_leuf.processors
        | _ -> ()
      done)
    [ 0.4; 0.6; 0.8 ];
  check_bool "RS-LEUF <= First-Fit in total" true (!sum_rs <= !sum_ff);
  check_int "sum RS-LEUF" 3311 !sum_rs;
  check_int "sum First-Fit" 3373 !sum_ff

let test_rs_leuf_respects_budget () =
  let items = items_of [ 0.3; 0.25; 0.2; 0.15; 0.1 ] in
  (* the per-task minimum (everything at the critical speed) is ~403, so
     500 is feasible but tight enough to force extra processors *)
  match Rs_leuf.rs_leuf ~proc:leaky_ideal ~frame:1000. ~budget:500. items with
  | Error e -> Alcotest.fail e
  | Ok o ->
      check_bool "within budget" true (Fc.leq ~eps:1e-6 o.Rs_leuf.energy 500.);
      check_bool "at least one processor" true (o.Rs_leuf.processors >= 1)

let () =
  Alcotest.run "rt_alloc"
    [
      ( "model",
        [
          Alcotest.test_case "derived quantities" `Quick test_derived_quantities;
          Alcotest.test_case "kappa skips infeasible" `Quick
            test_kappa_skips_infeasible_levels;
          Alcotest.test_case "e_min / e_max" `Quick test_e_min_le_e_max;
          Alcotest.test_case "pack" `Quick test_pack;
          Alcotest.test_case "pack rejects bad placements" `Quick
            test_pack_rejects_bad_placements;
        ] );
      ( "rounding",
        [
          Alcotest.test_case "small instance" `Quick test_rounding_small;
          prop_e_rounding_no_worse;
          prop_rounded_builds_are_valid;
          prop_lp_bound_below_builds;
        ] );
      ( "rs_leuf",
        [
          Alcotest.test_case "pooled minimum" `Quick test_pooled_min_processors;
          Alcotest.test_case "budget unreachable" `Quick test_budget_unreachable;
          prop_rs_leuf_succeeds_within_budget;
          Alcotest.test_case "RS-LEUF can use more processors than First-Fit"
            `Quick test_rs_leuf_more_than_ff;
          Alcotest.test_case
            "RS-LEUF allocates at most as many processors as First-Fit, summed"
            `Quick test_rs_leuf_fewer_processors_in_total;
          Alcotest.test_case "respects budget" `Quick test_rs_leuf_respects_budget;
        ] );
    ]
