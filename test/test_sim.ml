(* Tests for rt_sim: frame schedules round-trip the optimizer's promises,
   and the EDF simulator agrees with the utilization-bound theory. *)

open Rt_power
open Rt_task
module Fc = Rt_prelude.Float_cmp
module Instance = Rt_check.Instance

let check_float eps = Alcotest.(check (float eps))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let cubic = Processor.cubic ()
let xscale_enable =
  Processor.xscale ~dormancy:(Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })
let levels = Processor.xscale_levels ~dormancy:Processor.Dormant_disable

let items_of weights =
  List.mapi (fun id w -> Task.item ~id ~weight:w ()) weights

let partition_of ~m buckets =
  let arr = Array.make m [] in
  List.iteri (fun j ws -> arr.(j) <- ws) buckets;
  Rt_partition.Partition.of_buckets arr

(* ------------------------------------------------------------------ *)
(* Frame_sim *)

let test_frame_build_single () =
  let items = items_of [ 0.3; 0.2 ] in
  let p = partition_of ~m:1 [ items ] in
  match Rt_sim.Frame_sim.build ~proc:cubic ~frame_length:10. p with
  | Error e -> Alcotest.fail e
  | Ok sim ->
      check_bool "validates" true (Rt_sim.Frame_sim.validate sim = Ok ());
      (* load 0.5 on a cubic processor: energy = 10 · 0.5^3 *)
      check_float 1e-9 "energy" (10. *. 0.125) sim.Rt_sim.Frame_sim.total_energy

let test_frame_build_overload () =
  let items = items_of [ 0.8; 0.8 ] in
  let p = partition_of ~m:1 [ items ] in
  check_bool "overload rejected" true
    (Result.is_error (Rt_sim.Frame_sim.build ~proc:cubic ~frame_length:1. p))

let test_frame_two_procs_levels () =
  (* discrete levels force two-speed splits inside the timeline *)
  let a = items_of [ 0.7 ] in
  let b = [ Task.item ~id:9 ~weight:0.5 () ] in
  let p = partition_of ~m:2 [ a; b ] in
  match Rt_sim.Frame_sim.build ~proc:levels ~frame_length:4. p with
  | Error e -> Alcotest.fail e
  | Ok sim ->
      check_bool "validates" true (Rt_sim.Frame_sim.validate sim = Ok ());
      check_int "two timelines" 2 (List.length sim.Rt_sim.Frame_sim.timelines)

let test_frame_energy_matches_rate () =
  (* slice-integrated energy equals horizon × optimal rate per bucket *)
  let items = items_of [ 0.25; 0.35; 0.15 ] in
  let p = partition_of ~m:1 [ items ] in
  match Rt_sim.Frame_sim.build ~proc:xscale_enable ~frame_length:7. p with
  | Error e -> Alcotest.fail e
  | Ok sim ->
      let rate =
        match Rt_speed.Energy_rate.rate xscale_enable ~u:0.75 with
        | Some r -> r
        | None -> Alcotest.fail "feasible"
      in
      check_float 1e-6 "energy = rate × horizon" (rate *. 7.)
        sim.Rt_sim.Frame_sim.total_energy

let test_frame_rejects_power_factor () =
  let it = Task.item ~power_factor:2. ~id:0 ~weight:0.1 () in
  let p = partition_of ~m:1 [ [ it ] ] in
  check_bool "hetero factor refused" true
    (Result.is_error (Rt_sim.Frame_sim.build ~proc:cubic ~frame_length:1. p))

let test_frame_gantt_renders () =
  let items = items_of [ 0.3; 0.2 ] in
  let p = partition_of ~m:2 [ [ List.hd items ]; List.tl items ] in
  match Rt_sim.Frame_sim.build ~proc:cubic ~frame_length:1. p with
  | Error e -> Alcotest.fail e
  | Ok sim ->
      let s = Rt_sim.Frame_sim.gantt sim in
      check_bool "non-empty gantt" true (String.length s > 0)

(* the shared rt_check generator produces the instance; LTF keeps only
   what fits, so the built schedule must always validate *)
let ltf_partition_of inst =
  match Instance.to_problem inst with
  | Error e -> invalid_arg e
  | Ok p ->
      let s = Rt_core.Greedy.ltf_reject p in
      (p, s.Rt_core.Solution.partition)

let prop_frame_roundtrip =
  qtest "random feasible partitions build and validate on all processors"
    (Instance.qcheck_gen ())
    (fun inst ->
      let proc = Instance.processor inst.Instance.proc in
      let _, part = ltf_partition_of inst in
      match
        Rt_sim.Frame_sim.build ~proc
          ~frame_length:(float_of_int inst.Instance.frame_ticks)
          part
      with
      | Error _ -> false
      | Ok sim -> Rt_sim.Frame_sim.validate sim = Ok ())

let prop_frame_slices_disjoint =
  qtest "per-processor slices are sorted, disjoint, and tile the frame"
    (Instance.qcheck_gen ())
    (fun inst ->
      let proc = Instance.processor inst.Instance.proc in
      let frame_length = float_of_int inst.Instance.frame_ticks in
      let _, part = ltf_partition_of inst in
      match Rt_sim.Frame_sim.build ~proc ~frame_length part with
      | Error _ -> false
      | Ok sim ->
          List.for_all
            (fun tl ->
              let rec contiguous at = function
                | [] -> Fc.approx_eq ~eps:1e-6 at frame_length
                | sl :: rest ->
                    Fc.approx_eq ~eps:1e-6 sl.Rt_sim.Frame_sim.t0 at
                    && Fc.leq sl.Rt_sim.Frame_sim.t0 sl.Rt_sim.Frame_sim.t1
                    && contiguous sl.Rt_sim.Frame_sim.t1 rest
              in
              contiguous 0. tl.Rt_sim.Frame_sim.slices)
            sim.Rt_sim.Frame_sim.timelines)

(* ------------------------------------------------------------------ *)
(* Edf_sim *)

let periodic_set =
  [
    Task.periodic ~id:0 ~cycles:10 ~period:100 ();
    Task.periodic ~id:1 ~cycles:50 ~period:200 ();
    Task.periodic ~id:2 ~cycles:100 ~period:500 ();
  ]
(* U = 0.1 + 0.25 + 0.2 = 0.55; hyper-period 1000 *)

let test_edf_feasible_at_utilization () =
  match Rt_sim.Edf_sim.run ~proc:cubic ~speed:0.55 periodic_set with
  | Error e -> Alcotest.fail e
  | Ok o ->
      check_bool "no misses at s = U" true (o.Rt_sim.Edf_sim.misses = []);
      check_float 1e-6 "fully busy" 1000. o.Rt_sim.Edf_sim.busy_time;
      check_bool "no gaps when s = U" true (o.Rt_sim.Edf_sim.gaps = [])

let test_edf_feasible_above_utilization () =
  match Rt_sim.Edf_sim.run ~proc:cubic ~speed:0.8 periodic_set with
  | Error e -> Alcotest.fail e
  | Ok o ->
      check_bool "no misses" true (o.Rt_sim.Edf_sim.misses = []);
      (* busy time scales as U/s × horizon *)
      check_float 1e-6 "busy time" (0.55 /. 0.8 *. 1000.) o.Rt_sim.Edf_sim.busy_time;
      check_bool "has idle gaps" true (o.Rt_sim.Edf_sim.gaps <> [])

let test_edf_misses_below_utilization () =
  match Rt_sim.Edf_sim.run ~proc:cubic ~speed:0.4 periodic_set with
  | Error e -> Alcotest.fail e
  | Ok o -> check_bool "misses under overload" true (o.Rt_sim.Edf_sim.misses <> [])

let test_edf_rejects_bad_args () =
  check_bool "zero speed" true
    (Result.is_error (Rt_sim.Edf_sim.run ~proc:cubic ~speed:0. periodic_set));
  check_bool "infeasible speed" true
    (Result.is_error (Rt_sim.Edf_sim.run ~proc:cubic ~speed:2. periodic_set));
  check_bool "empty set without horizon" true
    (Result.is_error (Rt_sim.Edf_sim.run ~proc:cubic ~speed:0.5 []));
  check_bool "empty set with horizon ok" true
    (Result.is_ok (Rt_sim.Edf_sim.run ~horizon:10. ~proc:cubic ~speed:0.5 []))

let test_edf_energy_accounting () =
  let proc =
    Processor.make
      ~model:(Power_model.make ~p_ind:0.1 ~coeff:1. ~alpha:3. ())
      ~domain:(Processor.Ideal { s_min = 0.; s_max = 1. })
      ~dormancy:(Processor.Dormant_enable { t_sw = 1.; e_sw = 2. })
  in
  match Rt_sim.Edf_sim.run ~proc ~speed:0.8 periodic_set with
  | Error e -> Alcotest.fail e
  | Ok o ->
      let busy = o.Rt_sim.Edf_sim.busy_time in
      check_float 1e-6 "exec energy = busy × P(s)"
        (busy *. Power_model.power proc.Processor.model 0.8)
        o.Rt_sim.Edf_sim.exec_energy;
      let idle = 1000. -. busy in
      check_float 1e-6 "awake idle = leakage × idle" (0.1 *. idle)
        o.Rt_sim.Edf_sim.idle_energy_awake;
      check_bool "sleeping never beats staying awake by more than idle" true
        (Fc.leq o.Rt_sim.Edf_sim.idle_energy_sleep
           o.Rt_sim.Edf_sim.idle_energy_awake);
      check_bool "coalesced idle cheapest" true
        (Fc.leq o.Rt_sim.Edf_sim.idle_energy_proc
           o.Rt_sim.Edf_sim.idle_energy_sleep)

let test_edf_preemption_happens () =
  (* long task released at 0, short task with tighter deadlines preempts *)
  let tasks =
    [
      Task.periodic ~id:0 ~cycles:60 ~period:100 ();
      Task.periodic ~id:1 ~cycles:150 ~period:400 ();
    ]
  in
  match Rt_sim.Edf_sim.run ~proc:cubic ~speed:1.0 tasks with
  | Error e -> Alcotest.fail e
  | Ok o ->
      check_bool "feasible" true (o.Rt_sim.Edf_sim.misses = []);
      check_bool "preemptions observed" true (o.Rt_sim.Edf_sim.preemptions > 0)

let prop_edf_utilization_bound =
  qtest "EDF at speed >= U never misses; at speed < U misses appear"
    QCheck2.Gen.(pair (int_range 1 6) (int_range 1 1000))
    (fun (n, seed) ->
      let rng = Rt_prelude.Rng.create ~seed in
      let tasks =
        Gen.periodic_tasks rng ~n ~total_util:0.7
          ~periods:[ 100; 200; 400; 500 ]
      in
      let u = Taskset.total_utilization tasks in
      let ok_at s =
        match Rt_sim.Edf_sim.run ~proc:cubic ~speed:s tasks with
        | Error _ -> None
        | Ok o -> Some (o.Rt_sim.Edf_sim.misses = [])
      in
      let feasible = ok_at (Float.min 1. (u +. 0.01)) in
      let overload = if u > 0.1 then ok_at (u *. 0.7) else Some false in
      feasible = Some true && overload = Some false)

let prop_edf_busy_time_identity =
  qtest ~count:60 "busy time equals U/s x horizon on feasible runs"
    QCheck2.Gen.(pair (int_range 1 10_000) (float_range 0.3 0.95))
    (fun (seed, speed) ->
      let rng = Rt_prelude.Rng.create ~seed in
      let tasks =
        Gen.periodic_tasks rng ~n:5 ~total_util:(speed *. 0.9)
          ~periods:[ 100; 200; 500 ]
      in
      let u = Taskset.total_utilization tasks in
      if u > speed then true
      else
        match Rt_sim.Edf_sim.run ~proc:cubic ~speed tasks with
        | Error _ -> false
        | Ok o ->
            let expected = u /. speed *. o.Rt_sim.Edf_sim.horizon in
            Fc.approx_eq ~eps:1e-6 o.Rt_sim.Edf_sim.busy_time expected
            &&
            (* gaps + busy tile the horizon *)
            let gap_total =
              List.fold_left
                (fun acc g -> acc +. (g.Rt_sim.Edf_sim.g1 -. g.Rt_sim.Edf_sim.g0))
                0. o.Rt_sim.Edf_sim.gaps
            in
            Fc.approx_eq ~eps:1e-6
              (gap_total +. o.Rt_sim.Edf_sim.busy_time)
              o.Rt_sim.Edf_sim.horizon)

(* ------------------------------------------------------------------ *)
(* Gantt *)

let test_gantt_basic () =
  let segs =
    [
      { Rt_sim.Gantt.t0 = 0.; t1 = 5.; row = "A"; glyph = '#' };
      { Rt_sim.Gantt.t0 = 5.; t1 = 10.; row = "B"; glyph = '*' };
    ]
  in
  let out = Rt_sim.Gantt.render ~width:20 ~horizon:10. segs in
  let lines = String.split_on_char '\n' out in
  check_int "two rows + scale" 3 (List.length lines);
  check_bool "A row has #" true
    (String.contains (List.nth lines 0) '#');
  check_bool "B row has *" true (String.contains (List.nth lines 1) '*')

let test_gantt_rejects_out_of_range () =
  Alcotest.check_raises "outside horizon"
    (Invalid_argument "Gantt.render: segment outside horizon") (fun () ->
      ignore
        (Rt_sim.Gantt.render ~horizon:1.
           [ { Rt_sim.Gantt.t0 = 0.; t1 = 2.; row = "A"; glyph = '#' } ]))

let test_gantt_short_segment_survives () =
  (* a long later segment may not erase a short earlier one: both glyphs
     must stay visible even though they compete for the same first cell *)
  let out =
    Rt_sim.Gantt.render ~width:10 ~horizon:10.
      [
        { Rt_sim.Gantt.t0 = 0.; t1 = 0.01; row = "P0"; glyph = '#' };
        { Rt_sim.Gantt.t0 = 0.01; t1 = 10.; row = "P0"; glyph = '*' };
      ]
  in
  check_bool "short segment visible" true (String.contains out '#');
  check_bool "long segment visible" true (String.contains out '*')

let glyph_of_id id = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ".[id mod 36]

let prop_gantt_never_drops_accepted_tasks =
  qtest "frame gantt shows a glyph for every accepted task"
    (Instance.qcheck_gen ())
    (fun inst ->
      let proc = Instance.processor inst.Instance.proc in
      match Instance.to_problem inst with
      | Error _ -> false
      | Ok p -> (
          let s = Rt_core.Greedy.ltf_reject p in
          match
            Rt_sim.Frame_sim.build ~proc
              ~frame_length:(float_of_int inst.Instance.frame_ticks)
              s.Rt_core.Solution.partition
          with
          | Error _ -> false
          | Ok sim ->
              let out = Rt_sim.Frame_sim.gantt sim in
              List.for_all
                (fun id -> String.contains out (glyph_of_id id))
                (Rt_core.Solution.accepted_ids s)))

let () =
  Alcotest.run "rt_sim"
    [
      ( "frame_sim",
        [
          Alcotest.test_case "single processor build" `Quick
            test_frame_build_single;
          Alcotest.test_case "overload detected" `Quick test_frame_build_overload;
          Alcotest.test_case "levels, two processors" `Quick
            test_frame_two_procs_levels;
          Alcotest.test_case "energy matches rate" `Quick
            test_frame_energy_matches_rate;
          Alcotest.test_case "hetero factor refused" `Quick
            test_frame_rejects_power_factor;
          Alcotest.test_case "gantt renders" `Quick test_frame_gantt_renders;
          prop_frame_roundtrip;
          prop_frame_slices_disjoint;
        ] );
      ( "edf_sim",
        [
          Alcotest.test_case "feasible at U" `Quick test_edf_feasible_at_utilization;
          Alcotest.test_case "feasible above U" `Quick
            test_edf_feasible_above_utilization;
          Alcotest.test_case "misses below U" `Quick
            test_edf_misses_below_utilization;
          Alcotest.test_case "argument validation" `Quick test_edf_rejects_bad_args;
          Alcotest.test_case "energy accounting" `Quick test_edf_energy_accounting;
          Alcotest.test_case "preemption" `Quick test_edf_preemption_happens;
          prop_edf_utilization_bound;
          prop_edf_busy_time_identity;
        ] );
      ( "gantt",
        [
          Alcotest.test_case "basic render" `Quick test_gantt_basic;
          Alcotest.test_case "range check" `Quick test_gantt_rejects_out_of_range;
          Alcotest.test_case "short segment survives" `Quick
            test_gantt_short_segment_survives;
          prop_gantt_never_drops_accepted_tasks;
        ] );
    ]
