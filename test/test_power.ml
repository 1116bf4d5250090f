(* Tests for rt_power: power models, critical speed, processor domains. *)

open Rt_power

let check_float eps = Alcotest.(check (float eps))
let check_bool = Alcotest.(check bool)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let cubic = Power_model.make ~coeff:1. ~alpha:3. ()
let xscale = Power_model.make ~p_ind:0.08 ~coeff:1.52 ~alpha:3. ()

(* ------------------------------------------------------------------ *)
(* Power_model *)

let test_power_values () =
  check_float 1e-12 "cubic at 0" 0. (Power_model.power cubic 0.);
  check_float 1e-12 "cubic at 1" 1. (Power_model.power cubic 1.);
  check_float 1e-12 "cubic at 0.5" 0.125 (Power_model.power cubic 0.5);
  check_float 1e-12 "xscale at 1" 1.6 (Power_model.power xscale 1.);
  check_float 1e-12 "xscale at 0" 0.08 (Power_model.power xscale 0.);
  check_float 1e-12 "dynamic strips leakage" 1.52
    (Power_model.dynamic_power xscale 1.)

let test_make_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s should be rejected" name
  in
  expect_invalid "negative p_ind" (fun () ->
      Power_model.make ~p_ind:(-0.1) ~coeff:1. ~alpha:3. ());
  expect_invalid "zero coeff" (fun () ->
      Power_model.make ~coeff:0. ~alpha:3. ());
  expect_invalid "alpha <= 1" (fun () ->
      Power_model.make ~coeff:1. ~alpha:1. ());
  expect_invalid "nan coeff" (fun () ->
      Power_model.make ~coeff:Float.nan ~alpha:3. ());
  (* local search's gap test budgets a slope of alpha * P(s_max) / s_max;
     the cap keeps every buildable model inside that budget *)
  (match Power_model.make ~coeff:1. ~alpha:64.5 () with
  | exception Invalid_argument msg ->
      Alcotest.(check string)
        "alpha > 64 error" "Power_model.make: alpha must be finite, > 1 and <= 64"
        msg
  | _ -> Alcotest.fail "alpha 64.5 should be rejected");
  check_float 0. "alpha 64 accepted" 64.
    (Power_model.make ~coeff:1. ~alpha:64. ()).Power_model.alpha

let test_energy () =
  check_float 1e-12 "time energy" 0.25
    (Power_model.energy cubic ~speed:0.5 ~time:2.);
  (* 100 cycles at speed 0.5 take 200 time units at power 0.125 *)
  check_float 1e-9 "cycle energy" 25.
    (Power_model.energy_cycles cubic ~speed:0.5 ~cycles:100.);
  check_float 1e-12 "per-cycle" 0.25 (Power_model.energy_per_cycle cubic 0.5)

let test_critical_speed_closed_form () =
  (* s* = (p_ind / ((alpha-1) coeff))^(1/alpha) *)
  let expected = (0.08 /. (2. *. 1.52)) ** (1. /. 3.) in
  check_float 1e-9 "xscale critical" expected
    (Power_model.critical_speed xscale ~s_max:1.);
  check_float 1e-12 "no leakage -> no clamp" 0.
    (Power_model.critical_speed cubic ~s_max:1.);
  (* clamped by s_max when the minimizer is above it *)
  let leaky = Power_model.make ~p_ind:100. ~coeff:1. ~alpha:3. () in
  check_float 1e-12 "clamped at s_max" 1.
    (Power_model.critical_speed leaky ~s_max:1.)

let test_critical_speed_numeric_matches_scan () =
  (* with a linear term there is no closed form; compare to a fine scan *)
  let m = Power_model.make ~p_ind:0.1 ~linear:0.3 ~coeff:1. ~alpha:3. () in
  let s = Power_model.critical_speed m ~s_max:1. in
  let best_scan =
    List.fold_left
      (fun acc x ->
        if
          x > 0.
          && Power_model.energy_per_cycle m x
             < Power_model.energy_per_cycle m acc
        then x
        else acc)
      1.
      (Rt_prelude.Math_util.frange ~lo:0.001 ~hi:1. ~steps:2000)
  in
  check_float 1e-3 "numeric critical near scan optimum" best_scan s

let prop_power_increasing =
  qtest "P is non-decreasing in speed"
    QCheck2.Gen.(
      triple (float_range 0.0 0.5) (float_range 0.5 3.) (float_range 2. 3.))
    (fun (p_ind, coeff, alpha) ->
      let m = Power_model.make ~p_ind ~coeff ~alpha () in
      let xs = Rt_prelude.Math_util.frange ~lo:0.01 ~hi:1. ~steps:50 in
      let rec increasing = function
        | a :: (b :: _ as rest) ->
            Power_model.power m a <= Power_model.power m b +. 1e-12
            && increasing rest
        | _ -> true
      in
      increasing xs)

let prop_critical_speed_minimizes_per_cycle_energy =
  qtest "no sampled speed beats the critical speed on energy-per-cycle"
    QCheck2.Gen.(pair (float_range 0.01 0.5) (float_range 0.5 3.))
    (fun (p_ind, coeff) ->
      let m = Power_model.make ~p_ind ~coeff ~alpha:3. () in
      let s_star = Power_model.critical_speed m ~s_max:1. in
      let e_star = Power_model.energy_per_cycle m s_star in
      List.for_all
        (fun s -> e_star <= Power_model.energy_per_cycle m s +. 1e-9)
        (Rt_prelude.Math_util.frange ~lo:0.01 ~hi:1. ~steps:100))

(* ------------------------------------------------------------------ *)
(* Processor *)

let test_domain_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s should be rejected" name
  in
  expect_invalid "inverted ideal" (fun () ->
      Processor.make ~model:cubic
        ~domain:(Processor.Ideal { s_min = 0.5; s_max = 0.2 })
        ~dormancy:Processor.Dormant_disable);
  expect_invalid "unsorted levels" (fun () ->
      Processor.make ~model:cubic
        ~domain:(Processor.Levels [| 0.5; 0.2 |])
        ~dormancy:Processor.Dormant_disable);
  expect_invalid "zero level" (fun () ->
      Processor.make ~model:cubic
        ~domain:(Processor.Levels [| 0.; 0.5 |])
        ~dormancy:Processor.Dormant_disable);
  (* two levels the hull would price as one vertex: a step in the curve *)
  expect_invalid "levels within the tolerance" (fun () ->
      Processor.make ~model:cubic
        ~domain:(Processor.Levels [| 0.9; 1. -. 5e-10; 1. |])
        ~dormancy:Processor.Dormant_disable);
  (* levels 1e-7 apart are accepted *)
  ignore
    (Processor.make ~model:cubic
       ~domain:(Processor.Levels [| 0.5; 0.5 +. 1e-7; 1. |])
       ~dormancy:Processor.Dormant_disable);
  expect_invalid "negative switch overhead" (fun () ->
      Processor.make ~model:cubic
        ~domain:(Processor.Ideal { s_min = 0.; s_max = 1. })
        ~dormancy:(Processor.Dormant_enable { t_sw = -1.; e_sw = 0. }))

let test_presets () =
  let p = Processor.xscale ~dormancy:Processor.Dormant_disable in
  check_float 1e-12 "xscale s_max" 1. (Processor.s_max p);
  check_bool "ideal" true (Processor.is_ideal p);
  let pl = Processor.xscale_levels ~dormancy:Processor.Dormant_disable in
  check_bool "levels not ideal" false (Processor.is_ideal pl);
  check_float 1e-12 "levels s_min" 0.15 (Processor.s_min pl);
  check_float 1e-12 "levels s_max" 1.0 (Processor.s_max pl);
  let u = Processor.uniform_levels ~n:4 () in
  check_float 1e-12 "uniform levels s_min" 0.25 (Processor.s_min u)

let test_speed_feasible () =
  let ideal = Processor.xscale ~dormancy:Processor.Dormant_disable in
  check_bool "idle ok" true (Processor.speed_feasible ideal 0.);
  check_bool "interior ok" true (Processor.speed_feasible ideal 0.3);
  check_bool "above max" false (Processor.speed_feasible ideal 1.2);
  let lv = Processor.xscale_levels ~dormancy:Processor.Dormant_disable in
  check_bool "level hit" true (Processor.speed_feasible lv 0.6);
  check_bool "off-grid" false (Processor.speed_feasible lv 0.5);
  check_bool "idle always ok" true (Processor.speed_feasible lv 0.)

let test_levels_around () =
  let lv = Processor.xscale_levels ~dormancy:Processor.Dormant_disable in
  (match Processor.levels_around lv 0.5 with
  | Some (lo, hi) ->
      check_float 1e-12 "lo" 0.4 lo;
      check_float 1e-12 "hi" 0.6 hi
  | None -> Alcotest.fail "expected levels");
  (match Processor.levels_around lv 0.1 with
  | Some (lo, hi) ->
      check_float 1e-12 "bottom lo" 0.15 lo;
      check_float 1e-12 "bottom hi" 0.15 hi
  | None -> Alcotest.fail "expected bottom clamp");
  check_bool "above top" true (Processor.levels_around lv 1.5 = None);
  let ideal = Processor.xscale ~dormancy:Processor.Dormant_disable in
  Alcotest.check_raises "ideal raises"
    (Invalid_argument "Processor.levels_around: ideal domain") (fun () ->
      ignore (Processor.levels_around ideal 0.5))

let test_nearest_level_above () =
  let lv = Processor.xscale_levels ~dormancy:Processor.Dormant_disable in
  Alcotest.(check (option (float 1e-12)))
    "between levels" (Some 0.6)
    (Processor.nearest_level_above lv 0.45);
  Alcotest.(check (option (float 1e-12)))
    "above top" None
    (Processor.nearest_level_above lv 1.01);
  Alcotest.(check (option (float 1e-12)))
    "exact level" (Some 0.4)
    (Processor.nearest_level_above lv 0.4)

let test_processor_critical_speed () =
  (* discrete projection picks the level with the least per-cycle energy *)
  let lv =
    Processor.make ~model:xscale
      ~domain:(Processor.Levels [| 0.15; 0.4; 0.6; 0.8; 1.0 |])
      ~dormancy:(Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })
  in
  let s = Processor.critical_speed lv in
  let better l =
    Power_model.energy_per_cycle xscale l
    < Power_model.energy_per_cycle xscale s -. 1e-12
  in
  check_bool "no level beats the chosen one" false
    (List.exists better [ 0.15; 0.4; 0.6; 0.8; 1.0 ])

let test_idle_power () =
  let p = Processor.xscale ~dormancy:Processor.Dormant_disable in
  check_float 1e-12 "idle = leakage" 0.08 (Processor.idle_power p)

let () =
  Alcotest.run "rt_power"
    [
      ( "power_model",
        [
          Alcotest.test_case "power values" `Quick test_power_values;
          Alcotest.test_case "validation" `Quick test_make_validation;
          Alcotest.test_case "energy" `Quick test_energy;
          Alcotest.test_case "critical speed closed form" `Quick
            test_critical_speed_closed_form;
          Alcotest.test_case "critical speed numeric" `Quick
            test_critical_speed_numeric_matches_scan;
          prop_power_increasing;
          prop_critical_speed_minimizes_per_cycle_energy;
        ] );
      ( "processor",
        [
          Alcotest.test_case "domain validation" `Quick test_domain_validation;
          Alcotest.test_case "presets" `Quick test_presets;
          Alcotest.test_case "speed feasibility" `Quick test_speed_feasible;
          Alcotest.test_case "levels around" `Quick test_levels_around;
          Alcotest.test_case "nearest level above" `Quick
            test_nearest_level_above;
          Alcotest.test_case "critical level projection" `Quick
            test_processor_critical_speed;
          Alcotest.test_case "idle power" `Quick test_idle_power;
        ] );
    ]
