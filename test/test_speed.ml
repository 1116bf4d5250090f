(* Tests for rt_speed: the optimal energy-rate primitive, the synchronized
   Lagrange solver, and break-even/procrastination analysis. *)

open Rt_power
open Rt_speed
module Fc = Rt_prelude.Float_cmp

let check_float eps = Alcotest.(check (float eps))
let check_bool = Alcotest.(check bool)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let cubic_disable = Processor.cubic ()
let xscale_enable =
  Processor.xscale ~dormancy:(Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })
let xscale_disable = Processor.xscale ~dormancy:Processor.Dormant_disable
let levels_disable = Processor.xscale_levels ~dormancy:Processor.Dormant_disable
let levels_enable =
  Processor.xscale_levels
    ~dormancy:(Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })

let rate_exn proc u =
  match Energy_rate.rate proc ~u with
  | Some r -> r
  | None -> Alcotest.failf "expected feasible rate at u=%g" u

let plan_exn proc u =
  match Energy_rate.optimal proc ~u with
  | Some p -> p
  | None -> Alcotest.failf "expected feasible plan at u=%g" u

(* ------------------------------------------------------------------ *)
(* Energy_rate: ideal processors *)

let test_ideal_disable_no_leakage () =
  (* P(s) = s^3, dormant-disable, no leakage: run exactly at u *)
  check_float 1e-12 "rate u=0.5 is P(0.5)" 0.125 (rate_exn cubic_disable 0.5);
  check_float 1e-12 "rate u=1" 1. (rate_exn cubic_disable 1.);
  check_float 1e-12 "rate u=0" 0. (rate_exn cubic_disable 0.)

let test_ideal_disable_leakage_always_paid () =
  (* dormant-disable pays p_ind even at u=0 *)
  check_float 1e-12 "idle pays leakage" 0.08 (rate_exn xscale_disable 0.);
  (* at load u: p_ind + 1.52 u^3 (running at exactly u is best) *)
  check_float 1e-9 "u=0.5" (0.08 +. (1.52 *. 0.125)) (rate_exn xscale_disable 0.5)

let test_ideal_enable_critical_clamp () =
  (* dormant-enable clamps at the critical speed below it *)
  let s_star = Power_model.critical_speed xscale_enable.Processor.model ~s_max:1. in
  let u = s_star /. 2. in
  let expected = u *. Power_model.energy_per_cycle xscale_enable.Processor.model s_star in
  check_float 1e-9 "below critical: run at s*, sleep" expected
    (rate_exn xscale_enable u);
  (* above the critical speed: run continuously at u *)
  let u2 = Float.max 0.9 (s_star +. 0.1) in
  check_float 1e-9 "above critical: P(u)"
    (Power_model.power xscale_enable.Processor.model u2)
    (rate_exn xscale_enable u2);
  check_float 1e-12 "u=0 sleeps free" 0. (rate_exn xscale_enable 0.)

let test_infeasible_above_smax () =
  check_bool "u > s_max infeasible" true (Energy_rate.optimal cubic_disable ~u:1.1 = None);
  check_bool "levels: u > top infeasible" true
    (Energy_rate.optimal levels_disable ~u:1.05 = None)

(* ------------------------------------------------------------------ *)
(* Energy_rate: discrete levels *)

let test_levels_two_level_split () =
  (* u between 0.6 and 0.8 mixes those two levels (no-leakage variant) *)
  let proc =
    Processor.make
      ~model:(Power_model.make ~coeff:1. ~alpha:3. ())
      ~domain:(Processor.Levels [| 0.2; 0.4; 0.6; 0.8; 1.0 |])
      ~dormancy:Processor.Dormant_disable
  in
  let u = 0.7 in
  let plan = plan_exn proc u in
  check_float 1e-9 "throughput = u" u (Energy_rate.plan_throughput plan);
  (* linear interpolation of P between the two adjacent levels *)
  let p_lo = 0.6 ** 3. and p_hi = 0.8 ** 3. in
  let expected = p_lo +. ((u -. 0.6) /. 0.2 *. (p_hi -. p_lo)) in
  check_float 1e-9 "interpolated rate" expected plan.Energy_rate.rate;
  check_bool "plan validates" true
    (Energy_rate.validate proc ~u plan = Ok ())

let test_levels_exact_level () =
  let plan = plan_exn levels_disable 0.6 in
  check_float 1e-9 "rate at an exact level"
    (Power_model.power levels_disable.Processor.model 0.6)
    plan.Energy_rate.rate

let test_levels_enable_can_sleep () =
  (* tiny load on a dormant-enable leveled processor: run at the most
     efficient level briefly and sleep; rate is proportional to u *)
  let u = 0.01 in
  let r = rate_exn levels_enable u in
  let best_per_cycle =
    List.fold_left Float.min Float.infinity
      (List.map
         (Power_model.energy_per_cycle levels_enable.Processor.model)
         [ 0.15; 0.4; 0.6; 0.8; 1.0 ])
  in
  check_float 1e-9 "rate = u * best per-cycle energy" (u *. best_per_cycle) r

let test_levels_disable_idle_mixing () =
  (* dormant-disable leveled processor at u below the bottom level: run at
     some level part-time and idle at leakage the rest; never worse than
     always-on at the bottom level *)
  let u = 0.05 in
  let r = rate_exn levels_disable u in
  let bottom = 0.15 in
  let always_bottom =
    (* occupancy u/bottom at P(bottom), idle rest at leakage *)
    (u /. bottom *. Power_model.dynamic_power levels_disable.Processor.model bottom)
    +. 0.08
  in
  check_bool "hull no worse than naive bottom-level plan" true
    (Fc.leq ~eps:1e-9 r always_bottom)

let prop_rate_monotone_in_load =
  qtest "rate is non-decreasing in the load (all processor kinds)"
    QCheck2.Gen.(pair (int_range 0 3) (float_range 0. 0.99))
    (fun (kind, u) ->
      let proc =
        match kind with
        | 0 -> cubic_disable
        | 1 -> xscale_enable
        | 2 -> levels_disable
        | _ -> levels_enable
      in
      let r1 = rate_exn proc u and r2 = rate_exn proc (u +. 0.01) in
      Fc.leq ~eps:1e-9 r1 r2)

let prop_rate_convex =
  qtest "rate is midpoint-convex in the load"
    QCheck2.Gen.(
      triple (int_range 0 3) (float_range 0. 1.) (float_range 0. 1.))
    (fun (kind, a, b) ->
      let proc =
        match kind with
        | 0 -> cubic_disable
        | 1 -> xscale_enable
        | 2 -> levels_disable
        | _ -> levels_enable
      in
      let mid = (a +. b) /. 2. in
      rate_exn proc mid <= ((rate_exn proc a +. rate_exn proc b) /. 2.) +. 1e-9)

let prop_plans_validate =
  qtest "every emitted plan passes validation"
    QCheck2.Gen.(pair (int_range 0 3) (float_range 0. 1.))
    (fun (kind, u) ->
      let proc =
        match kind with
        | 0 -> cubic_disable
        | 1 -> xscale_enable
        | 2 -> levels_disable
        | _ -> levels_enable
      in
      match Energy_rate.optimal proc ~u with
      | None -> false
      | Some plan -> Energy_rate.validate proc ~u plan = Ok ())

(* [optimal] either raises, returns [None] (past capacity) or a plan;
   [prepare_energy] must raise [Invalid_argument] in the first two cases
   and return the plan's rate times the horizon, to the bit, in the
   third. The loads cover [0, s_max] and the guard's edges: the
   clamped residues (-0., -1e-17, -1e-10), a load just past s_max but
   inside the tolerance, and the rejected ones (below -1e-9, NaN, the
   infinities, past the tolerance). *)
let prop_prepare_energy_is_rate_times_horizon =
  qtest ~count:600 "prepare_energy = optimal rate * horizon, bit for bit"
    QCheck2.Gen.(
      triple (int_range 0 4)
        (frequency
           [
             (1, return (`Scaled 0.));
             (1, return (`Scaled 1.));
             (8, map (fun x -> `Scaled x) (float_range 0. 1.));
             (1, return (`Scaled (1. +. 5e-10)));
             (1, return (`Scaled (1. +. 3e-9)));
             (1, return (`Scaled 1.5));
             ( 2,
               map
                 (fun u -> `Raw u)
                 (oneofl
                    [
                      -0.; -1e-17; -1e-10; -1e-9; -1.5e-9; -1.; Float.nan;
                      Float.infinity; Float.neg_infinity;
                    ]) );
           ])
        (float_range 0. 1e4))
    (fun (kind, x, horizon) ->
      let proc =
        match kind with
        | 0 -> cubic_disable
        | 1 -> xscale_enable
        | 2 -> levels_disable
        | 3 -> levels_enable
        | _ -> xscale_disable
      in
      let u =
        match x with
        | `Scaled f -> f *. Processor.s_max proc
        | `Raw u -> u
      in
      let energy () = Energy_rate.prepare_energy proc ~horizon u in
      let raises f =
        match f () with _ -> false | exception Invalid_argument _ -> true
      in
      match Energy_rate.optimal proc ~u with
      | exception Invalid_argument _ -> raises energy
      | None -> raises energy
      | Some plan ->
          Int64.equal
            (Int64.bits_of_float (energy ()))
            (Int64.bits_of_float (plan.Energy_rate.rate *. horizon)))

(* the speeds where a curve changes form: its levels, or [s_min] and the
   critical speed *)
let kinks (proc : Processor.t) =
  match proc.Processor.domain with
  | Processor.Levels ls -> ls
  | Processor.Ideal { s_min; _ } -> [| s_min; Processor.critical_speed proc |]

(* Rounding allowance of the convexity property, in units of
   2^-53 * E(s_max): four evaluations of a few ulps each and three
   subtractions, the evaluation-error term of the gap test's bound. Three
   million draws of this generator saw at most 5.3 (on the level
   processors). *)
let convexity_ulps = 32.

(* Local search skips a move or swap that spreads two loads apart
   without passing s_max, because [prepare_energy] is non-decreasing and
   convex on [0, s_max]. On a grid of 2^40 steps, where sums are exact:
   for a <= b <= c <= d with a + d = b + c, E(b) <= E(c) and
   E(a) + E(d) >= E(b) + E(c), each within [convexity_ulps] of E(s_max).
   Half the draws put [b] or [c] within 2^-30 of a kink. *)
let prop_prepare_energy_convex =
  let grid = 1 lsl 40 in
  qtest ~count:2000 "prepare_energy is non-decreasing and convex on [0, s_max]"
    QCheck2.Gen.(
      let* k = int_range 0 (Gap_procs.count - 1) in
      let* alpha = float_range 2. 3. in
      let* p_ind = float_range 0. 0.2 in
      let* sleeps = bool in
      let* horizon = oneofl [ 1.; 1000.; 1e6 ] in
      let* b = int_range 0 grid in
      let* c = int_range 0 grid in
      let* snap = int_range 0 3 in
      let* kink = int_range 0 4 in
      let* jitter = int_range (-1024) 1024 in
      let* spread = float_range 0. 1. in
      pure ((k, alpha, p_ind, sleeps, horizon), (b, c, snap, kink, jitter, spread)))
    (fun ((k, alpha, p_ind, sleeps, horizon), (b, c, snap, kink, jitter, spread))
       ->
      let proc = snd (Gap_procs.all ~alpha ~p_ind ~sleeps).(k) in
      let top = Processor.s_max proc in
      let step = top /. float_of_int grid in
      let ks = kinks proc in
      let near =
        let v = ks.(kink mod Array.length ks) in
        max 0 (min grid (int_of_float (v /. step) + jitter))
      in
      let b = if snap = 1 then near else b
      and c = if snap = 2 then near else c in
      let b, c = (min b c, max b c) in
      let t = int_of_float (spread *. float_of_int (min b (grid - c))) in
      let a = b - t and d = c + t in
      let e i = Energy_rate.prepare_energy proc ~horizon (float_of_int i *. step) in
      let tol = convexity_ulps *. epsilon_float /. 2. *. e grid in
      e b <= e c +. tol && e a +. e d >= e b +. e c -. tol)

(* The dormancy rules have one owner: on every processor of the gap-test
   list, an idle processor costs [rest_power] to the bit, and on an ideal
   one a load below [floor_speed] runs at [floor_speed] and rests. *)
let prop_dormancy_owner =
  qtest ~count:300 "prepare_energy and optimal follow rest_power and floor_speed"
    QCheck2.Gen.(
      let* k = int_range 0 (Gap_procs.count - 1) in
      let* alpha = float_range 2. 3. in
      let* p_ind = float_range 0. 0.2 in
      let* sleeps = bool in
      let* frac = float_range 0. 1. in
      pure (k, alpha, p_ind, sleeps, frac))
    (fun (k, alpha, p_ind, sleeps, frac) ->
      let proc = snd (Gap_procs.all ~alpha ~p_ind ~sleeps).(k) in
      let rest = Processor.rest_power proc in
      let s_floor = Processor.floor_speed proc in
      let u = frac *. s_floor in
      Int64.equal
        (Int64.bits_of_float (Energy_rate.prepare_energy proc ~horizon:1. 0.))
        (Int64.bits_of_float rest)
      && ((not (Processor.is_ideal proc))
         || Fc.exact_le s_floor 0. || Fc.exact_le u 0.
         || Fc.exact_ge u s_floor
         ||
         let speeds =
           List.map
             (fun (s : Energy_rate.segment) -> s.speed)
             (plan_exn proc u).Energy_rate.segments
         in
         List.exists (Fc.exact_eq s_floor) speeds
         && List.for_all
              (fun s -> Fc.exact_eq s s_floor || Fc.exact_eq s 0.)
              speeds))

let prop_no_single_speed_beats_plan =
  qtest "no feasible single sustained speed beats the optimal plan"
    QCheck2.Gen.(pair (float_range 0.01 1.) (float_range 0.01 0.4))
    (fun (u, p_ind) ->
      let proc =
        Processor.make
          ~model:(Power_model.make ~p_ind ~coeff:1. ~alpha:3. ())
          ~domain:(Processor.Ideal { s_min = 0.; s_max = 1. })
          ~dormancy:(Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })
      in
      let r = rate_exn proc u in
      (* any single speed s >= u: run for u/s of the time, sleep rest *)
      List.for_all
        (fun s ->
          if s < u then true
          else
            r
            <= (u /. s *. Power_model.power proc.Processor.model s) +. 1e-9)
        (Rt_prelude.Math_util.frange ~lo:u ~hi:1. ~steps:50))

(* ------------------------------------------------------------------ *)
(* Sync_global *)

let test_sync_rejects_bad_model () =
  let leaky = Power_model.make ~p_ind:0.1 ~coeff:1. ~alpha:3. () in
  check_bool "p_ind rejected" true
    (Result.is_error (Sync_global.solve leaky ~window:1. ~workloads:[| 1. |]))

let test_sync_single_processor () =
  let m = Power_model.make ~coeff:1. ~alpha:3. () in
  match Sync_global.solve m ~window:2. ~workloads:[| 1. |] with
  | Error e -> Alcotest.fail e
  | Ok s ->
      (* one processor: run at w/D the whole window *)
      check_float 1e-9 "energy = Pd(w/D)·D" (0.5 ** 3. *. 2.) s.Sync_global.energy;
      check_float 1e-9 "peak speed" 0.5 s.Sync_global.peak_speed

let test_sync_equal_workloads () =
  let m = Power_model.make ~coeff:1. ~alpha:3. () in
  match Sync_global.solve m ~window:1. ~workloads:[| 0.6; 0.6; 0.6 |] with
  | Error e -> Alcotest.fail e
  | Ok s ->
      (* all equal: single interval, all three active at speed 0.6 *)
      check_float 1e-9 "energy" (3. *. (0.6 ** 3.)) s.Sync_global.energy;
      Alcotest.(check int) "one interval" 1 (List.length s.Sync_global.intervals)

let test_sync_durations_sum_to_window () =
  let m = Power_model.make ~coeff:1. ~alpha:3. () in
  match Sync_global.solve m ~window:5. ~workloads:[| 0.5; 1.5; 2.5; 2.5 |] with
  | Error e -> Alcotest.fail e
  | Ok s ->
      let total =
        List.fold_left
          (fun acc i -> acc +. i.Sync_global.duration)
          0. s.Sync_global.intervals
      in
      check_float 1e-9 "durations fill the window" 5. total

let test_sync_beats_or_matches_worse_splits () =
  (* the KKT split should beat the naive equal-time split *)
  let m = Power_model.make ~coeff:1. ~alpha:3. () in
  let workloads = [| 1.0; 3.0 |] in
  match Sync_global.solve m ~window:2. ~workloads with
  | Error e -> Alcotest.fail e
  | Ok s ->
      (* naive: t1 = t2 = 1; deltas 1 and 2; energy = 2·Pd(1)·1 + 1·Pd(2)·1 *)
      let naive = (2. *. 1.) +. (1. *. 8.) in
      check_bool "KKT split no worse than equal split" true
        (Fc.leq ~eps:1e-9 s.Sync_global.energy naive)

let prop_sync_no_worse_than_any_two_interval_split =
  qtest "2-proc KKT energy <= any sampled manual split" ~count:60
    QCheck2.Gen.(pair (float_range 0.2 1.5) (float_range 1.5 3.))
    (fun (w1, w2) ->
      let m = Power_model.make ~coeff:1. ~alpha:3. () in
      match Sync_global.solve m ~window:2. ~workloads:[| w1; w2 |] with
      | Error _ -> false
      | Ok s ->
          List.for_all
            (fun t1 ->
              let t2 = 2. -. t1 in
              let delta = w2 -. w1 in
              let manual =
                (2. *. (w1 /. t1) ** 3. *. t1)
                +. (if delta > 0. then (delta /. t2) ** 3. *. t2 else 0.)
              in
              Fc.leq ~eps:1e-6 s.Sync_global.energy manual)
            (Rt_prelude.Math_util.frange ~lo:0.2 ~hi:1.8 ~steps:30))

let prop_sync_staircase_structure =
  qtest ~count:60 "sync schedule: active counts strictly decrease, speeds rise"
    QCheck2.Gen.(list_size (int_range 2 6) (float_range 0.1 2.))
    (fun workloads ->
      let m = Power_model.make ~coeff:1. ~alpha:3. () in
      match
        Sync_global.solve m ~window:1. ~workloads:(Array.of_list workloads)
      with
      | Error _ -> false
      | Ok s ->
          let rec ok = function
            | a :: (b :: _ as rest) ->
                a.Sync_global.active > b.Sync_global.active
                && a.Sync_global.speed <= b.Sync_global.speed +. 1e-9
                && ok rest
            | _ -> true
          in
          ok s.Sync_global.intervals)

let test_sync_independent_reference () =
  let m = Power_model.make ~coeff:1. ~alpha:3. () in
  let e = Sync_global.energy_independent m ~window:2. ~workloads:[| 1.; 2. |] in
  check_float 1e-9 "independent rails energy"
    (((0.5 ** 3.) *. 2.) +. ((1. ** 3.) *. 2.))
    e;
  (* synchronized constraint can only cost more *)
  match Sync_global.solve m ~window:2. ~workloads:[| 1.; 2. |] with
  | Error err -> Alcotest.fail err
  | Ok s -> check_bool "sync >= independent" true (s.Sync_global.energy >= e -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Procrastinate *)

let enable ~t_sw ~e_sw ~p_ind =
  Processor.make
    ~model:(Power_model.make ~p_ind ~coeff:1.52 ~alpha:3. ())
    ~domain:(Processor.Ideal { s_min = 0.; s_max = 1. })
    ~dormancy:(Processor.Dormant_enable { t_sw; e_sw })

let test_break_even () =
  let p = enable ~t_sw:0.1 ~e_sw:0.4 ~p_ind:0.08 in
  check_float 1e-9 "dominated by energy" (0.4 /. 0.08)
    (Procrastinate.break_even_time p);
  let p2 = enable ~t_sw:10. ~e_sw:0.4 ~p_ind:0.08 in
  check_float 1e-9 "dominated by switch time" 10. (Procrastinate.break_even_time p2);
  check_bool "disable never sleeps" true
    (Procrastinate.break_even_time cubic_disable = Float.infinity)

let test_idle_energy () =
  let p = enable ~t_sw:0.1 ~e_sw:0.4 ~p_ind:0.08 in
  (* short gap: staying awake is cheaper *)
  check_float 1e-12 "short gap awake" (0.08 *. 1.) (Procrastinate.idle_energy p ~interval:1.);
  (* long gap: sleeping caps the cost at E_sw *)
  check_float 1e-12 "long gap sleeps" 0.4 (Procrastinate.idle_energy p ~interval:100.);
  check_bool "should_sleep long" true (Procrastinate.should_sleep p ~interval:100.);
  check_bool "should_sleep short" false (Procrastinate.should_sleep p ~interval:1.)

let test_idle_fragmentation_hurts () =
  let p = enable ~t_sw:0.1 ~e_sw:0.4 ~p_ind:0.08 in
  let coalesced = Procrastinate.idle_energy_fragmented p ~total_idle:50. ~gaps:1 in
  let fragmented = Procrastinate.idle_energy_fragmented p ~total_idle:50. ~gaps:100 in
  check_bool "fragmented idle costs at least as much" true
    (fragmented >= coalesced -. 1e-12);
  check_float 1e-12 "coalesced = one sleep" 0.4 coalesced

let prop_fragmentation_monotone =
  qtest "more gaps never save energy"
    QCheck2.Gen.(pair (float_range 1. 100.) (int_range 1 20))
    (fun (total_idle, gaps) ->
      let p = enable ~t_sw:0.05 ~e_sw:0.3 ~p_ind:0.08 in
      Procrastinate.idle_energy_fragmented p ~total_idle ~gaps
      <= Procrastinate.idle_energy_fragmented p ~total_idle ~gaps:(gaps * 2)
         +. 1e-9)

let () =
  Alcotest.run "rt_speed"
    [
      ( "energy_rate_ideal",
        [
          Alcotest.test_case "disable, no leakage" `Quick
            test_ideal_disable_no_leakage;
          Alcotest.test_case "disable, leakage" `Quick
            test_ideal_disable_leakage_always_paid;
          Alcotest.test_case "enable, critical clamp" `Quick
            test_ideal_enable_critical_clamp;
          Alcotest.test_case "infeasible above s_max" `Quick
            test_infeasible_above_smax;
        ] );
      ( "energy_rate_levels",
        [
          Alcotest.test_case "two-level split" `Quick test_levels_two_level_split;
          Alcotest.test_case "exact level" `Quick test_levels_exact_level;
          Alcotest.test_case "enable sleeps" `Quick test_levels_enable_can_sleep;
          Alcotest.test_case "disable idle mixing" `Quick
            test_levels_disable_idle_mixing;
        ] );
      ( "energy_rate_properties",
        [
          prop_rate_monotone_in_load;
          prop_rate_convex;
          prop_plans_validate;
          prop_no_single_speed_beats_plan;
          prop_prepare_energy_is_rate_times_horizon;
          prop_prepare_energy_convex;
          prop_dormancy_owner;
        ] );
      ( "sync_global",
        [
          Alcotest.test_case "model validation" `Quick test_sync_rejects_bad_model;
          Alcotest.test_case "single processor" `Quick test_sync_single_processor;
          Alcotest.test_case "equal workloads" `Quick test_sync_equal_workloads;
          Alcotest.test_case "durations fill window" `Quick
            test_sync_durations_sum_to_window;
          Alcotest.test_case "beats equal split" `Quick
            test_sync_beats_or_matches_worse_splits;
          prop_sync_no_worse_than_any_two_interval_split;
          prop_sync_staircase_structure;
          Alcotest.test_case "independent reference" `Quick
            test_sync_independent_reference;
        ] );
      ( "procrastinate",
        [
          Alcotest.test_case "break-even" `Quick test_break_even;
          Alcotest.test_case "idle energy" `Quick test_idle_energy;
          Alcotest.test_case "fragmentation hurts" `Quick
            test_idle_fragmentation_hurts;
          prop_fragmentation_monotone;
        ] );
    ]
