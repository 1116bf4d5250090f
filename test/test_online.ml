(* Tests for rt_online: job streams and the online admission controller. *)

open Rt_online
module Fc = Rt_prelude.Float_cmp

let check_float eps = Alcotest.(check (float eps))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let proc =
  Rt_power.Processor.xscale
    ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })

let job ~id ~arrival ~cycles ~deadline ~penalty =
  Job.make ~id ~arrival ~cycles ~deadline ~penalty

let simulate_exn ~policy jobs =
  match Admission.simulate ~proc ~policy jobs with
  | Ok o -> o
  | Error e -> Alcotest.failf "simulate: %s" (Admission.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Job *)

let test_job_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s should be rejected" name
  in
  expect_invalid "deadline before arrival" (fun () ->
      job ~id:0 ~arrival:5. ~cycles:1. ~deadline:4. ~penalty:0.);
  expect_invalid "zero cycles" (fun () ->
      job ~id:0 ~arrival:0. ~cycles:0. ~deadline:1. ~penalty:0.);
  expect_invalid "negative penalty" (fun () ->
      job ~id:0 ~arrival:0. ~cycles:1. ~deadline:1. ~penalty:(-1.))

let test_stream_properties () =
  let rng = Rt_prelude.Rng.create ~seed:3 in
  let jobs =
    Job.stream rng ~n:100 ~rate:0.01 ~s_max:1. ~mean_cycles:30. ~slack_lo:2.
      ~slack_hi:6. ~penalty_factor:1.5
  in
  check_int "count" 100 (List.length jobs);
  let sorted = Job.by_arrival jobs in
  check_bool "already time-ordered" true (sorted = jobs);
  check_bool "deadlines leave schedulable laxity" true
    (List.for_all
       (fun (j : Job.t) -> Job.laxity_speed j <= 1. /. 2. +. 1e-9)
       jobs)

let test_stream_seq_matches_stream () =
  (* the lazy form forced to completion is the list form, element for
     element, for the same seed *)
  let materialize seed =
    let rng = Rt_prelude.Rng.create ~seed in
    Job.stream rng ~n:60 ~rate:0.05 ~s_max:1. ~mean_cycles:20. ~slack_lo:1.5
      ~slack_hi:5. ~penalty_factor:1.2
  in
  let lazily seed =
    let rng = Rt_prelude.Rng.create ~seed in
    Job.stream_seq rng ~limit:60 ~rate:0.05 ~s_max:1. ~mean_cycles:20.
      ~slack_lo:1.5 ~slack_hi:5. ~penalty_factor:1.2 ()
    |> List.of_seq
  in
  check_bool "stream_seq = stream" true (materialize 9 = lazily 9);
  (* unlimited form: pulling a prefix matches too, without forcing more *)
  let rng = Rt_prelude.Rng.create ~seed:9 in
  let prefix =
    Job.stream_seq rng ~rate:0.05 ~s_max:1. ~mean_cycles:20. ~slack_lo:1.5
      ~slack_hi:5. ~penalty_factor:1.2 ()
    |> Seq.take 10 |> List.of_seq
  in
  check_bool "unbounded prefix matches" true
    (prefix = List.filteri (fun i _ -> i < 10) (materialize 9))

(* ------------------------------------------------------------------ *)
(* Admission: hand-built scenarios *)

let test_single_job_runs_at_critical () =
  (* one tiny job with a loose deadline: runs at the critical speed *)
  let j = job ~id:0 ~arrival:0. ~cycles:10. ~deadline:1000. ~penalty:1e6 in
  let o = simulate_exn ~policy:Admission.Admit_all [ j ] in
  check_int "admitted" 1 (List.length o.Admission.admitted);
  let s_crit = Rt_power.Processor.critical_speed proc in
  let expected =
    10. /. s_crit
    *. Rt_power.Power_model.power proc.Rt_power.Processor.model s_crit
  in
  check_float 1e-6 "energy at critical speed" expected o.Admission.energy;
  check_float 1e-6 "makespan" (10. /. s_crit) o.Admission.makespan

let test_forced_rejection () =
  (* two jobs that cannot both fit even at top speed *)
  let j0 = job ~id:0 ~arrival:0. ~cycles:90. ~deadline:100. ~penalty:1. in
  let j1 = job ~id:1 ~arrival:0. ~cycles:90. ~deadline:100. ~penalty:1. in
  let o = simulate_exn ~policy:Admission.Admit_all [ j0; j1 ] in
  check_int "one forced out" 1 o.Admission.forced_rejections;
  check_int "one admitted" 1 (List.length o.Admission.admitted);
  check_float 1e-9 "penalty paid" 1. o.Admission.penalty

let test_profitable_declines_cheap_jobs () =
  (* tight deadline -> runs near top speed; penalty below that energy *)
  let j = job ~id:0 ~arrival:0. ~cycles:100. ~deadline:101. ~penalty:0.5 in
  let o = simulate_exn ~policy:Admission.Profitable [ j ] in
  check_int "declined" 1 (List.length o.Admission.rejected);
  check_int "not forced" 0 o.Admission.forced_rejections;
  (* the same job with a huge penalty is taken *)
  let j2 = job ~id:0 ~arrival:0. ~cycles:100. ~deadline:101. ~penalty:1e6 in
  let o2 = simulate_exn ~policy:Admission.Profitable [ j2 ] in
  check_int "taken when worth it" 1 (List.length o2.Admission.admitted)

let test_density_threshold () =
  let j_cheap = job ~id:0 ~arrival:0. ~cycles:10. ~deadline:100. ~penalty:1. in
  let j_dear = job ~id:1 ~arrival:0. ~cycles:10. ~deadline:100. ~penalty:50. in
  let o =
    simulate_exn ~policy:(Admission.Density_threshold 1.) [ j_cheap; j_dear ]
  in
  Alcotest.(check (list int)) "keeps the valuable job" [ 1 ] o.Admission.admitted;
  Alcotest.(check (list int)) "drops the cheap one" [ 0 ] o.Admission.rejected

let test_preemption_by_tighter_deadline () =
  (* a long loose job is preempted by a later tight one; both meet their
     deadlines thanks to the density speed-up *)
  let j0 = job ~id:0 ~arrival:0. ~cycles:50. ~deadline:200. ~penalty:1e6 in
  let j1 = job ~id:1 ~arrival:10. ~cycles:30. ~deadline:50. ~penalty:1e6 in
  let o = simulate_exn ~policy:Admission.Admit_all [ j0; j1 ] in
  check_int "both admitted" 2 (List.length o.Admission.admitted);
  check_bool "work done before the last deadline" true
    (Fc.leq ~eps:1e-6 o.Admission.makespan 200.)

(* The executor owns the duplicate-id rule: whatever became of the first
   copy, a repeat is the same typed error from both simulators. *)
let test_duplicate_ids_rejected () =
  let first = job ~id:0 ~arrival:0. ~cycles:5. ~deadline:100. ~penalty:0. in
  let later = job ~id:0 ~arrival:1. ~cycles:1. ~deadline:50. ~penalty:0. in
  (* the premises: alone, the first copy is admitted and still pending
     when [later] arrives, or declined under [Profitable] *)
  let o = simulate_exn ~policy:Admission.Admit_all [ first ] in
  Alcotest.(check (list int)) "admitted alone" [ 0 ] o.Admission.admitted;
  check_bool "still pending at the repeat" true (o.Admission.makespan > 1.);
  let o = simulate_exn ~policy:Admission.Profitable [ first ] in
  Alcotest.(check (list int)) "declined alone" [ 0 ] o.Admission.rejected;
  check_int "not forced" 0 o.Admission.forced_rejections;
  let dup = Error (Admission.Invalid "Admission.simulate: duplicate job ids") in
  List.iter
    (fun (name, policy, jobs) ->
      check_bool (name ^ ", simulate") true
        (Admission.simulate ~proc ~policy jobs = dup);
      check_bool (name ^ ", simulate_mp ~m:4") true
        (Admission.simulate_mp ~proc ~m:4 ~policy jobs = dup))
    [
      ("repeat at the same arrival", Admission.Admit_all, [ first; first ]);
      ("repeat of a pending job", Admission.Admit_all, [ later; first ]);
      ("repeat of a declined job", Admission.Profitable, [ later; first ]);
    ]

let test_levels_unsupported () =
  let lv = Rt_power.Processor.xscale_levels ~dormancy:Rt_power.Processor.Dormant_disable in
  let j = job ~id:0 ~arrival:0. ~cycles:1. ~deadline:10. ~penalty:0. in
  check_bool "discrete domain refused" true
    (Result.is_error (Admission.simulate ~proc:lv ~policy:Admission.Admit_all [ j ]))

(* ------------------------------------------------------------------ *)
(* properties over random streams *)

let random_stream seed =
  let rng = Rt_prelude.Rng.create ~seed in
  let rate = Rt_prelude.Rng.float rng ~lo:0.005 ~hi:0.05 in
  Job.stream rng ~n:60 ~rate ~s_max:1. ~mean_cycles:25. ~slack_lo:1.5
    ~slack_hi:8. ~penalty_factor:1.2

let policies =
  [
    Admission.Admit_all;
    Admission.Profitable;
    Admission.Density_threshold 0.5;
  ]

let prop_simulation_sound =
  qtest "every policy: no misses, jobs partitioned, cost adds up"
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let jobs = random_stream seed in
      List.for_all
        (fun policy ->
          match Admission.simulate ~proc ~policy jobs with
          | Error _ -> false
          | Ok o ->
              List.length o.Admission.admitted
              + List.length o.Admission.rejected
              = List.length jobs
              && Fc.approx_eq ~eps:1e-9 o.Admission.total
                   (o.Admission.energy +. o.Admission.penalty))
        policies)

let prop_above_lower_bound =
  qtest "every policy's cost is at least the per-job lower bound"
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let jobs = random_stream seed in
      let lb = Admission.lower_bound ~proc jobs in
      List.for_all
        (fun policy ->
          match Admission.simulate ~proc ~policy jobs with
          | Error _ -> false
          | Ok o -> o.Admission.total >= lb -. 1e-6)
        policies)

let prop_admit_all_never_rejects_feasible =
  qtest "Admit_all only rejects when the admission test fails"
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let jobs = random_stream seed in
      match Admission.simulate ~proc ~policy:Admission.Admit_all jobs with
      | Error _ -> false
      | Ok o -> List.length o.Admission.rejected = o.Admission.forced_rejections)

(* ------------------------------------------------------------------ *)
(* multiprocessor admission *)

let prop_mp_m1_equals_uniprocessor =
  qtest ~count:40 "simulate_mp with m=1 coincides with simulate"
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let jobs = random_stream seed in
      List.for_all
        (fun policy ->
          match
            ( Admission.simulate ~proc ~policy jobs,
              Admission.simulate_mp ~proc ~m:1 ~policy jobs )
          with
          | Ok a, Ok b ->
              a.Admission.admitted = b.Admission.admitted
              && Fc.approx_eq ~eps:1e-9 a.Admission.total b.Admission.total
          | _ -> false)
        policies)

let prop_mp_more_processors_admit_more =
  qtest ~count:40 "more processors never force more rejections (admit-all)"
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let rng = Rt_prelude.Rng.create ~seed in
      (* heavy stream so forced rejections actually occur at m=1 *)
      let jobs =
        Job.stream rng ~n:60 ~rate:0.08 ~s_max:1. ~mean_cycles:25.
          ~slack_lo:1.2 ~slack_hi:4. ~penalty_factor:1.
      in
      let forced m =
        match Admission.simulate_mp ~proc ~m ~policy:Admission.Admit_all jobs with
        | Ok o -> Some o.Admission.forced_rejections
        | Error _ -> None
      in
      match (forced 1, forced 2, forced 4) with
      | Some f1, Some f2, Some f4 -> f2 <= f1 && f4 <= f2
      | _ -> false)

let test_mp_spreads_load () =
  (* two simultaneous tight jobs need two processors *)
  let j0 = job ~id:0 ~arrival:0. ~cycles:90. ~deadline:100. ~penalty:10. in
  let j1 = job ~id:1 ~arrival:0. ~cycles:90. ~deadline:100. ~penalty:10. in
  (match Admission.simulate_mp ~proc ~m:2 ~policy:Admission.Admit_all [ j0; j1 ] with
  | Error e -> Alcotest.fail (Admission.error_to_string e)
  | Ok o ->
      check_int "both admitted on two processors" 2
        (List.length o.Admission.admitted));
  match Admission.simulate ~proc ~policy:Admission.Admit_all [ j0; j1 ] with
  | Error e -> Alcotest.fail (Admission.error_to_string e)
  | Ok o -> check_int "one forced out on one processor" 1 o.Admission.forced_rejections

(* Past 2^24 one ulp of a stream time exceeds the executor's 1e-9
   completion tolerance: a job whose last sliver of work finishes within
   that ulp makes a dt = 0 step, which must complete it rather than
   repeat. Shifted streams must terminate, admit the same jobs and cost
   the same up to rounding. *)
let test_mp_time_shift_terminates () =
  let shift t (j : Job.t) =
    job ~id:j.Job.id ~arrival:(j.Job.arrival +. t) ~cycles:j.Job.cycles
      ~deadline:(j.Job.deadline +. t) ~penalty:j.Job.penalty
  in
  let run jobs =
    match
      Admission.simulate_mp ~proc ~m:2 ~policy:Admission.Profitable jobs
    with
    | Ok o -> o
    | Error e -> Alcotest.fail (Admission.error_to_string e)
  in
  List.iter
    (fun seed ->
      let jobs =
        Job.stream
          (Rt_prelude.Rng.create ~seed)
          ~n:5000 ~rate:0.02 ~s_max:1. ~mean_cycles:25. ~slack_lo:1.5
          ~slack_hi:8. ~penalty_factor:1.2
      in
      let base = run jobs in
      List.iter
        (fun t ->
          let o = run (List.map (shift t) jobs) in
          let tag = Printf.sprintf "seed %d shifted by %g" seed t in
          Alcotest.(check (list int))
            (tag ^ ": admitted ids") base.Admission.admitted
            o.Admission.admitted;
          check_bool (tag ^ ": total within 1e-9 relative") true
            (Fc.exact_le
               (Float.abs (o.Admission.total -. base.Admission.total))
               (1e-9 *. Float.abs base.Admission.total)))
        [ 0x1p24; 0x1p30 ])
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* YDS *)

let test_yds_single_job () =
  let j = job ~id:0 ~arrival:10. ~cycles:40. ~deadline:90. ~penalty:0. in
  (match Yds.blocks [ j ] with
  | [ b ] ->
      check_float 1e-9 "intensity = laxity speed" 0.5 b.Yds.intensity;
      check_float 1e-9 "length" 80. b.Yds.length;
      check_float 1e-9 "work" 40. b.Yds.work
  | _ -> Alcotest.fail "one block expected")

let test_yds_textbook () =
  (* two nested jobs: the tight inner one defines the critical interval *)
  let outer = job ~id:0 ~arrival:0. ~cycles:20. ~deadline:100. ~penalty:0. in
  let inner = job ~id:1 ~arrival:40. ~cycles:30. ~deadline:60. ~penalty:0. in
  match Yds.blocks [ outer; inner ] with
  | [ b1; b2 ] ->
      check_float 1e-9 "critical intensity" 1.5 b1.Yds.intensity;
      check_float 1e-9 "critical length" 20. b1.Yds.length;
      (* after excision the outer job has 80 time units for 20 cycles *)
      check_float 1e-9 "second intensity" 0.25 b2.Yds.intensity;
      check_bool "non-increasing" true (b1.Yds.intensity >= b2.Yds.intensity)
  | bs -> Alcotest.failf "expected 2 blocks, got %d" (List.length bs)

(* The quartic kernel [Yds.blocks] replaced, verbatim but for the
   qualified block type and the duplicate-id check: every window priced
   by a fold over the live jobs in input order. [Yds.blocks] must equal
   it bit for bit. *)
module Yds_reference = struct
  type jv = { mutable a : float; mutable d : float; c : float }

  let critical_interval jvs =
    let starts = List.sort_uniq Float.compare (List.map (fun j -> j.a) jvs) in
    let ends = List.sort_uniq Float.compare (List.map (fun j -> j.d) jvs) in
    let best = ref None in
    List.iter
      (fun t1 ->
        List.iter
          (fun t2 ->
            if Fc.exact_gt t2 t1 then begin
              let work =
                List.fold_left
                  (fun acc j ->
                    if Fc.exact_ge j.a t1 && Fc.exact_le j.d t2 then acc +. j.c
                    else acc)
                  0. jvs
              in
              if Fc.exact_gt work 0. then begin
                let intensity = work /. (t2 -. t1) in
                match !best with
                | Some (bi, _, _, _) when Fc.exact_ge bi (intensity -. 1e-15) -> ()
                | _ -> best := Some (intensity, t1, t2, work)
              end
            end)
          ends)
      starts;
    !best

  let blocks jobs =
    let jvs =
      List.map
        (fun (j : Job.t) -> { a = j.Job.arrival; d = j.Job.deadline; c = j.Job.cycles })
        jobs
    in
    let rec go jvs acc =
      match critical_interval jvs with
      | None -> List.rev acc
      | Some (intensity, t1, t2, work) ->
          let length = t2 -. t1 in
          let survivors =
            List.filter
              (fun j -> not (Fc.exact_ge j.a t1 && Fc.exact_le j.d t2))
              jvs
          in
          (* excise [t1, t2]: times inside the window collapse onto t1 *)
          let squeeze t =
            if Fc.exact_le t t1 then t
            else if Fc.exact_ge t t2 then t -. length
            else t1
          in
          List.iter
            (fun j ->
              j.a <- squeeze j.a;
              j.d <- squeeze j.d)
            survivors;
          go survivors ({ Yds.intensity; length; work } :: acc)
    in
    go jvs []
end

let same_blocks_as_reference jobs =
  Marshal.to_string (Yds.blocks jobs) []
  = Marshal.to_string (Yds_reference.blocks jobs) []

(* Job.stream at rates 0.01 .. 1.0 (load 0.25 .. 25 at 25 mean cycles) *)
let gen_yds_stream =
  QCheck2.Gen.(
    map3
      (fun seed n rate ->
        let rng = Rt_prelude.Rng.create ~seed in
        Job.stream rng ~n ~rate ~s_max:1. ~mean_cycles:25. ~slack_lo:1.2
          ~slack_hi:4. ~penalty_factor:1.)
      (int_range 1 1_000_000) (int_range 1 80) (float_range 0.01 1.0))

let prop_yds_matches_reference_streams =
  qtest ~count:300 "YDS blocks equal the reference on job streams"
    gen_yds_stream same_blocks_as_reference

(* small integer grids: many windows share an intensity exactly, so the
   tie-break decides the blocks *)
let gen_yds_grid =
  QCheck2.Gen.(
    list_size (int_range 1 14)
      (triple (int_range 0 10) (int_range 1 10) (int_range 1 6))
    |> map (fun js ->
           List.mapi
             (fun id (a, len, c) ->
               job ~id ~arrival:(float_of_int a) ~cycles:(float_of_int c)
                 ~deadline:(float_of_int (a + len)) ~penalty:0.)
             js))

let prop_yds_matches_reference_grids =
  qtest ~count:2000 "YDS blocks equal the reference on tied integer grids"
    gen_yds_grid same_blocks_as_reference

(* the same streams with every time and cycle count scaled by 2^e *)
let prop_yds_matches_reference_scaled =
  qtest ~count:200 "YDS blocks equal the reference on streams scaled by 2^e"
    QCheck2.Gen.(pair gen_yds_stream (oneofl [ -30; -10; 10; 30 ]))
    (fun (jobs, e) ->
      let s = Float.ldexp 1. e in
      same_blocks_as_reference
        (List.map
           (fun (j : Job.t) ->
             job ~id:j.id ~arrival:(j.arrival *. s) ~cycles:(j.cycles *. s)
               ~deadline:(j.deadline *. s) ~penalty:j.penalty)
           jobs))

let test_yds_near_tie_input_order () =
  (* Window [10, 11] holds b, c and d. In input order its work is
     (1 + c) + d = 1 + 2^-51, but a sweep in deadline order sums
     (d + c) + 1 = 1 + 2^-52. Window [0, 1] comes first in scan order,
     at exactly (1 + 2^-52) - 1e-15: only the input-order sum clears it
     by more than 1e-15, so the later window is the critical one. *)
  let tiny = Float.ldexp 0.6 (-52) in
  let x = 1. +. Float.ldexp 1. (-52) -. 1e-15 in
  let jobs =
    [
      job ~id:0 ~arrival:0. ~cycles:x ~deadline:1. ~penalty:0.;
      job ~id:1 ~arrival:10. ~cycles:1. ~deadline:11. ~penalty:0.;
      job ~id:2 ~arrival:10. ~cycles:tiny ~deadline:10.75 ~penalty:0.;
      job ~id:3 ~arrival:10. ~cycles:tiny ~deadline:10.5 ~penalty:0.;
    ]
  in
  check_bool "same as the reference" true (same_blocks_as_reference jobs);
  match Yds.blocks jobs with
  | b :: _ ->
      check_bool "the later window wins" true
        (b.Yds.intensity = 1. +. Float.ldexp 1. (-51) && b.Yds.length = 1.)
  | [] -> Alcotest.fail "blocks expected"

let test_yds_nested_closed_form () =
  (* k nested windows [k-1-i, k+1+i] with 2(k-i) cycles: the innermost
     runs alone at intensity k; excising it leaves the next innermost
     with a window of length 2, and so on outwards, so block i has
     intensity k-i, length 2 and work 2(k-i), all exact in binary *)
  List.iter
    (fun k ->
      let jobs =
        List.init k (fun i ->
            job ~id:i
              ~arrival:(float_of_int (k - 1 - i))
              ~cycles:(float_of_int (2 * (k - i)))
              ~deadline:(float_of_int (k + 1 + i))
              ~penalty:0.)
      in
      let expected =
        List.init k (fun i ->
            let w = float_of_int (k - i) in
            { Yds.intensity = w; length = 2.; work = 2. *. w })
      in
      check_bool (Printf.sprintf "k=%d nested windows" k) true
        (Yds.blocks jobs = expected);
      check_bool (Printf.sprintf "k=%d reversed input" k) true
        (Yds.blocks (List.rev jobs) = expected))
    [ 1; 2; 3; 5; 8; 13; 40 ]

let prop_yds_work_conserved =
  qtest "YDS blocks conserve total work, intensities non-increasing"
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let jobs = random_stream seed in
      let bs = Yds.blocks jobs in
      let total_work =
        List.fold_left (fun acc b -> acc +. b.Yds.work) 0. bs
      in
      let total_cycles =
        List.fold_left (fun acc (j : Job.t) -> acc +. j.Job.cycles) 0. jobs
      in
      let rec non_increasing = function
        | a :: (b :: _ as rest) ->
            Fc.geq ~eps:1e-9 a.Yds.intensity b.Yds.intensity
            && non_increasing rest
        | _ -> true
      in
      Fc.approx_eq ~eps:1e-6 total_work total_cycles && non_increasing bs)

(* Only one direction holds: full admission implies an offline-feasible
   set. The converse fails because the online executor runs at the current
   density — it procrastinates relative to clairvoyant YDS, which clears
   work ahead of bursts, so an offline-feasible stream can still force
   online rejections. *)
let prop_admission_implies_yds_feasible =
  qtest ~count:40 "admit-all taking everything implies YDS peak <= s_max"
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let jobs = random_stream seed in
      match Admission.simulate ~proc ~policy:Admission.Admit_all jobs with
      | Error _ -> false
      | Ok o ->
          o.Admission.rejected <> []
          ||
          match Yds.blocks jobs with
          | [] -> true
          | b :: _ -> Fc.leq ~eps:1e-6 b.Yds.intensity 1.)

let prop_yds_no_worse_than_online =
  qtest ~count:40 "when everything is admitted, YDS energy <= online energy"
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let rng = Rt_prelude.Rng.create ~seed in
      (* light load so that admit-all usually takes the whole stream *)
      let jobs =
        Job.stream rng ~n:30 ~rate:0.01 ~s_max:1. ~mean_cycles:20.
          ~slack_lo:2. ~slack_hi:8. ~penalty_factor:1.
      in
      match Admission.simulate ~proc ~policy:Admission.Admit_all jobs with
      | Error _ -> false
      | Ok o ->
          if o.Admission.rejected <> [] then true (* overloaded sample *)
          else
            (match Yds.energy ~proc jobs with
            | Error _ -> false
            | Ok e -> e <= o.Admission.energy +. 1e-6))

let test_yds_energy_critical_clamp () =
  (* a single slack job runs at the critical speed, sleeping the rest *)
  let j = job ~id:0 ~arrival:0. ~cycles:10. ~deadline:1000. ~penalty:0. in
  match Yds.energy ~proc [ j ] with
  | Error e -> Alcotest.fail e
  | Ok e ->
      let s_crit = Rt_power.Processor.critical_speed proc in
      let expected =
        10. /. s_crit
        *. Rt_power.Power_model.power proc.Rt_power.Processor.model s_crit
      in
      check_float 1e-6 "clamped energy" expected e

(* A processor that cannot sleep and cannot run below s_min = 0.4: a
   2-cycle job due at 10 runs at 0.4 for 5 units and idles at p_ind for
   the other 5, 5 * 0.164 + 5 * 0.1 = 1.32, the energy rate's price of
   load 0.2 over 10 units. Running it at its intensity 0.2, which the
   processor cannot do, would read 1.08. *)
let test_yds_energy_s_min_floor () =
  let proc =
    Rt_power.Processor.make
      ~model:(Rt_power.Power_model.make ~p_ind:0.1 ~coeff:1. ~alpha:3. ())
      ~domain:(Rt_power.Processor.Ideal { s_min = 0.4; s_max = 1. })
      ~dormancy:Rt_power.Processor.Dormant_disable
  in
  let j = job ~id:0 ~arrival:0. ~cycles:2. ~deadline:10. ~penalty:0. in
  match Yds.energy ~proc [ j ] with
  | Error e -> Alcotest.fail e
  | Ok e ->
      check_float 1e-12 "priced as the energy rate prices it"
        (Rt_speed.Energy_rate.prepare_energy proc ~horizon:10. 0.2)
        e;
      check_float 1e-12 "runs at s_min, idles at p_ind" 1.32 e

let test_yds_infeasible () =
  let j = job ~id:0 ~arrival:0. ~cycles:100. ~deadline:50. ~penalty:0. in
  check_bool "over s_max" true (Result.is_error (Yds.energy ~proc [ j ]))

(* ------------------------------------------------------------------ *)
(* Exec fault operations, on hand-built pending sets *)

(* a leakage-free cubic processor: critical speed 0, so [decide] puts
   each job on the processor whose density with it is least *)
let cubic = Rt_power.Processor.cubic ()

let exec_with ~m jobs =
  match Admission.Exec.create ~proc:cubic ~m with
  | Error e -> Alcotest.failf "create: %s" (Admission.error_to_string e)
  | Ok e ->
      List.iter
        (fun j ->
          match Admission.Exec.decide e ~policy:Admission.Admit_all j with
          | Ok Admission.Admitted -> ()
          | Ok _ -> Alcotest.failf "job %d should be admitted" j.Job.id
          | Error err ->
              Alcotest.failf "decide: %s" (Admission.error_to_string err))
        jobs;
      e

let finish_exn e =
  match Admission.Exec.finish e with
  | Ok o -> o
  | Error err -> Alcotest.failf "finish: %s" (Admission.error_to_string err)

let check_ids = Alcotest.(check (list int))

(* [Exec.decide], [decide_cheap] and [reject] share one id register:
   an id any of them has taken is refused by all three, with the same
   error [simulate] reports *)
let test_exec_duplicate_ids_every_entry () =
  let j = job ~id:7 ~arrival:0. ~cycles:1. ~deadline:10. ~penalty:1. in
  let entries =
    [
      ( "decide",
        fun e ->
          Result.map ignore
            (Admission.Exec.decide e ~policy:Admission.Admit_all j) );
      ( "decide_cheap",
        fun e -> Result.map ignore (Admission.Exec.decide_cheap e ~theta:0. j)
      );
      ("reject", fun e -> Admission.Exec.reject e j);
    ]
  in
  let dup = Error (Admission.Invalid "Admission.simulate: duplicate job ids") in
  List.iter
    (fun (first, take) ->
      List.iter
        (fun (second, repeat) ->
          match Admission.Exec.create ~proc:cubic ~m:2 with
          | Error err ->
              Alcotest.failf "create: %s" (Admission.error_to_string err)
          | Ok e ->
              check_bool (first ^ " takes the id") true (take e = Ok ());
              check_bool
                (first ^ " then " ^ second ^ " is a duplicate")
                true (repeat e = dup))
        entries)
    entries

let test_exec_replan_sheds_cheapest () =
  (* density 80/100 = 0.8 on one processor. Jobs 2 and 3 tie on penalty
     per remaining cycle (0.2); 3 sits first in deadline order, so only
     the id breaks the tie. Halving the speed sheds 2 (density 0.6, still
     over 0.5), then 3 (0.4), and stops before job 1 (0.5 per cycle) *)
  let e =
    exec_with ~m:1
      [
        job ~id:1 ~arrival:0. ~cycles:20. ~deadline:100. ~penalty:10.;
        job ~id:3 ~arrival:0. ~cycles:20. ~deadline:90. ~penalty:4.;
        job ~id:2 ~arrival:0. ~cycles:20. ~deadline:100. ~penalty:4.;
        job ~id:4 ~arrival:0. ~cycles:20. ~deadline:100. ~penalty:40.;
      ]
  in
  check_ids "fits at full speed" [] (Admission.Exec.replan e ~proc:0);
  (match Admission.Exec.derate e ~factor:0.5 with
  | Ok () -> ()
  | Error err -> Alcotest.failf "derate: %s" (Admission.error_to_string err));
  check_ids "shed order" [ 2; 3 ] (Admission.Exec.replan e ~proc:0);
  check_ids "fits after the shed" [] (Admission.Exec.replan e ~proc:0);
  check_ids "out of range" [] (Admission.Exec.replan e ~proc:1);
  let o = finish_exn e in
  check_ids "admitted" [ 1; 4 ] o.Admission.admitted;
  check_ids "rejected" [ 2; 3 ] o.Admission.rejected;
  check_float 0. "shed penalties paid" 8. o.Admission.penalty;
  check_int "no forced rejection" 0 o.Admission.forced_rejections;
  (* the fit test is tolerant, like the admission test: a density of
     0.5 + 5e-10 under a 0.5 cap fits *)
  let e =
    exec_with ~m:1
      [ job ~id:5 ~arrival:0. ~cycles:50.00000005 ~deadline:100. ~penalty:1. ]
  in
  (match Admission.Exec.derate e ~factor:0.5 with
  | Ok () -> ()
  | Error err -> Alcotest.failf "derate: %s" (Admission.error_to_string err));
  check_ids "fits within the tolerance" [] (Admission.Exec.replan e ~proc:0)

let test_exec_crash_rehomes_or_sheds () =
  (* decide spreads the jobs: 10 -> proc 0 (density 0.5), 11 -> proc 1
     (0.45), 20 and 21 -> proc 2 (0.95). After proc 2 crashes, orphan 20
     fits on proc 0 (0.9) and proc 1 (0.85) and goes to the less dense
     proc 1; orphan 21 then fits nowhere (1.05, 1.4) and is shed *)
  let e =
    exec_with ~m:3
      [
        job ~id:10 ~arrival:0. ~cycles:50. ~deadline:100. ~penalty:1.;
        job ~id:11 ~arrival:0. ~cycles:45. ~deadline:100. ~penalty:1.;
        job ~id:20 ~arrival:0. ~cycles:40. ~deadline:100. ~penalty:1.;
        job ~id:21 ~arrival:0. ~cycles:55. ~deadline:100. ~penalty:7.;
      ]
  in
  let check_crash name expected proc =
    Alcotest.(check (pair (list int) (list int)))
      name expected
      (Admission.Exec.crash e ~proc)
  in
  check_crash "moved 20, shed 21" ([ 20 ], [ 21 ]) 2;
  check_ids "live" [ 0; 1 ] (Admission.Exec.live e);
  check_crash "dead processor" ([], []) 2;
  check_crash "out of range" ([], []) 3;
  check_crash "negative index" ([], []) (-1);
  check_ids "dead processor has nothing to replan" []
    (Admission.Exec.replan e ~proc:2);
  let o = finish_exn e in
  check_ids "admitted" [ 10; 11; 20 ] o.Admission.admitted;
  check_ids "rejected" [ 21 ] o.Admission.rejected;
  check_float 0. "shed penalty paid" 7. o.Admission.penalty;
  (* a tie goes to the earlier processor: 1 -> proc 0 and 2 -> proc 1
     (0.5 each), 3 -> proc 2 (0.3). Orphan 3 fits procs 0 and 1 at
     exactly 0.8 and lands on proc 0, so crashing proc 1 next orphans
     only job 2, which no longer fits on proc 0 (1.3) *)
  let e =
    exec_with ~m:3
      [
        job ~id:1 ~arrival:0. ~cycles:50. ~deadline:100. ~penalty:1.;
        job ~id:2 ~arrival:0. ~cycles:50. ~deadline:100. ~penalty:1.;
        job ~id:3 ~arrival:0. ~cycles:30. ~deadline:100. ~penalty:1.;
      ]
  in
  let check_crash name expected proc =
    Alcotest.(check (pair (list int) (list int)))
      name expected
      (Admission.Exec.crash e ~proc)
  in
  check_crash "tie: 3 moves to proc 0" ([ 3 ], []) 2;
  check_crash "proc 1 held only job 2" ([], [ 2 ]) 1

let test_exec_derate_validates () =
  let e = exec_with ~m:1 [] in
  List.iter
    (fun factor ->
      match Admission.Exec.derate e ~factor with
      | Error (Admission.Invalid _) -> ()
      | _ -> Alcotest.failf "derate %h should be rejected" factor)
    [ 0.; -0.5; Float.nan; 1.5; Float.infinity ];
  check_float 0. "cap untouched by rejected factors" 1.
    (Admission.Exec.speed_cap e);
  let derate factor =
    match Admission.Exec.derate e ~factor with
    | Ok () -> Admission.Exec.speed_cap e
    | Error err -> Alcotest.failf "derate: %s" (Admission.error_to_string err)
  in
  check_float 0. "factor 1 keeps s_max" 1. (derate 1.);
  check_float 0. "factor 0.5 halves it" 0.5 (derate 0.5);
  check_float 0. "the harshest derate wins" 0.5 (derate 0.8)

let () =
  Alcotest.run "rt_online"
    [
      ( "job",
        [
          Alcotest.test_case "validation" `Quick test_job_validation;
          Alcotest.test_case "stream" `Quick test_stream_properties;
          Alcotest.test_case "stream_seq lazy form" `Quick
            test_stream_seq_matches_stream;
        ] );
      ( "admission",
        [
          Alcotest.test_case "single job at critical speed" `Quick
            test_single_job_runs_at_critical;
          Alcotest.test_case "forced rejection" `Quick test_forced_rejection;
          Alcotest.test_case "profitable declines cheap jobs" `Quick
            test_profitable_declines_cheap_jobs;
          Alcotest.test_case "density threshold" `Quick test_density_threshold;
          Alcotest.test_case "preemption" `Quick
            test_preemption_by_tighter_deadline;
          Alcotest.test_case "duplicate ids" `Quick test_duplicate_ids_rejected;
          Alcotest.test_case "one duplicate-id rule for every entry" `Quick
            test_exec_duplicate_ids_every_entry;
          Alcotest.test_case "levels unsupported" `Quick test_levels_unsupported;
        ] );
      ( "properties",
        [
          prop_simulation_sound;
          prop_above_lower_bound;
          prop_admit_all_never_rejects_feasible;
        ] );
      ( "multiprocessor",
        [
          prop_mp_m1_equals_uniprocessor;
          prop_mp_more_processors_admit_more;
          Alcotest.test_case "spreads load" `Quick test_mp_spreads_load;
          Alcotest.test_case "time shift past 2^24 terminates" `Quick
            test_mp_time_shift_terminates;
        ] );
      ( "exec faults",
        [
          Alcotest.test_case "replan sheds cheapest per cycle" `Quick
            test_exec_replan_sheds_cheapest;
          Alcotest.test_case "crash re-homes or sheds" `Quick
            test_exec_crash_rehomes_or_sheds;
          Alcotest.test_case "derate validates its factor" `Quick
            test_exec_derate_validates;
        ] );
      ( "yds",
        [
          Alcotest.test_case "single job" `Quick test_yds_single_job;
          Alcotest.test_case "textbook nested jobs" `Quick test_yds_textbook;
          Alcotest.test_case "nested windows decompose in closed form" `Quick
            test_yds_nested_closed_form;
          Alcotest.test_case "a near-tie goes by the input-order sum" `Quick
            test_yds_near_tie_input_order;
          prop_yds_matches_reference_streams;
          prop_yds_matches_reference_grids;
          prop_yds_matches_reference_scaled;
          prop_yds_work_conserved;
          prop_admission_implies_yds_feasible;
          prop_yds_no_worse_than_online;
          Alcotest.test_case "critical clamp" `Quick
            test_yds_energy_critical_clamp;
          Alcotest.test_case "s_min floors a processor that cannot sleep"
            `Quick test_yds_energy_s_min_floor;
          Alcotest.test_case "infeasible detection" `Quick test_yds_infeasible;
        ] );
    ]
