(* Tests for rt_serve: the streaming admission service.

   The load-bearing property is byte-identity — with an unbounded queue,
   instantaneous decisions, no watchdog and no faults, [Serve.run] must
   produce exactly the outcome [Admission.simulate_mp] produces on the
   materialized stream. The batch simulator is the oracle; everything
   the robustness layer adds is then tested as a deviation from it. *)

open Rt_online
module Serve = Rt_serve.Serve
module Source = Rt_serve.Source
module Incident = Rt_serve.Incident

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float eps = Alcotest.(check (float eps))

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let proc =
  Rt_power.Processor.xscale
    ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })

let job ~id ~arrival ~cycles ~deadline ~penalty =
  Job.make ~id ~arrival ~cycles ~deadline ~penalty

let stream ~seed ~n =
  let rng = Rt_prelude.Rng.create ~seed in
  Job.stream rng ~n ~rate:(1.4 /. 25.) ~s_max:1. ~mean_cycles:25.
    ~slack_lo:1.2 ~slack_hi:4. ~penalty_factor:1.3

let run_exn ~config source =
  match Serve.run ~proc ~config source with
  | Ok r -> r
  | Error e -> Alcotest.failf "serve: %s" (Admission.error_to_string e)

let simulate_exn ~m ~policy jobs =
  match Admission.simulate_mp ~proc ~m ~policy jobs with
  | Ok o -> o
  | Error e -> Alcotest.failf "simulate_mp: %s" (Admission.error_to_string e)

(* Byte-equality on outcomes: every float compared with [Float.equal],
   not a tolerance — "same calls in the same order" means the bits
   agree, and anything weaker would mask a divergence in the engine. *)
let outcome_equal (a : Admission.outcome) (b : Admission.outcome) =
  Float.equal a.energy b.energy
  && Float.equal a.penalty b.penalty
  && Float.equal a.total b.total
  && a.admitted = b.admitted
  && a.rejected = b.rejected
  && a.forced_rejections = b.forced_rejections
  && Float.equal a.makespan b.makespan

let pp_outcome o =
  Format.asprintf "energy=%h penalty=%h adm=%d rej=%d forced=%d mk=%h"
    o.Admission.energy o.Admission.penalty
    (List.length o.Admission.admitted)
    (List.length o.Admission.rejected)
    o.Admission.forced_rejections o.Admission.makespan

let check_oracle ~m ~policy jobs =
  let oracle = simulate_exn ~m ~policy jobs in
  let config = { Serve.default_config with policy; m } in
  let r = run_exn ~config (Source.of_list jobs) in
  if not (outcome_equal oracle r.Serve.outcome) then
    Alcotest.failf "serve diverged from oracle:\n  batch: %s\n  serve: %s"
      (pp_outcome oracle) (pp_outcome r.Serve.outcome);
  check_int "seen" (List.length jobs) r.Serve.seen;
  check_int "nothing shed" 0 r.Serve.shed;
  check_bool "no incidents" true (r.Serve.incidents = [])

(* ------------------------------------------------------------------ *)
(* Byte-identity with the batch oracle *)

let test_oracle_identity () =
  let jobs = stream ~seed:11 ~n:500 in
  check_oracle ~m:1 ~policy:Admission.Admit_all jobs;
  check_oracle ~m:1 ~policy:Admission.Profitable jobs;
  check_oracle ~m:1 ~policy:(Admission.Density_threshold 0.08) jobs;
  check_oracle ~m:3 ~policy:Admission.Profitable jobs

let test_oracle_identity_qcheck =
  qtest "serve = simulate_mp (no faults, unbounded queue)"
    QCheck2.Gen.(
      triple (int_range 0 1000) (int_range 1 4) (int_range 0 2))
    (fun (seed, m, policy_ix) ->
      let policy =
        match policy_ix with
        | 0 -> Admission.Admit_all
        | 1 -> Admission.Profitable
        | _ -> Admission.Density_threshold 0.05
      in
      let jobs = stream ~seed ~n:120 in
      let oracle = simulate_exn ~m ~policy jobs in
      let config = { Serve.default_config with policy; m } in
      let r = run_exn ~config (Source.of_list jobs) in
      outcome_equal oracle r.Serve.outcome)

let test_monitoring_is_transparent () =
  (* the overload detector observes but never decides: identity holds
     with it enabled *)
  let jobs = stream ~seed:12 ~n:400 in
  let oracle = simulate_exn ~m:1 ~policy:Admission.Profitable jobs in
  let config =
    {
      Serve.default_config with
      policy = Admission.Profitable;
      overload = Some { Serve.window = 100.; enter_above = 1.; exit_below = 0.75 };
    }
  in
  let r = run_exn ~config (Source.of_list jobs) in
  check_bool "outcome unchanged by monitoring" true
    (outcome_equal oracle r.Serve.outcome);
  check_bool "only overload incidents" true
    (List.for_all
       (fun i ->
         match Incident.label i with
         | "overload-on" | "overload-off" -> true
         | _ -> false)
       r.Serve.incidents)

(* ------------------------------------------------------------------ *)
(* Ingress backpressure: shed = cheapest penalty-per-cycle prefix *)

let test_backpressure_sheds_cheapest_prefix () =
  (* six jobs in a burst behind a slow decision server with capacity 3.
     Job 0 is decided immediately (the server is idle at its arrival);
     jobs 1..5 queue up, so pushes 4 and 5 each overflow the queue by
     one and must shed the cheapest penalty-per-cycle job then queued.
     Penalty rates ascend with id, so the shed set is exactly the
     two cheapest of the undecided jobs: ids 1 and 2. *)
  let jobs =
    List.init 6 (fun i ->
        job ~id:i
          ~arrival:(0.01 *. float_of_int i)
          ~cycles:10. ~deadline:10_000.
          ~penalty:(1. +. float_of_int i))
  in
  let config =
    {
      Serve.default_config with
      policy = Admission.Admit_all;
      queue_capacity = Some 3;
      decision_rate = Some 0.001;
    }
  in
  let r = run_exn ~config (Source.of_list jobs) in
  let shed_ids =
    List.filter_map
      (function
        | Incident.Shed { job_id; rate; at = _ } ->
            (* the ordering key recorded with the incident is the job's
               penalty per cycle *)
            let j = List.nth jobs job_id in
            check_float 1e-12 "shed rate"
              (j.Job.penalty /. j.Job.cycles)
              rate;
            Some job_id
        | _ -> None)
      r.Serve.incidents
  in
  (* the expected set, computed from the rule rather than hard-coded:
     the two cheapest penalty-per-cycle jobs among the undecided 1..5 *)
  let expected =
    List.filteri (fun i _ -> i > 0) jobs
    |> List.sort (fun (a : Job.t) (b : Job.t) ->
           compare
             (a.Job.penalty /. a.Job.cycles, a.Job.id)
             (b.Job.penalty /. b.Job.cycles, b.Job.id))
    |> List.filteri (fun i _ -> i < 2)
    |> List.map (fun (j : Job.t) -> j.Job.id)
  in
  Alcotest.(check (list int)) "shed = cheapest prefix" expected shed_ids;
  check_int "report.shed" 2 r.Serve.shed;
  (* shed jobs pay their penalty and appear among the rejected *)
  check_bool "shed are rejected" true
    (List.for_all (fun id -> List.mem id r.Serve.outcome.Admission.rejected)
       shed_ids);
  (* admitted work is never dropped by backpressure *)
  check_bool "admitted disjoint from shed" true
    (List.for_all
       (fun id -> not (List.mem id r.Serve.outcome.Admission.admitted))
       shed_ids)

let test_queue_latency_costs_slack () =
  (* a job decided after its deadline has passed cannot be admitted:
     the forced rejection is honest accounting, not a silent miss *)
  let jobs =
    [
      job ~id:0 ~arrival:0. ~cycles:10. ~deadline:10_000. ~penalty:1.;
      job ~id:1 ~arrival:0.5 ~cycles:10. ~deadline:2. ~penalty:5.;
    ]
  in
  let config =
    {
      Serve.default_config with
      policy = Admission.Admit_all;
      decision_rate = Some 0.1 (* one decision per 10 time units *);
    }
  in
  let r = run_exn ~config (Source.of_list jobs) in
  check_bool "expired job not admitted" true
    (not (List.mem 1 r.Serve.outcome.Admission.admitted));
  check_int "it is a forced rejection" 1
    r.Serve.outcome.Admission.forced_rejections;
  check_float 1e-9 "its penalty is paid" 5. r.Serve.outcome.Admission.penalty

(* The engine's former ingress, kept as the reference for [Ingress]: a
   two-stack FIFO, and an overflow that stable-sorts the whole queue by
   (penalty per cycle, id) and drops the cheapest [excess] jobs. Verbatim
   but for the executor and incident calls, and for one line: the old
   queue was rebuilt without every job whose id was dropped, which also
   lost, neither decided nor rejected, any queued job sharing a shed
   job's id. The reference drops the shed entries only, as [Ingress]
   does (see [test_duplicate_id_is_an_error]). *)
type reference_ingress = {
  r_push : Job.t -> unit;
  r_pop : unit -> Job.t option;
  r_shed_to : int -> Job.t list;
  r_to_list : unit -> Job.t list;
}

let reference_ingress () =
  let q_front = ref [] and q_back = ref [] and q_len = ref 0 in
  let q_push j =
    q_back := j :: !q_back;
    incr q_len
  in
  let q_peek () =
    (match !q_front with
    | [] ->
        q_front := List.rev !q_back;
        q_back := []
    | _ -> ());
    match !q_front with [] -> None | j :: _ -> Some j
  in
  let q_pop () =
    match q_peek () with
    | None -> None
    | Some j ->
        q_front := List.tl !q_front;
        decr q_len;
        Some j
  in
  let q_to_list () = !q_front @ List.rev !q_back in
  let q_set js =
    q_front := js;
    q_back := [];
    q_len := List.length js
  in
  let penalty_rate (j : Job.t) = j.penalty /. j.cycles in
  let shed_overflow cap =
    if !q_len <= cap then []
    else begin
      let all = q_to_list () in
      let excess = !q_len - cap in
      let order =
        List.stable_sort
          (fun (a : Job.t) (b : Job.t) ->
            let c = Float.compare (penalty_rate a) (penalty_rate b) in
            if c <> 0 then c else compare a.id b.id)
          all
      in
      let rec take k = function
        | [] -> []
        | j :: tl -> if k = 0 then [] else j :: take (k - 1) tl
      in
      let drops = take excess order in
      q_set (List.filter (fun (j : Job.t) -> not (List.memq j drops)) all);
      drops
    end
  in
  { r_push = q_push; r_pop = q_pop; r_shed_to = shed_overflow;
    r_to_list = q_to_list }

type ingress_op = Push of int * int | Pop | Shed_to of int

let test_ingress_matches_reference =
  (* ids from a small range and rates from {0.5, 1, 2} (some at two
     cycle counts), so equal rates and full (rate, id) ties are common.
     Every push overflows to the case's capacity, as the engine's
     arrival does; [Shed_to c] sheds down to [cap - c], several at
     once. Capacity 100 seldom binds, so the ring grows past its first
     16 slots while wrapped *)
  let op =
    QCheck2.Gen.(
      frequency
        [
          (6, map2 (fun id k -> Push (id, k)) (int_range 0 5) (int_range 0 5));
          (3, pure Pop);
          (1, map (fun c -> Shed_to c) (int_range 0 8));
        ])
  in
  qtest ~count:500 "Ingress = two-stack queue with stable-sort shed"
    QCheck2.Gen.(
      pair
        (frequency [ (4, int_range 0 8); (1, pure 100) ])
        (list_size (int_range 0 80) op))
    (fun (cap, ops) ->
      let q = Rt_serve.Ingress.create () and r = reference_ingress () in
      let sheds = ref [] and ref_sheds = ref [] in
      let pops = ref [] and ref_pops = ref [] in
      let shed_to c =
        while Rt_serve.Ingress.length q > c do
          sheds := Rt_serve.Ingress.shed q :: !sheds
        done;
        ref_sheds := List.rev_append (r.r_shed_to c) !ref_sheds
      in
      List.iteri
        (fun i -> function
          | Push (id, k) ->
              let rate = [| 0.5; 1.; 2. |].(k mod 3) in
              let cycles = if k < 3 then 10. else 20. in
              let j =
                job ~id ~arrival:(float_of_int i) ~cycles
                  ~deadline:(float_of_int i +. 100.) ~penalty:(rate *. cycles)
              in
              Rt_serve.Ingress.push q j;
              r.r_push j;
              shed_to cap
          | Pop ->
              if Rt_serve.Ingress.length q > 0 then
                pops := Rt_serve.Ingress.pop q :: !pops;
              Option.iter (fun j -> ref_pops := j :: !ref_pops) (r.r_pop ())
          | Shed_to c -> shed_to (Int.max 0 (cap - c)))
        ops;
      let rec drain acc =
        if Rt_serve.Ingress.length q = 0 then List.rev acc
        else drain (Rt_serve.Ingress.pop q :: acc)
      in
      Marshal.to_string (!sheds, !pops, drain []) []
      = Marshal.to_string (!ref_sheds, !ref_pops, r.r_to_list ()) [])

(* perfbench's serve-overload shape: m = 4, 5000 jobs, a 256-job queue,
   decisions at 0.75 of the arrival rate, the 200-unit overload window,
   and a derate, a crash and an overrun at 30, 50 and 60% of the span *)
let overload_run ~seed =
  let m = 4 and n = 5_000 in
  let rate = 1.4 *. float_of_int m /. 25. in
  let span = float_of_int n /. rate in
  let at f = f *. span in
  let config =
    {
      Serve.default_config with
      policy = Admission.Profitable;
      m;
      queue_capacity = Some 256;
      decision_rate = Some (0.75 *. rate);
      overload = Some { Serve.window = 200.; enter_above = 1.; exit_below = 0.75 };
      faults =
        [
          { Rt_fault.Fault.at = at 0.3; fault = Speed_derate { factor = 0.8 } };
          { at = at 0.5; fault = Proc_crash { proc = m - 1; at = at 0.5 } };
          { at = at 0.6; fault = Wcec_overrun { task_id = 3_000; factor = 1.5 } };
        ];
    }
  in
  run_exn ~config
    (Source.synthetic ~seed ~limit:n ~rate ~s_max:1. ~mean_cycles:25.
       ~slack_lo:1.2 ~slack_hi:4. ~penalty_factor:1.3 ())

let test_overload_shape_is_pinned () =
  (* perfbench's serve-overload digest covers each chunk's outcome but
     not its incidents: the shed order is pinned here, as a hash of the
     shed ids in log order, with the counts and the objective's bits,
     all recorded from the sort-based ingress this queue replaced *)
  let labels =
    [ "shed"; "tier-down"; "tier-up"; "overload-on"; "overload-off"; "fault";
      "replan" ]
  in
  List.iter
    (fun (seed, shed, replan_shed, counts, total, shed_hash) ->
      let r = overload_run ~seed in
      let name what = Printf.sprintf "seed %d: %s" seed what in
      check_int (name "shed") shed r.Serve.shed;
      check_int (name "replan_shed") replan_shed r.Serve.replan_shed;
      Alcotest.(check (list int))
        (name "incidents by label") counts
        (List.map
           (fun l ->
             List.length
               (List.filter (fun i -> Incident.label i = l) r.Serve.incidents))
           labels);
      if not (Float.equal total r.Serve.outcome.Admission.total) then
        Alcotest.failf "%s: expected %h, got %h" (name "total") total
          r.Serve.outcome.Admission.total;
      check_int (name "shed order") shed_hash
        (List.fold_left
           (fun h id -> ((h * 31) + id) land 0x3FFFFFFF)
           0
           (List.filter_map
              (function Incident.Shed { job_id; _ } -> Some job_id | _ -> None)
              r.Serve.incidents)))
    [
      (1, 1054, 0, [ 1054; 0; 0; 1; 0; 3; 0 ], 0x1.39d38ef2ac822p+17, 931158351);
      (2, 977, 0, [ 977; 0; 0; 2; 1; 3; 0 ], 0x1.45b0f95c651ecp+17, 1016191817);
      (3, 910, 0, [ 910; 0; 0; 1; 0; 3; 0 ], 0x1.36168daead0cap+17, 770433325);
    ]

let test_zero_capacity_sheds_everything () =
  let jobs = stream ~seed:13 ~n:200 in
  let config =
    {
      Serve.default_config with
      policy = Admission.Admit_all;
      queue_capacity = Some 0;
      decision_rate = Some 1.;
    }
  in
  let r = run_exn ~config (Source.of_list jobs) in
  check_int "every arrival shed" (List.length jobs) r.Serve.shed;
  check_int "nothing decided" 0
    (Array.fold_left ( + ) 0 r.Serve.tier_decisions);
  check_int "all rejected" (List.length jobs)
    (List.length r.Serve.outcome.Admission.rejected)

let test_duplicate_id_is_an_error () =
  (* job 0 is decided at once; the two id-1 jobs then queue behind the
     slow server, and the second overflows the one-job queue, shedding
     the cheaper first. The survivor is still undecided: its decision
     reports the duplicate id rather than the job going unaccounted *)
  let jobs =
    [
      job ~id:0 ~arrival:0. ~cycles:10. ~deadline:10_000. ~penalty:1.;
      job ~id:1 ~arrival:0.01 ~cycles:10. ~deadline:10_000. ~penalty:1.;
      job ~id:1 ~arrival:0.02 ~cycles:10. ~deadline:10_000. ~penalty:5.;
    ]
  in
  let config =
    {
      Serve.default_config with
      policy = Admission.Admit_all;
      queue_capacity = Some 1;
      decision_rate = Some 0.001;
    }
  in
  match Serve.run ~proc ~config (Source.of_list jobs) with
  | Error (Admission.Invalid msg) ->
      check_bool "names the duplicate" true
        (String.equal msg "Admission.simulate: duplicate job ids")
  | Error e -> Alcotest.failf "wrong error: %s" (Admission.error_to_string e)
  | Ok _ -> Alcotest.fail "a duplicate id must not vanish from the books"

(* ------------------------------------------------------------------ *)
(* Faults in flight: never a silent deadline miss *)

(* two processors under [Profitable]; a derate to half speed strikes
   halfway through the stream (by arrival time) and processor 1 crashes
   40 time units later; [extra] faults follow, placed relative to [mid] *)
let midstream_run ?(extra = fun _mid -> []) () =
  let jobs = stream ~seed:21 ~n:2_000 in
  let mid =
    let arr = List.map (fun (j : Job.t) -> j.Job.arrival) jobs in
    List.nth arr (List.length arr / 2)
  in
  let config =
    {
      Serve.default_config with
      policy = Admission.Profitable;
      m = 2;
      faults =
        [
          { Rt_fault.Fault.at = mid;
            fault = Rt_fault.Fault.Speed_derate { factor = 0.5 } };
          { Rt_fault.Fault.at = mid +. 40.;
            fault = Rt_fault.Fault.Proc_crash { proc = 1; at = mid +. 40. } };
        ]
        @ extra mid;
    }
  in
  run_exn ~config (Source.of_list jobs)

let test_fault_midstream_no_misses () =
  (* Ok means the executor never reported an admitted deadline miss —
     re-planning shed or re-homed everything the faults endangered *)
  let r = midstream_run () in
  check_bool "incident log non-empty" true (r.Serve.incidents <> []);
  check_bool "fault incidents recorded" true
    (List.exists (fun i -> Incident.label i = "fault") r.Serve.incidents);
  (* the books still balance: every job is accounted exactly once *)
  check_int "admitted + rejected = seen"
    r.Serve.seen
    (List.length r.Serve.outcome.Admission.admitted
    + List.length r.Serve.outcome.Admission.rejected)

let test_fault_replan_is_pinned () =
  (* the midstream scenario plus a 20x overrun of job 1005: the derate
     sheds from the over-committed processors, the crash re-homes one
     orphan and sheds another, and the overrun sheds the inflated job.
     Which jobs go, where the orphan lands and the resulting books are
     pinned exactly: re-planning is a deterministic function of the
     executor state, and any change to its order or its density fold
     shows up here *)
  let r =
    midstream_run
      ~extra:(fun mid ->
        [
          { Rt_fault.Fault.at = mid +. 80.;
            fault =
              Rt_fault.Fault.Wcec_overrun { task_id = 1005; factor = 20. } };
        ])
      ()
  in
  let replans =
    List.filter_map
      (function
        | Incident.Replanned { shed; moved; at = _ } -> Some (shed, moved)
        | _ -> None)
      r.Serve.incidents
  in
  Alcotest.(check (list (pair (list int) (list int))))
    "replanned (shed, moved)"
    [ ([ 990; 998 ], []); ([ 1003 ], [ 1001 ]); ([ 1005 ], []) ]
    replans;
  check_int "replan_shed" 4 r.Serve.replan_shed;
  let check_bits name expected got =
    if not (Float.equal expected got) then
      Alcotest.failf "%s: expected %h, got %h" name expected got
  in
  check_bits "energy" 0x1.39a3bb7c3d52fp+14 r.Serve.outcome.Admission.energy;
  check_bits "total" 0x1.86a0ac062c8e2p+15 r.Serve.outcome.Admission.total

(* ------------------------------------------------------------------ *)
(* Structured miss report (the defensive error path) *)

let test_miss_error_is_structured () =
  (* bypass re-planning on purpose: inflate an admitted job's remaining
     cycles through the fault hook and advance without shedding — the
     executor must report a structured miss naming the job and the
     processor state, not a bare string *)
  let e =
    match Admission.Exec.create ~proc ~m:1 with
    | Ok e -> e
    | Error err -> Alcotest.failf "create: %s" (Admission.error_to_string err)
  in
  let j = job ~id:7 ~arrival:0. ~cycles:10. ~deadline:20. ~penalty:5. in
  (match Admission.Exec.decide e ~policy:Admission.Admit_all j with
  | Ok Admission.Admitted -> ()
  | Ok _ -> Alcotest.fail "job should be admitted"
  | Error err -> Alcotest.failf "decide: %s" (Admission.error_to_string err));
  check_bool "inflate hits the pending job" true
    (Admission.Exec.inflate e ~id:7 ~factor:100.);
  let result =
    match Admission.Exec.advance_to e ~until:2_000. with
    | Error err -> Error err
    | Ok () -> (
        match Admission.Exec.finish e with
        | Ok _ -> Ok ()
        | Error err -> Error err)
  in
  match result with
  | Error (Admission.Deadline_miss m) ->
      check_int "miss names the job" 7 m.Admission.job_id;
      check_float 1e-9 "miss carries the deadline" 20. m.Admission.deadline;
      check_bool "late completion is after the deadline" true
        (m.Admission.at > m.Admission.deadline);
      check_bool "pending set includes the job" true
        (List.mem 7 m.Admission.active_ids);
      check_bool "density shows the overload" true
        (m.Admission.density > Admission.Exec.speed_cap e);
      (* the job completed (late), so its own remaining work is zero;
         the snapshot must still be well-formed *)
      check_bool "backlog is non-negative and finite" true
        (m.Admission.backlog >= 0. && Float.is_finite m.Admission.backlog)
  | Error (Admission.Invalid msg) -> Alcotest.failf "unexpected: %s" msg
  | Ok () -> Alcotest.fail "un-replanned overrun must surface as a miss"

(* ------------------------------------------------------------------ *)
(* Sources: trace round-trip, ordering enforcement *)

let test_trace_round_trip () =
  let jobs = Job.by_arrival (stream ~seed:31 ~n:50) in
  let path = Filename.temp_file "rt_serve_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match Source.write_trace path jobs with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "write_trace: %s" msg);
      let src =
        match Source.of_trace_file path with
        | Ok s -> s
        | Error msg -> Alcotest.failf "of_trace_file: %s" msg
      in
      let rec drain acc =
        match Source.next src with
        | Ok (Some j) -> drain (j :: acc)
        | Ok None -> List.rev acc
        | Error msg -> Alcotest.failf "next: %s" msg
      in
      let back = drain [] in
      check_int "count survives" (List.length jobs) (List.length back);
      List.iter2
        (fun (a : Job.t) (b : Job.t) ->
          check_int "id" a.Job.id b.Job.id;
          (* %.17g output: bit-exact floats on the way back *)
          check_bool "fields bit-exact" true
            (Float.equal a.Job.arrival b.Job.arrival
            && Float.equal a.Job.cycles b.Job.cycles
            && Float.equal a.Job.deadline b.Job.deadline
            && Float.equal a.Job.penalty b.Job.penalty))
        jobs back)

let test_trace_errors_carry_line_numbers () =
  let path = Filename.temp_file "rt_serve_bad" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc "# comment\n0 0.0 10.0 20.0 1.0\nnot a job\n";
      close_out oc;
      let src =
        match Source.of_trace_file path with
        | Ok s -> s
        | Error msg -> Alcotest.failf "of_trace_file: %s" msg
      in
      (match Source.next src with
      | Ok (Some j) -> check_int "good line parses" 0 j.Job.id
      | Ok None -> Alcotest.fail "expected a job"
      | Error msg -> Alcotest.failf "unexpected: %s" msg);
      match Source.next src with
      | Error msg ->
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec at i =
              i + nn <= nh && (String.sub hay i nn = needle || at (i + 1))
            in
            at 0
          in
          check_bool "error names line 3" true (contains msg "line 3")
      | Ok _ -> Alcotest.fail "malformed line must error")

let test_of_seq_rejects_regression () =
  let j0 = job ~id:0 ~arrival:5. ~cycles:1. ~deadline:10. ~penalty:0. in
  let j1 = job ~id:1 ~arrival:4. ~cycles:1. ~deadline:10. ~penalty:0. in
  let src = Source.of_seq (List.to_seq [ j0; j1 ]) in
  (match Source.next src with
  | Ok (Some j) -> check_int "first pull" 0 j.Job.id
  | _ -> Alcotest.fail "first pull should succeed");
  match Source.next src with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "arrival regression must error"

(* ------------------------------------------------------------------ *)
(* Sharded runs: deterministic for any pool size *)

let report_equal (a : Serve.report) (b : Serve.report) =
  outcome_equal a.Serve.outcome b.Serve.outcome
  && a.Serve.seen = b.Serve.seen
  && a.Serve.shed = b.Serve.shed
  && a.Serve.replan_shed = b.Serve.replan_shed
  && a.Serve.declined = b.Serve.declined
  && Float.equal a.Serve.lower_bound b.Serve.lower_bound

let test_sharded_deterministic () =
  let jobs = stream ~seed:41 ~n:600 in
  let config =
    { Serve.default_config with policy = Admission.Profitable }
  in
  let sequential =
    match Serve.run_sharded ~shards:3 ~proc ~config jobs with
    | Ok r -> r
    | Error e ->
        Alcotest.failf "sharded: %s" (Admission.error_to_string e)
  in
  let pooled =
    Rt_parallel.Pool.with_pool ~domains:2 (fun pool ->
        match Serve.run_sharded ~pool ~shards:3 ~proc ~config jobs with
        | Ok r -> r
        | Error e ->
            Alcotest.failf "sharded(pool): %s" (Admission.error_to_string e))
  in
  check_bool "pool size does not change the answer" true
    (report_equal sequential pooled);
  check_int "every job routed to exactly one shard"
    (List.length jobs) sequential.Serve.seen;
  (* id lists merge back sorted *)
  let sorted l = List.sort compare l = l in
  check_bool "admitted sorted" true
    (sorted sequential.Serve.outcome.Admission.admitted);
  check_bool "rejected sorted" true
    (sorted sequential.Serve.outcome.Admission.rejected)

let test_sharded_one_is_run () =
  let jobs = stream ~seed:42 ~n:300 in
  let config = { Serve.default_config with policy = Admission.Admit_all } in
  let direct = run_exn ~config (Source.of_list jobs) in
  match Serve.run_sharded ~shards:1 ~proc ~config jobs with
  | Ok r ->
      check_bool "shards=1 = run" true
        (outcome_equal direct.Serve.outcome r.Serve.outcome)
  | Error e -> Alcotest.failf "sharded: %s" (Admission.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Config validation *)

let test_config_validation () =
  let expect_invalid name config =
    match Serve.run ~proc ~config (Source.of_list []) with
    | Error (Admission.Invalid _) -> ()
    | Ok _ -> Alcotest.failf "%s should be rejected" name
    | Error (Admission.Deadline_miss _) ->
        Alcotest.failf "%s: wrong error class" name
  in
  expect_invalid "negative queue capacity"
    { Serve.default_config with queue_capacity = Some (-1) };
  expect_invalid "zero decision rate"
    { Serve.default_config with decision_rate = Some 0. };
  expect_invalid "non-finite latency budget"
    {
      Serve.default_config with
      watchdog = Some { Serve.latency_budget = infinity; recover_after = 8 };
    };
  expect_invalid "inverted hysteresis band"
    {
      Serve.default_config with
      overload = Some { Serve.window = 10.; enter_above = 0.5; exit_below = 0.9 };
    }

let test_yds_bound_needs_one_ideal_processor () =
  let config = { Serve.default_config with yds_bound = true } in
  let jobs = stream ~seed:5 ~n:40 in
  let expect_invalid name ~proc config =
    match Serve.run ~proc ~config (Source.of_list jobs) with
    | Error (Admission.Invalid _) -> ()
    | Ok _ -> Alcotest.failf "%s should be rejected" name
    | Error e ->
        Alcotest.failf "%s: wrong error %s" name (Admission.error_to_string e)
  in
  (* m = 4 used to keep every admitted job and report no energy *)
  expect_invalid "m = 4" ~proc { config with m = 4 };
  (* a discrete-level processor used to report no energy *)
  expect_invalid "discrete levels"
    ~proc:
      (Rt_power.Processor.xscale_levels
         ~dormancy:Rt_power.Processor.Dormant_disable)
    config;
  let r = run_exn ~config (Source.of_list jobs) in
  let admitted =
    List.filter (fun (j : Job.t) -> List.mem j.id r.outcome.admitted) jobs
  in
  match (r.Serve.yds_energy, Yds.energy ~proc admitted) with
  | Some e, Ok expected ->
      check_bool "m = 1 prices the admitted set" true (e = expected)
  | _ -> Alcotest.fail "m = 1 on an ideal processor must report YDS energy"

let () =
  Alcotest.run "rt_serve"
    [
      ( "oracle",
        [
          Alcotest.test_case "byte-identity, fixed cases" `Quick
            test_oracle_identity;
          test_oracle_identity_qcheck;
          Alcotest.test_case "monitoring is transparent" `Quick
            test_monitoring_is_transparent;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "shed = cheapest prefix" `Quick
            test_backpressure_sheds_cheapest_prefix;
          Alcotest.test_case "queue latency costs slack" `Quick
            test_queue_latency_costs_slack;
          test_ingress_matches_reference;
          Alcotest.test_case "overload shape is pinned" `Quick
            test_overload_shape_is_pinned;
          Alcotest.test_case "capacity 0 sheds every arrival" `Quick
            test_zero_capacity_sheds_everything;
          Alcotest.test_case "a duplicate id is an error" `Quick
            test_duplicate_id_is_an_error;
        ] );
      ( "faults",
        [
          Alcotest.test_case "mid-stream faults, no misses" `Quick
            test_fault_midstream_no_misses;
          Alcotest.test_case "re-plan sheds and moves are pinned" `Quick
            test_fault_replan_is_pinned;
          Alcotest.test_case "miss error is structured" `Quick
            test_miss_error_is_structured;
        ] );
      ( "sources",
        [
          Alcotest.test_case "trace round-trip" `Quick test_trace_round_trip;
          Alcotest.test_case "trace errors carry line numbers" `Quick
            test_trace_errors_carry_line_numbers;
          Alcotest.test_case "of_seq rejects regression" `Quick
            test_of_seq_rejects_regression;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "deterministic across pool sizes" `Quick
            test_sharded_deterministic;
          Alcotest.test_case "shards=1 is run" `Quick test_sharded_one_is_run;
        ] );
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "yds_bound needs one ideal processor" `Quick
            test_yds_bound_needs_one_ideal_processor;
        ] );
    ]
