(* Tests for the benchmark's own machinery: the percentile routine, the
   open-loop latency bookkeeping on a synthetic schedule with a known
   answer, a tiny run of every workload, and the metric catalogue against
   BENCHMARK.json. *)

open Perfbench

let check_float = Alcotest.(check (float 1e-12))
let check_int = Alcotest.(check int)

let percentiles () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  let s = Pct.sorted_copy xs in
  check_float "p50 of 1..100" 50. (Pct.of_sorted s 0.5);
  check_float "p90" 90. (Pct.of_sorted s 0.9);
  check_float "p99" 99. (Pct.of_sorted s 0.99);
  check_float "p999 is the max" 100. (Pct.of_sorted s 0.999);
  check_int "ten samples beyond p90" 10 (Pct.beyond ~n:100 0.9);
  check_int "one sample beyond p99" 1 (Pct.beyond ~n:100 0.99);
  let with_failure = Pct.sorted_copy [| 3.; Float.infinity; 1.; 2. |] in
  check_float "p50 ignores the tail" 2. (Pct.of_sorted with_failure 0.5);
  Alcotest.(check bool)
    "a failed op is +inf at p99" true
    (Pct.of_sorted with_failure 0.99 = Float.infinity)

(* A synthetic clock and a pull-based "engine" that takes [service k]
   time units per job: waiting jumps the clock forward. *)
let synthetic ~dues ~service =
  let t = ref 0. in
  let clock =
    {
      Openloop.now = (fun () -> !t);
      wait_until = (fun d -> if !t >= d then false else (t := d; true));
    }
  in
  let n = Array.length dues in
  let log = Openloop.create_log n in
  let seq = Openloop.paced clock log ~due_of:(fun k -> dues.(k)) (Seq.init n Fun.id) in
  Seq.iter (fun k -> t := !t +. service k) seq;
  log

let open_loop_stall () =
  (* jobs due every 10 units, 1 unit of service each, except job 3 which
     stalls for 35: the three jobs due during the stall queue behind it *)
  let log =
    synthetic
      ~dues:(Array.init 8 (fun k -> 10. *. float_of_int (k + 1)))
      ~service:(fun k -> if k = 3 then 35. else 1.)
  in
  check_int "all jobs logged" 8 log.n;
  Alcotest.(check (array (float 1e-12)))
    "latency from the due time" [| 1.; 1.; 1.; 35.; 26.; 17.; 8.; 1. |]
    (Openloop.latencies log);
  Alcotest.(check (array (float 1e-12)))
    "queueing wait" [| 0.; 0.; 0.; 0.; 25.; 16.; 7.; 0. |] (Openloop.waits log);
  Alcotest.(check (array (float 1e-12)))
    "service gaps hide the queueing" [| 1.; 1.; 1.; 35.; 1.; 1.; 1.; 1. |]
    (Openloop.gaps log);
  check_int "jobs found overdue" 3 log.late;
  check_float "exhaustion pull" 81. log.exhausted_at

let stall_attribution () =
  let log =
    synthetic
      ~dues:(Array.init 200 (fun k -> float_of_int k))
      ~service:(fun k -> if k = 64 || k = 128 then 50. +. float_of_int k else 0.5)
  in
  let s = Openloop.stalls ~top:2 log in
  check_int "two stalls above p99" 2 (s.with_gc + s.without_gc);
  Alcotest.(check (list int)) "largest first" [ 128; 64 ] (List.map (fun (k, _, _) -> k) s.top)

let finite_metrics name (r : Metric.run) =
  check_int (name ^ ": no failures") 0 r.failed;
  Alcotest.(check (list string)) (name ^ ": failure messages") [] r.failures;
  List.iter
    (fun (spec : Metric.spec) ->
      match List.find_opt (fun (m : Metric.t) -> m.name = spec.name) r.metrics with
      | None -> Alcotest.failf "%s: %s missing" name spec.name
      | Some m ->
          if not (Float.is_finite m.value && m.value > 0.) then
            Alcotest.failf "%s: %s = %g" name spec.name m.value)
    Metric.end_to_end

let has name (r : Metric.run) metric =
  match List.find_opt (fun (m : Metric.t) -> m.name = metric) r.metrics with
  | Some m when m.value > 0. -> ()
  | _ -> Alcotest.failf "%s: no positive %s" name metric

let smoke () =
  let seconds = 0.05 in
  let plan = Wl_plan.run ~size:Wl_plan.tiny ~seed:3 ~seconds ~trace:true () in
  finite_metrics "plan" plan;
  has "plan" plan "local_search.improve.self_s";
  let sweep = Wl_sweep.run ~size:Wl_sweep.tiny ~seed:3 ~seconds ~trace:true () in
  finite_metrics "sweep" sweep;
  has "sweep" sweep "exact.branch_and_bound.nodes";
  let open_ = Wl_serve.run_open ~size:Wl_serve.tiny ~seed:3 ~seconds ~trace:true () in
  finite_metrics "serve-open" open_;
  has "serve-open" open_ "admission.decide.self_s";
  let over = Wl_serve.run_overload ~size:Wl_serve.tiny ~seed:3 ~seconds ~trace:true () in
  finite_metrics "serve-overload" over;
  has "serve-overload" over "serve.shed"

(* BENCHMARK.json must list exactly the catalogue the runs print. *)
let catalogue () =
  let module J = Rt_check.Json in
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let json = match J.parse text with Ok j -> j | Error e -> Alcotest.fail e in
  let specs key =
    match Option.map J.to_list (J.member key json) with
    | Some (Ok l) ->
        List.map
          (fun m ->
            let field k =
              match Option.map J.to_str (J.member k m) with
              | Some (Ok s) -> s
              | _ -> Alcotest.failf "%s: entry without %s" key k
            in
            (field "name", field "unit", field "better"))
          l
    | _ -> Alcotest.failf "BENCHMARK.json: no %s list" key
  in
  let ours l = List.map (fun (s : Metric.spec) -> (s.name, s.unit_, s.better)) l in
  let triple = Alcotest.(list (triple string string string)) in
  Alcotest.check triple "end_to_end" (ours Metric.end_to_end) (specs "end_to_end");
  Alcotest.check triple "per_layer" (ours Metric.per_layer) (specs "per_layer")

let () =
  Alcotest.run "perfbench"
    [
      ( "measurement",
        [
          Alcotest.test_case "percentiles" `Quick percentiles;
          Alcotest.test_case "open-loop stall" `Quick open_loop_stall;
          Alcotest.test_case "stall attribution" `Quick stall_attribution;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "tiny run of all four" `Quick smoke;
          Alcotest.test_case "catalogue matches BENCHMARK.json" `Quick catalogue;
        ] );
    ]
