(* Streaming-service benchmark: drives rt_serve end to end and emits
   BENCH_online.json — sustained admission throughput (target: at least
   one million synthetic jobs per minute), decision-latency tails, the
   shed fraction under forced backpressure, and the empirical
   competitive ratio against the clairvoyant lower bound and the YDS
   offline-optimal energy.

     dune exec bench/serve_bench.exe                  # 200k-job stream
     RT_BENCH_FULL=1 dune exec bench/serve_bench.exe  # 1M-job stream *)

let out_file = "BENCH_online.json"

let proc =
  Rt_power.Processor.xscale
    ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })

let mean_cycles = 25.

let source ~seed ~n =
  Rt_serve.Source.synthetic ~seed ~limit:n ~rate:(1.4 /. mean_cycles)
    ~s_max:1. ~mean_cycles ~slack_lo:1.2 ~slack_hi:4. ~penalty_factor:1.3 ()

let run_or_die ~what = function
  | Ok r -> r
  | Error e ->
      Printf.eprintf "serve_bench: %s failed: %s\n" what
        (Rt_online.Admission.error_to_string e);
      exit 1

type row = {
  case : string;
  jobs : int;
  wall_s : float;
  jobs_per_min : float;
  p99_latency_s : float;
  max_latency_s : float;
  shed_fraction : float;
  ratio_lower_bound : float;
  ratio_yds : float option;
      (* None when the YDS bound was not computed for this case; the JSON
         carries an explicit null — a 0.0 sentinel would read as "the
         online run used no energy at all" and poison ratio statistics *)
}

let json_of_row r =
  Rt_prelude.Json.(
    Obj
      [
        ("case", Str r.case);
        ("jobs", Int r.jobs);
        ("wall_s", Float r.wall_s);
        ("jobs_per_min", Float r.jobs_per_min);
        ("p99_latency_s", Float r.p99_latency_s);
        ("max_latency_s", Float r.max_latency_s);
        ("shed_fraction", Float r.shed_fraction);
        ("ratio_lower_bound", Float r.ratio_lower_bound);
        ( "ratio_yds",
          match r.ratio_yds with Some x -> Float x | None -> Null );
      ])

let row_of_report ~case ~n ~wall (r : Rt_serve.Serve.report) =
  {
    case;
    jobs = n;
    wall_s = wall;
    jobs_per_min = 60. *. float_of_int n /. Float.max 1e-9 wall;
    p99_latency_s = r.p99_latency;
    max_latency_s = r.max_latency;
    shed_fraction = float_of_int r.shed /. Float.max 1. (float_of_int r.seen);
    ratio_lower_bound =
      r.outcome.Rt_online.Admission.total /. Float.max 1e-9 r.lower_bound;
    ratio_yds =
      Option.map
        (fun yds -> r.outcome.Rt_online.Admission.energy /. Float.max 1e-9 yds)
        r.yds_energy;
  }

let () =
  let full = Sys.getenv_opt "RT_BENCH_FULL" <> None in
  let n = if full then 1_000_000 else 200_000 in
  (* 1: sustained throughput of the transparent service (the
     byte-identity fast path), policy = profitable *)
  let config =
    { Rt_serve.Serve.default_config with policy = Rt_online.Admission.Profitable }
  in
  let t0 = Rt_prelude.Clock.now () in
  let r1 =
    run_or_die ~what:"throughput"
      (Rt_serve.Serve.run ~proc ~config (source ~seed:42 ~n))
  in
  let wall1 = Rt_prelude.Clock.elapsed ~since:t0 in
  let row1 = row_of_report ~case:"throughput" ~n ~wall:wall1 r1 in
  (* 2: sharded throughput across a domain pool (RT_JOBS workers) *)
  let shards = 4 in
  let jobs_list =
    let src = source ~seed:43 ~n in
    let rec drain acc =
      match Rt_serve.Source.next src with
      | Ok (Some j) -> drain (j :: acc)
      | Ok None -> List.rev acc
      | Error msg ->
          Printf.eprintf "serve_bench: source failed: %s\n" msg;
          exit 1
    in
    drain []
  in
  let domains = Rt_parallel.Pool.default_domains () in
  let t0 = Rt_prelude.Clock.now () in
  let r2 =
    run_or_die ~what:"sharded"
      (if domains > 1 then
         Rt_parallel.Pool.with_pool ~domains (fun pool ->
             Rt_serve.Serve.run_sharded ~pool ~shards ~proc ~config jobs_list)
       else Rt_serve.Serve.run_sharded ~shards ~proc ~config jobs_list)
  in
  let wall2 = Rt_prelude.Clock.elapsed ~since:t0 in
  let row2 = row_of_report ~case:"sharded-x4" ~n ~wall:wall2 r2 in
  (* 3: forced backpressure — a decision server slower than the arrival
     rate behind a bounded queue, so ingress shedding must engage *)
  let n3 = n / 10 in
  let config3 =
    {
      config with
      Rt_serve.Serve.queue_capacity = Some 256;
      decision_rate = Some (0.75 *. (1.4 /. mean_cycles));
      overload = Some { Rt_serve.Serve.window = 200.; enter_above = 1.; exit_below = 0.75 };
    }
  in
  let t0 = Rt_prelude.Clock.now () in
  let r3 =
    run_or_die ~what:"backpressure"
      (Rt_serve.Serve.run ~proc ~config:config3 (source ~seed:44 ~n:n3))
  in
  let wall3 = Rt_prelude.Clock.elapsed ~since:t0 in
  let row3 = row_of_report ~case:"backpressure" ~n:n3 ~wall:wall3 r3 in
  (* 4: competitive ratio on a small stream where YDS is affordable *)
  let n4 = 1_000 in
  let config4 = { config with Rt_serve.Serve.yds_bound = true } in
  let t0 = Rt_prelude.Clock.now () in
  let r4 =
    run_or_die ~what:"competitive"
      (Rt_serve.Serve.run ~proc ~config:config4 (source ~seed:45 ~n:n4))
  in
  let wall4 = Rt_prelude.Clock.elapsed ~since:t0 in
  let row4 = row_of_report ~case:"competitive" ~n:n4 ~wall:wall4 r4 in
  let rows = [ row1; row2; row3; row4 ] in
  Out_channel.with_open_text out_file (fun oc ->
      output_string oc
        Rt_prelude.Json.(to_string (List (List.map json_of_row rows))));
  Printf.printf "wrote %s (%d records)\n" out_file (List.length rows);
  List.iter
    (fun r ->
      Printf.printf
        "  %-12s %8d jobs  %7.2fs  %12.0f jobs/min  p99 %.2e s  shed %5.3f  \
         vs-lb %.3f%s\n"
        r.case r.jobs r.wall_s r.jobs_per_min r.p99_latency_s r.shed_fraction
        r.ratio_lower_bound
        (match r.ratio_yds with
        | Some x -> Printf.sprintf "  vs-yds %.3f" x
        | None -> ""))
    rows;
  if Rt_prelude.Float_cmp.exact_lt row1.jobs_per_min 1_000_000. then begin
    Printf.printf "throughput below 1M jobs/min target\n";
    exit 1
  end
