(* Workloads [serve-open] and [serve-overload]: the streaming admission
   service ([Rt_serve.Serve.run]) fed by a lazy synthetic stream.

   serve-open is an open loop at a fixed offered rate on the transparent
   service (m processors, [Profitable], no queue bound, no faults): each
   job is due at its stream arrival scaled to wall time, and its latency
   runs from that due time to the engine's next pull (see [Openloop]).
   Its outcome must equal the batch simulator's on the materialised
   stream, and — in the traced run — a replay through [Admission.Exec].

   serve-overload is a closed loop over chunks of the same stream shape
   with a bounded ingress queue, a decision rate below the arrival rate
   (about a quarter of the jobs are shed), the overload detector and
   timed derate, crash and overrun faults.  One op is one job; its
   latency is the engine's time between pulls. *)

module M = Metric
module Adm = Rt_online.Admission
module Job = Rt_online.Job
module Serve = Rt_serve.Serve
module Source = Rt_serve.Source

let proc =
  Rt_power.Processor.xscale
    ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })

let mean_cycles = 25.
let policy = Adm.Profitable

(* the warm-up stream is the same for every seed, so set-up does the same
   work in every run *)
let warm_seed = 7_777_777

type size = {
  m : int;
  rate : float;  (** serve-open's offered rate, jobs per wall second *)
  warm_jobs : int;
  chunk_jobs : int;  (** serve-overload's jobs per [Serve.run] *)
  chunk_pool : int;
  segment_jobs : int;  (** serve-open's jobs per segment, each from a compact heap *)
  trace_jobs : int;  (** serve-open's traced stream, long enough for the tables to grow *)
  queue : int;  (** serve-overload's ingress queue capacity *)
  setup_reps : int;
}

let full =
  {
    m = 4;
    rate = 50_000.;
    warm_jobs = 20_000;
    chunk_jobs = 5_000;
    chunk_pool = 64;
    segment_jobs = 5_000;
    trace_jobs = 100_000;
    queue = 256;
    setup_reps = 9;
  }

let tiny =
  {
    m = 2;
    rate = 20_000.;
    warm_jobs = 300;
    chunk_jobs = 400;
    chunk_pool = 2;
    segment_jobs = 500;
    trace_jobs = 1_000;
    queue = 16;
    setup_reps = 1;
  }

(* arrivals per stream-time unit: offered utilisation 1.4 per processor *)
let lambda size = 1.4 *. float_of_int size.m /. mean_cycles

let stream_seq size ~seed ~limit =
  Job.stream_seq (Rt_prelude.Rng.create ~seed) ~limit ~rate:(lambda size)
    ~s_max:1. ~mean_cycles ~slack_lo:1.2 ~slack_hi:4. ~penalty_factor:1.3 ()

let stream_list size ~seed ~n =
  Job.stream (Rt_prelude.Rng.create ~seed) ~n ~rate:(lambda size) ~s_max:1.
    ~mean_cycles ~slack_lo:1.2 ~slack_hi:4. ~penalty_factor:1.3

let open_config size = { Serve.default_config with policy; m = size.m }

let overload_config size =
  let lam = lambda size in
  let span = float_of_int size.chunk_jobs /. lam in
  let at f = f *. span in
  {
    (open_config size) with
    Serve.queue_capacity = Some size.queue;
    decision_rate = Some (0.75 *. lam);
    overload = Some { Serve.window = 200.; enter_above = 1.; exit_below = 0.75 };
    faults =
      [
        { Rt_fault.Fault.at = at 0.3; fault = Speed_derate { factor = 0.8 } };
        { at = at 0.5; fault = Proc_crash { proc = size.m - 1; at = at 0.5 } };
        {
          at = at 0.6;
          fault =
            Wcec_overrun
              { task_id = int_of_float (0.6 *. float_of_int size.chunk_jobs); factor = 1.5 };
        };
      ];
  }

let outcome_digest (o : Adm.outcome) = Digest.to_hex (Digest.string (Marshal.to_string o []))
let err = Adm.error_to_string
let tier_names = [| "exact"; "threshold"; "admit_none" |]

(* Counters of one or more service reports, summed. *)
type tally = {
  mutable shed : int;
  mutable replan_shed : int;
  mutable overload_time : float;
  mutable engine_s : float;  (** Σ service gaps minus Σ decision wall *)
  tiers : int array;
  incidents : (string, int) Hashtbl.t;
}

let tally () =
  {
    shed = 0;
    replan_shed = 0;
    overload_time = 0.;
    engine_s = 0.;
    tiers = Array.make 3 0;
    incidents = Hashtbl.create 8;
  }

let add_report t (r : Serve.report) log =
  t.shed <- t.shed + r.shed;
  t.replan_shed <- t.replan_shed + r.replan_shed;
  t.overload_time <- t.overload_time +. r.overload_time;
  let gaps = Array.fold_left ( +. ) 0. (Openloop.gaps log) in
  t.engine_s <- t.engine_s +. gaps -. Array.fold_left ( +. ) 0. r.tier_wall;
  Array.iteri (fun i d -> t.tiers.(i) <- t.tiers.(i) + d) r.tier_decisions;
  List.iter
    (fun i ->
      let k = String.map (fun c -> if c = '-' then '_' else c) (Rt_serve.Incident.label i) in
      Hashtbl.replace t.incidents k (1 + Option.value ~default:0 (Hashtbl.find_opt t.incidents k)))
    r.incidents

let tally_metrics t ~jobs =
  let per x = x /. float_of_int (max 1 jobs) in
  [
    M.v "serve.engine.self_s" "s" (per t.engine_s);
    M.v "serve.shed" "count" (float_of_int t.shed);
    M.v "serve.replan_shed" "count" (float_of_int t.replan_shed);
    M.v "serve.shed_frac" "1" (per (float_of_int (t.shed + t.replan_shed)));
    M.v "serve.overload_time" "units" t.overload_time;
  ]
  @ List.map
      (fun k ->
        M.v ("serve.incidents." ^ k) "count"
          (float_of_int (Option.value ~default:0 (Hashtbl.find_opt t.incidents k))))
      [ "shed"; "tier_down"; "tier_up"; "overload_on"; "overload_off"; "fault"; "replan" ]
  @ List.mapi
      (fun i name -> M.v ("serve.tier_decisions." ^ name) "count" (float_of_int t.tiers.(i)))
      (Array.to_list tier_names)

let stall_metrics log =
  let s = Openloop.stalls log in
  ( [
      M.v "serve.stalls.gc" "count" (float_of_int s.with_gc);
      M.v "serve.stalls.nogc" "count" (float_of_int s.without_gc);
    ],
    [
      ("stall_threshold_s", Printf.sprintf "%.3g" s.threshold);
      ( "top_stalls",
        "["
        ^ String.concat ", "
            (List.map
               (fun (k, gap, gc) ->
                 Printf.sprintf "{\"job\": %d, \"gap_s\": %.3g, \"gc\": %b}" k gap gc)
               s.top)
        ^ "]" );
    ] )

(* The open-loop run: returns the report, the wall time from the first due
   time to [Serve.run]'s return, and the time the run spent draining. *)
let open_pass ?(sample = false) size ~seed ~n log =
  let scale = lambda size /. size.rate in
  let t_start = M.now () +. 1e-3 in
  let due_of (j : Job.t) = t_start +. (j.arrival *. scale) in
  let src =
    Source.of_seq (Openloop.paced ~sample Openloop.wall log ~due_of (stream_seq size ~seed ~limit:n))
  in
  let r = Serve.run ~proc ~config:(open_config size) src in
  let t_end = M.now () in
  (r, t_start, t_end -. log.Openloop.exhausted_at)

(* The traced replay of the transparent path through [Admission.Exec]:
   create, then per job [job_bound], [advance_to] its arrival, [decide];
   then [finish].  Returns the outcome, the summed bound, the per-call
   times of advance_to and decide, and the decision counts. *)
let replay tr size ~seed ~n =
  let id = Span.id tr in
  let s_op = id "op" and s_next = id "source.next" and s_bound = id "admission.job_bound" in
  let s_adv = id "admission.advance_to" and s_dec = id "admission.decide" in
  let s_fin = id "admission.finish" in
  let src = Source.of_seq (stream_seq size ~seed ~limit:n) in
  let adv = Array.make n 0. and dec = Array.make n 0. in
  let counts = Array.make 3 0 in
  let ( let* ) = Result.bind in
  let* exec = Adm.Exec.create ~proc ~m:size.m |> Result.map_error err in
  let rec loop k lower =
    Span.set_op tr k;
    Span.enter tr s_op;
    Span.enter tr s_next;
    let next = Source.next src in
    Span.leave tr;
    match next with
    | Error msg ->
        Span.leave tr;
        Error msg
    | Ok None ->
        Span.leave tr;
        Ok lower
    | Ok (Some (j : Job.t)) -> (
        Span.enter tr s_bound;
        let b = Adm.job_bound ~proc j in
        Span.leave tr;
        Span.enter tr s_adv;
        let r = Adm.Exec.advance_to exec ~until:j.arrival in
        Span.leave tr;
        adv.(k) <- Span.last_s tr;
        let r =
          Result.bind r (fun () ->
              Span.enter tr s_dec;
              let d = Adm.Exec.decide exec ~policy j in
              Span.leave tr;
              dec.(k) <- Span.last_s tr;
              d)
        in
        Span.leave tr;
        match r with
        | Error e -> Error (err e)
        | Ok d ->
            let i = match d with Adm.Admitted -> 0 | Declined -> 1 | Infeasible -> 2 in
            counts.(i) <- counts.(i) + 1;
            loop (k + 1) (lower +. b))
  in
  let* lower = loop 0 0. in
  let* o = Span.within tr s_fin (fun () -> Adm.Exec.finish exec) |> Result.map_error err in
  Ok (o, lower, adv, dec, counts)

type segment = {
  digest : string;  (** of the outcome *)
  lower : float;
  total : float;
  wall : float;  (** first due time to last completion *)
  drain : float;
}

let run_open ?(size = full) ~seed ~seconds ~trace () =
  let per_seg = size.segment_jobs in
  let segments = max 2 (int_of_float (size.rate *. seconds) / per_seg) in
  let n = per_seg * segments in
  let seg_seed s = (seed * 1000) + s in
  let (), setup_s =
    M.setup ~reps:size.setup_reps (fun () ->
        match
          Serve.run ~proc ~config:(open_config size)
            (Source.of_seq (stream_seq size ~seed:warm_seed ~limit:size.warm_jobs))
        with
        | Ok _ -> ()
        | Error e -> failwith ("warm-up: " ^ err e))
  in
  (* the logs are the harness's, allocated once and left out of the heap peak *)
  let logs = Array.init segments (fun _ -> Openloop.create_log per_seg) in
  let book = M.book () in
  book.attempted <- n;
  let t = tally () in
  let gc0 = M.gc_counts () in
  (* all segments run before any check, so the heap peak is the service's *)
  let segs =
    Array.mapi
      (fun s log ->
        (* every segment starts from the same compact heap, on the next
           CPU; untimed *)
        Gc.compact ();
        M.on_cpu s;
        let r, t_start, drain = open_pass size ~seed:(seg_seed s) ~n:per_seg log in
        match r with
        | Error e ->
            M.fail book "segment %d: %s" s (err e);
            book.failed <- book.failed + per_seg - 1;
            None
        | Ok r ->
            if r.seen <> per_seg || log.n <> per_seg then
              M.fail book "segment %d: serve saw %d jobs, the log %d, of %d" s r.seen
                log.n per_seg;
            add_report t r log;
            Some
              {
                digest = outcome_digest r.outcome;
                lower = r.lower_bound;
                total = r.outcome.total;
                wall = log.completed.(per_seg - 1) -. t_start;
                drain;
              })
      logs
  in
  let gc1 = M.gc_counts () in
  let heap = M.heap_peak_mb ~harness:(Obj.repr logs) () in
  (* the batch simulator on each materialised segment is the oracle *)
  Array.iteri
    (fun s seg ->
      Option.iter
        (fun seg ->
          match
            Adm.simulate_mp ~proc ~m:size.m ~policy (stream_list size ~seed:(seg_seed s) ~n:per_seg)
          with
          | Error e -> M.fail book "simulate_mp: %s" (err e)
          | Ok o ->
              if outcome_digest o <> seg.digest then
                M.fail book "segment %d: serve outcome differs from simulate_mp" s)
        seg)
    segs;
  let lats =
    Array.map2
      (fun log seg ->
        if seg = None then Array.make per_seg Float.infinity else Openloop.latencies log)
      logs segs
  in
  let ok = List.filter_map Fun.id (Array.to_list segs) in
  let median f = if ok = [] then Float.nan else Pct.median (Array.of_list (List.map f ok)) in
  let sum f = List.fold_left (fun a seg -> a +. f seg) 0. ok in
  let waits = Array.concat (Array.to_list (Array.map Openloop.waits logs)) in
  (* segments are repeats of statistically identical work (a fresh
     5k-job stream each), so the run reports the median latency of its
     fastest twentieth of segments *)
  let seg_p50s = Array.map Pct.median lats in
  let late = Array.fold_left (fun a (l : Openloop.log) -> a + l.late) 0 logs in
  let e2e =
    [
      M.v "setup_s" "s" setup_s;
      M.v "throughput_ops_s" "ops/s" (float_of_int (per_seg * List.length ok) /. sum (fun seg -> seg.wall));
      M.v "cost_ratio" "1" (sum (fun seg -> seg.total) /. sum (fun seg -> seg.lower));
      M.v "heap_peak_mb" "MB" heap;
      M.v "gc.minor_collections" "count" (float_of_int (fst gc1 - fst gc0));
      M.v "gc.major_collections" "count" (float_of_int (snd gc1 - snd gc0));
      M.v "serve.drain_s" "s" (median (fun seg -> seg.drain));
      M.v "source.wait_p99_s" "s" (Pct.of_sorted (Pct.sorted_copy waits) 0.99);
      M.v "source.late_frac" "1" (float_of_int late /. float_of_int n);
    ]
    @ M.latency_metrics ~p50:(M.quiet seg_p50s) (Array.concat (Array.to_list lats))
    @ tally_metrics t ~jobs:n
  in
  let tr = if trace then Some (Span.create ()) else None in
  let layer, trace_meta =
    match tr with
    | None -> ([], [])
    | Some tr ->
        (* one longer stream, so that the tables grow through several
           doublings: open loop plain, checked against the batch
           simulator; open loop again with GC tags and generator time per
           job; then its replay through Admission.Exec *)
        let nt = size.trace_jobs and tseed = seg_seed 0 in
        let pass ~sample =
          let log = Openloop.create_log nt in
          Gc.compact ();
          match open_pass ~sample size ~seed:tseed ~n:nt log with
          | Ok r, _, _ when log.n = nt -> Some (r, log)
          | Ok _, _, _ ->
              M.fail book "traced serve: the log holds %d of %d jobs" log.n nt;
              None
          | Error e, _, _ ->
              M.fail book "traced serve: %s" (err e);
              None
        in
        let plain = pass ~sample:false in
        let sampled = pass ~sample:true in
        let stalls, stall_meta =
          match sampled with Some (_, log) -> stall_metrics log | None -> ([], [])
        in
        Option.iter
          (fun ((r : Serve.report), _) ->
            match Adm.simulate_mp ~proc ~m:size.m ~policy (stream_list size ~seed:tseed ~n:nt) with
            | Error e -> M.fail book "simulate_mp: %s" (err e)
            | Ok o ->
                if outcome_digest o <> outcome_digest r.outcome then
                  M.fail book "traced stream: serve outcome differs from simulate_mp")
          plain;
        let per x = x /. float_of_int nt in
        let replayed =
          match (plain, replay tr size ~seed:tseed ~n:nt) with
          | None, _ -> []
          | _, Error e ->
              M.fail book "Exec replay: %s" e;
              []
          | Some ((r : Serve.report), _), Ok (o, lower, adv, dec, counts) ->
              if outcome_digest o <> outcome_digest r.outcome || lower <> r.lower_bound then
                M.fail book "Exec replay differs from Serve.run";
              let pct a p = Pct.of_sorted (Pct.sorted_copy a) p in
              let op_s = Span.self_s tr "op" in
              let layers =
                [ "source.next"; "admission.job_bound"; "admission.advance_to"; "admission.decide" ]
              in
              let total_s =
                op_s +. List.fold_left (fun a l -> a +. Span.self_s tr l) 0. layers
              in
              [
                M.v "source.next.self_s" "s" (per (Span.self_s tr "source.next"));
                M.v "admission.job_bound.self_s" "s" (per (Span.self_s tr "admission.job_bound"));
                M.v "admission.advance_to.self_s" "s" (per (Span.self_s tr "admission.advance_to"));
                M.v "admission.advance_to.p50_s" "s" (pct adv 0.5);
                M.v "admission.advance_to.p99_s" "s" (pct adv 0.99);
                M.v "admission.decide.self_s" "s" (per (Span.self_s tr "admission.decide"));
                M.v "admission.decide.p50_s" "s" (pct dec 0.5);
                M.v "admission.decide.p99_s" "s" (pct dec 0.99);
                M.v "admission.decide.minor_words" "words"
                  (per (Span.self_words tr "admission.decide"));
                M.v "admission.finish.self_s" "s" (Span.self_s tr "admission.finish");
                M.v "admission.admitted" "count" (float_of_int counts.(0));
                M.v "admission.declined" "count" (float_of_int counts.(1));
                M.v "admission.forced" "count" (float_of_int counts.(2));
                M.v "trace.unattributed_frac" "1" (op_s /. total_s);
              ]
        in
        let overhead =
          match (plain, sampled) with
          | Some (_, a), Some (_, b) ->
              let p50 log = Pct.median (Openloop.latencies log) in
              [ M.v "trace.overhead_s" "s" (p50 b -. p50 a) ]
          | _ -> []
        in
        (stalls @ replayed @ overhead, stall_meta)
  in
  {
    M.attempted = book.attempted;
    failed = book.failed;
    failures = List.rev book.msgs;
    metrics = e2e @ layer;
    spans = tr;
    meta =
      [
        ("m", string_of_int size.m);
        ("offered_rate", Printf.sprintf "%g" size.rate);
        ("stream_rate", Printf.sprintf "%g" (lambda size));
        ("segments", string_of_int segments);
        ("segment_jobs", string_of_int per_seg);
        ("trace_jobs", string_of_int size.trace_jobs);
        ("jobs", string_of_int n);
        ( "digest",
          M.json_string
            (let b = Buffer.create 64 in
             Array.iter (Option.iter (fun seg -> Buffer.add_string b seg.digest)) segs;
             M.digest b) );
      ]
      @ M.sample_meta (Array.concat (Array.to_list lats))
      @ trace_meta;
  }

let run_overload ?(size = full) ~seed ~seconds ~trace () =
  let config = overload_config size in
  let nc = size.chunk_jobs in
  let chunk_seed c = (seed * 1000) + (c mod size.chunk_pool) in
  let closed = { Openloop.wall with wait_until = (fun _ -> true) } in
  let serve_chunk ?(sample = false) log ~seed =
    let src =
      Source.of_seq
        (Openloop.paced ~sample closed log ~due_of:(fun _ -> 0.) (stream_seq size ~seed ~limit:nc))
    in
    Serve.run ~proc ~config src
  in
  (* the harness's buffers, allocated once and left out of the heap peak:
     the pull log of one chunk, and every gap of the first pass over the
     chunk streams (the tail percentiles' samples) *)
  let log = Openloop.create_log nc in
  let lat = Array.make (nc * size.chunk_pool) Float.infinity in
  let (), setup_s =
    M.setup ~reps:size.setup_reps (fun () ->
        match serve_chunk log ~seed:warm_seed with
        | Ok _ -> ()
        | Error e -> failwith ("warm-up: " ^ err e))
  in
  let book = M.book () in
  let first = Array.make size.chunk_pool None in
  let t = tally () in
  let num = ref 0. and den = ref 0. in
  let pass ?(sample = false) ~seconds ~on_chunk () =
    (* per chunk: its wall time and median gap, +inf when it failed *)
    let chunks = ref 0 in
    let walls = M.samples () and p50s = M.samples () in
    let t0 = M.now () in
    while !chunks < size.chunk_pool || M.now () -. t0 < seconds do
      let c = !chunks in
      (* each chunk starts from a compact heap, on the next CPU; untimed *)
      Gc.compact ();
      M.pool_cpu ~pieces:size.chunk_pool c;
      let c0 = M.now () in
      let r = serve_chunk ~sample log ~seed:(chunk_seed c) in
      let wall = M.now () -. c0 in
      let slot = c mod size.chunk_pool in
      book.attempted <- book.attempted + nc;
      (match r with
      | Error e ->
          M.fail book "chunk %d: %s" c (err e);
          book.failed <- book.failed + nc - 1;
          M.push walls Float.infinity;
          M.push p50s Float.infinity
      | Ok r ->
          let o = r.outcome in
          let decided = List.length o.admitted + List.length o.rejected in
          if r.seen <> nc || decided <> r.seen then
            M.fail book "chunk %d: seen %d, admitted + rejected %d, of %d" c r.seen decided nc
          else begin
            let d = outcome_digest o in
            match first.(slot) with
            | None ->
                first.(slot) <- Some d;
                num := !num +. o.total;
                den := !den +. r.lower_bound
            | Some f when f = d -> ()
            | Some _ -> M.fail book "chunk %d: outcome differs from its first run" c
          end;
          let gaps = Openloop.gaps log in
          M.push walls wall;
          M.push p50s (Pct.median gaps);
          on_chunk c r gaps);
      incr chunks
    done;
    (* chunks are statistically identical work: the figures of their
       fastest twentieth *)
    ( !chunks,
      float_of_int nc /. M.quiet (M.to_array walls),
      M.quiet (M.to_array p50s) )
  in
  let gc0 = M.gc_counts () in
  let chunks, rate, p50 =
    pass ~seconds
      ~on_chunk:(fun c r gaps ->
        add_report t r log;
        if c < size.chunk_pool then Array.blit gaps 0 lat (c * nc) nc)
      ()
  in
  let gc1 = M.gc_counts () in
  let heap = M.heap_peak_mb ~harness:(Obj.repr (log, lat)) () in
  let jobs = chunks * nc in
  let e2e =
    [
      M.v "setup_s" "s" setup_s;
      M.v "throughput_ops_s" "ops/s" rate;
      M.v "cost_ratio" "1" (!num /. !den);
      M.v "heap_peak_mb" "MB" heap;
      M.v "gc.minor_collections" "count" (float_of_int (fst gc1 - fst gc0));
      M.v "gc.major_collections" "count" (float_of_int (snd gc1 - snd gc0));
    ]
    @ M.latency_metrics ~p50 lat @ tally_metrics t ~jobs
  in
  let layer =
    if not trace then []
    else begin
      let source_s = ref 0. and tjobs = ref 0 in
      let _, _, tp50 =
        pass ~sample:true ~seconds:(seconds /. 2.)
          ~on_chunk:(fun _ _ _ ->
            source_s := !source_s +. log.source_s;
            tjobs := !tjobs + nc;
            log.source_s <- 0.)
          ()
      in
      [
        M.v "source.next.self_s" "s" (!source_s /. float_of_int !tjobs);
        M.v "trace.overhead_s" "s" (tp50 -. p50);
      ]
    end
  in
  {
    M.attempted = book.attempted;
    failed = book.failed;
    failures = List.rev book.msgs;
    metrics = e2e @ layer;
    spans = None;
    meta =
      [
        ("m", string_of_int size.m);
        ("stream_rate", Printf.sprintf "%g" (lambda size));
        ("decision_rate", Printf.sprintf "%g" (0.75 *. lambda size));
        ("chunk_jobs", string_of_int nc);
        ("chunks", string_of_int chunks);
        ("jobs", string_of_int jobs);
        ( "digest",
          M.json_string
            (let b = Buffer.create 64 in
             Array.iter (Option.iter (Buffer.add_string b)) first;
             M.digest b) );
      ]
      @ M.sample_meta lat;
  }
