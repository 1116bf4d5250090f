(* What one workload run reports, and the helpers every workload shares. *)

type t = { name : string; unit_ : string; value : float }

let v name unit_ value = { name; unit_; value }

(* The catalogue BENCHMARK.json lists: every run prints all end-to-end
   metrics (or, traced, all per-layer ones — a layer the workload never
   calls reads 0). *)
type spec = { name : string; unit_ : string; better : string }

let end_to_end =
  [
    { name = "setup_s"; unit_ = "s"; better = "lower" };
    { name = "throughput_ops_s"; unit_ = "ops/s"; better = "higher" };
    { name = "latency_p50_s"; unit_ = "s"; better = "lower" };
    { name = "cost_ratio"; unit_ = "1"; better = "lower" };
    { name = "heap_peak_mb"; unit_ = "MB"; better = "lower" };
  ]

let per_layer =
  let spec name =
    let ends suffix = String.ends_with ~suffix name in
    let unit_ =
      if ends "nodes_per_s" then "1/s"
      else if ends "_s" then "s"
      else if ends "minor_words" then "words"
      else if ends "_frac" then "1"
      else if ends "overload_time" then "units"
      else "count"
    in
    let higher =
      List.exists ends
        [ "gain_frac"; "nodes_per_s"; "admission.admitted"; "tier_decisions.exact" ]
    in
    { name; unit_; better = (if higher then "higher" else "lower") }
  in
  let layer name stats = List.map (fun s -> spec (name ^ "." ^ s)) stats in
  List.concat
    [
      layer "problem.make" [ "self_s"; "minor_words" ];
      layer "greedy.ltf_reject" [ "self_s"; "minor_words" ];
      layer "greedy.marginal_greedy" [ "self_s"; "minor_words" ];
      layer "greedy.density_reject" [ "self_s"; "minor_words" ];
      layer "solution.cost" [ "self_s"; "minor_words" ];
      layer "local_search.improve" [ "self_s"; "minor_words"; "moves"; "gain_frac" ];
      layer "solution.validate" [ "self_s"; "minor_words" ];
      layer "bounds.lower_bound" [ "self_s" ];
      layer "exact.branch_and_bound" [ "self_s"; "minor_words"; "nodes"; "nodes_per_s" ];
      layer "qos.greedy_degrade" [ "self_s"; "minor_words" ];
      layer "qos.validate" [ "self_s"; "minor_words" ];
      layer "admission.simulate" [ "self_s"; "minor_words" ];
      layer "yds.energy" [ "self_s"; "minor_words" ];
      layer "admission.advance_to" [ "self_s"; "p50_s"; "p99_s" ];
      layer "admission.decide" [ "self_s"; "p50_s"; "p99_s"; "minor_words" ];
      layer "admission.job_bound" [ "self_s" ];
      layer "admission.finish" [ "self_s" ];
      layer "admission" [ "admitted"; "declined"; "forced" ];
      layer "source" [ "next.self_s"; "wait_p99_s"; "late_frac" ];
      layer "serve"
        [
          "engine.self_s";
          "drain_s";
          "shed";
          "replan_shed";
          "shed_frac";
          "overload_time";
          "stalls.gc";
          "stalls.nogc";
        ];
      layer "serve.incidents"
        [ "shed"; "tier_down"; "tier_up"; "overload_on"; "overload_off"; "fault"; "replan" ];
      layer "serve.tier_decisions" [ "exact"; "threshold"; "admit_none" ];
      layer "op" [ "latency_p90_s"; "latency_p99_s"; "latency_p999_s" ];
      layer "gc" [ "minor_collections"; "major_collections" ];
      layer "trace" [ "overhead_s"; "unattributed_frac" ];
    ]

type run = {
  attempted : int;
  failed : int;
  failures : string list;  (** the first few failure messages *)
  metrics : t list;  (** end-to-end and per-layer, by name *)
  meta : (string * string) list;  (** name -> JSON value, for the record *)
  spans : Span.t option;  (** the traced run's spans, written at exit *)
}

(* Failure accounting: a failed op is +inf in every percentile. *)
type book = {
  mutable attempted : int;
  mutable failed : int;
  mutable msgs : string list;
}

let book () = { attempted = 0; failed = 0; msgs = [] }

let fail b fmt =
  Printf.ksprintf
    (fun msg ->
      b.failed <- b.failed + 1;
      if List.length b.msgs < 5 then b.msgs <- msg :: b.msgs)
    fmt

(* A growable float array for per-op samples. *)
type samples = { mutable buf : float array; mutable len : int }

let samples () = { buf = Array.make 1024 0.; len = 0 }

let push s x =
  if s.len = Array.length s.buf then begin
    let bigger = Array.make (2 * s.len) 0. in
    Array.blit s.buf 0 bigger 0 s.len;
    s.buf <- bigger
  end;
  s.buf.(s.len) <- x;
  s.len <- s.len + 1

let to_array s = Array.sub s.buf 0 s.len

let now = Rt_prelude.Clock.now

(* Spreading the pieces over the CPUs.  On a shared host each CPU has its
   own slow stretches: a neighbour can slow one of them for a whole run
   while the other runs at full speed.  Piece k of a run (an op, a
   segment, a chunk, a set-up) starts, untimed, on CPU k mod N of the
   process's affinity mask, so a run sees every CPU's quiet stretches.
   A no-op on one CPU or off Linux. *)
external pin_cpu : int -> bool = "perfbench_pin_cpu"

let on_cpu k = ignore (pin_cpu k)

(* Op i of a loop over a pool of [pieces]: the CPU moves on once more at
   each new pass, so that with an even pool every piece still visits
   every CPU. *)
let pool_cpu ~pieces i = on_cpu (i + (i / pieces))

(* Set up [reps] times and keep the last result; the reported set-up time
   is the median of the repetitions. *)
let setup ~reps f =
  let times = Array.make reps 0. in
  let last = ref None in
  for r = 0 to reps - 1 do
    on_cpu r;
    let t0 = now () in
    last := Some (f ());
    times.(r) <- now () -. t0
  done;
  (Option.get !last, Pct.median times)

(* Run [op i] for i = 0, 1, ... until [seconds] of wall time have passed
   and at least [min_ops] ops ran; returns the op count and the wall time. *)
let closed_loop ~seconds ~min_ops op =
  let t0 = now () in
  let i = ref 0 in
  while !i < min_ops || now () -. t0 < seconds do
    op !i;
    incr i
  done;
  (!i, now () -. t0)

(* Timings on a shared host.  Every piece of work in a pool (a [plan]
   instance, a [sweep] battery) is repeated within a run, and a run reports
   the fastest repeat of each piece.  Other tenants slow stretches of a
   run by up to half, second by second; the fastest repeat is the figure
   they move least, and a slower program is slower in every repeat.  A
   piece with a failed repeat reads +inf. *)
let fastest pieces = Array.make pieces Float.nan

let record f piece ~ok dt =
  let cur = f.(piece) in
  f.(piece) <-
    (if (not ok) || cur = Float.infinity then Float.infinity
     else if Float.is_nan cur then dt
     else Float.min cur dt)

(* the pieces that ran *)
let ran f = Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list f))

(* For many short pieces of statistically identical work (serve segments
   and chunks, a few hundred a run): the figure at the fastest twentieth
   of the pieces.  A slow stretch of the host covers whole pieces, and in
   a busy minute it covers most of them, so the median of the pieces
   moves with the host; the fastest twentieth moves little, and a slower
   program is slower in every piece.  Taking the 5% point rather than
   the minimum keeps a single lucky piece out.  A failed piece is +inf
   and sorts last. *)
let quiet xs = Pct.of_sorted (Pct.sorted_copy xs) 0.05

(* Ops per second at each piece's fastest repeat. *)
let fastest_rate f =
  let r = ran f in
  float_of_int (Array.length r) /. Array.fold_left ( +. ) 0. r

(* The major heap's high-water mark, net of [harness]: buffers the
   benchmark itself allocated before the timed phase (latency logs), so
   that what is left is the program's own memory. *)
let heap_peak_mb ?(harness = Obj.repr ()) () =
  let words = (Gc.quick_stat ()).Gc.top_heap_words - Obj.reachable_words harness in
  float_of_int (words * (Sys.word_size / 8)) /. 1048576.

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

(* The latency percentiles of one set of per-op samples: the median is
   end-to-end (unless [p50] gives a steadier estimate of it), the tail
   percentiles are kept per layer. *)
let latency_metrics ?p50 samples =
  let sorted = Pct.sorted_copy samples in
  let p50 = Option.value p50 ~default:(Pct.of_sorted sorted 0.5) in
  [
    v "latency_p50_s" "s" p50;
    v "op.latency_p90_s" "s" (Pct.of_sorted sorted 0.9);
    v "op.latency_p99_s" "s" (Pct.of_sorted sorted 0.99);
    v "op.latency_p999_s" "s" (Pct.of_sorted sorted 0.999);
  ]

let sample_meta samples =
  let n = Array.length samples in
  [
    ("samples", string_of_int n);
    ("beyond_p90", string_of_int (Pct.beyond ~n 0.9));
    ("beyond_p99", string_of_int (Pct.beyond ~n 0.99));
    ("beyond_p999", string_of_int (Pct.beyond ~n 0.999));
  ]

(* Per-layer numbers of a traced run: self time and minor words per op. *)
let layer_metrics tr ~ops names =
  let per x = x /. float_of_int (max 1 ops) in
  List.concat_map
    (fun name ->
      [
        v (name ^ ".self_s") "s" (per (Span.self_s tr name));
        v (name ^ ".minor_words") "words" (per (Span.self_words tr name));
      ])
    names

let digest buf = Digest.to_hex (Digest.string (Buffer.contents buf))
let json_string s = Printf.sprintf "%S" s

type phase = {
  ops : int;
  wall : float;
  fast : float array;  (** each piece's fastest op *)
  lat : float array;  (** every op, +inf when it failed *)
}

(* A closed-loop phase over a pool of [Array.length first] pieces: op i
   runs piece [i mod pieces] (inside an "op" span when traced).  [first]
   keeps each piece's first result; a repeat whose [digest] differs is a
   failure.  [on_ok] sees every successful result. *)
let closed_phase ?tr ~seconds ~min_ops book ~first ~digest ~on_ok run =
  let pieces = Array.length first in
  let lat = samples () and fast = fastest pieces in
  let op i =
    let slot = i mod pieces in
    pool_cpu ~pieces i;
    Option.iter (fun t -> Span.set_op t i; Span.enter t (Span.id t "op")) tr;
    let t0 = now () in
    let r = try run slot with e -> Error (Printexc.to_string e) in
    let dt = now () -. t0 in
    Option.iter Span.leave tr;
    book.attempted <- book.attempted + 1;
    let ok =
      match r with
      | Error e ->
          fail book "op %d: %s" i e;
          false
      | Ok x -> (
          on_ok x;
          match first.(slot) with
          | None ->
              first.(slot) <- Some x;
              true
          | Some f when digest f = digest x -> true
          | Some _ ->
              fail book "op %d: result differs from its first run" i;
              false)
    in
    push lat (if ok then dt else Float.infinity);
    record fast slot ~ok dt
  in
  let ops, wall = closed_loop ~seconds ~min_ops op in
  { ops; wall; fast; lat = to_array lat }
