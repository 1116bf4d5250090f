(* Open-loop pacing and latency bookkeeping for a pull-based engine.

   [paced] wraps a job sequence so that the engine pulling from it sees
   each job no earlier than its due time (the pacer spins until then),
   and records, per job k:

   - [due.(k)]: when the job was due to arrive (its scheduled time);
   - [pulled.(k)]: when the engine actually took it — later than due when
     the engine was still busy (queueing) or the generator ran late;
   - [completed.(k)]: when the engine finished with it.  A pull-based
     engine decides job k before it pulls job k+1, so job k completes at
     the next pull; the last job completes at the exhaustion pull.

   Latency is measured from [due], so a stall also delays every job due
   during it (no coordinated omission).  The clock is a parameter so the
   bookkeeping can be tested on a synthetic schedule. *)

type clock = {
  now : unit -> float;
  wait_until : float -> bool;
      (** block until the given time; [false] if it had already passed *)
}

let wall =
  let now = Rt_prelude.Clock.now in
  let wait_until d =
    if now () >= d then false
    else begin
      while now () < d do
        ()
      done;
      true
    end
  in
  { now; wait_until }

type log = {
  due : float array;
  pulled : float array;
  completed : float array;
  gc : Bytes.t;
      (** per job, when sampled: 0 no collection during its service gap
          [pulled, completed], 1 a minor one, 2 a major one *)
  mutable n : int;
  mutable late : int;  (** jobs the pacer found already overdue *)
  mutable exhausted_at : float;
  mutable source_s : float;  (** time spent inside the generator *)
}

let create_log capacity =
  {
    due = Array.make capacity 0.;
    pulled = Array.make capacity 0.;
    completed = Array.make capacity 0.;
    gc = Bytes.make capacity '\000';
    n = 0;
    late = 0;
    exhausted_at = 0.;
    source_s = 0.;
  }

(* [sample] adds two GC-counter reads and two clock reads per job (for
   the GC tag and the generator time); leave it off in untraced runs. *)
let paced ?(sample = false) clock log ~due_of seq =
  let minor0 = ref 0 and major0 = ref 0 in
  let rec pull k seq () =
    let t = clock.now () in
    if k > 0 then begin
      log.completed.(k - 1) <- t;
      if sample then begin
        let mi, ma = Metric.gc_counts () in
        Bytes.set log.gc (k - 1)
          (if ma > !major0 then '\002' else if mi > !minor0 then '\001'
           else '\000')
      end
    end;
    match seq () with
    | Seq.Nil ->
        log.n <- k;
        log.exhausted_at <- t;
        Seq.Nil
    | Seq.Cons (x, rest) ->
        if sample then log.source_s <- log.source_s +. (clock.now () -. t);
        let d = due_of x in
        log.due.(k) <- d;
        if not (clock.wait_until d) then log.late <- log.late + 1;
        if sample then begin
          let mi, ma = Metric.gc_counts () in
          minor0 := mi;
          major0 := ma
        end;
        log.pulled.(k) <- clock.now ();
        Seq.Cons (x, pull (k + 1) rest)
  in
  pull 0 seq

let latencies log = Array.init log.n (fun k -> log.completed.(k) -. log.due.(k))
let waits log = Array.init log.n (fun k -> log.pulled.(k) -. log.due.(k))
let gaps log = Array.init log.n (fun k -> log.completed.(k) -. log.pulled.(k))

type stalls = {
  threshold : float;  (** the p99 service gap *)
  with_gc : int;
  without_gc : int;
  top : (int * float * bool) list;
      (** the largest gaps: job index, gap, whether a collection ran *)
}

(* Tail attribution: every job whose own service gap is above the p99
   gap, tagged by whether a collection ran inside that gap (needs a log
   recorded with [~sample:true]). *)
let stalls ?(top = 8) log =
  let g = gaps log in
  let threshold = Pct.of_sorted (Pct.sorted_copy g) 0.99 in
  let with_gc = ref 0 and without_gc = ref 0 and over = ref [] in
  Array.iteri
    (fun k gap ->
      if gap > threshold then begin
        let gc = Bytes.get log.gc k <> '\000' in
        if gc then incr with_gc else incr without_gc;
        over := (k, gap, gc) :: !over
      end)
    g;
  let by_gap =
    List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a) !over
  in
  {
    threshold;
    with_gc = !with_gc;
    without_gc = !without_gc;
    top = List.filteri (fun i _ -> i < top) by_gap;
  }
