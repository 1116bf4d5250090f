module Fc = Rt_prelude.Float_cmp
open Rt_power

type policy =
  | Admit_all
  | Profitable
  | Density_threshold of float

type outcome = {
  energy : float;
  penalty : float;
  total : float;
  admitted : int list;
  rejected : int list;
  forced_rejections : int;
  makespan : float;
}

type miss = {
  job_id : int;
  at : float;
  deadline : float;
  active_ids : int list;
  density : float;
  backlog : float;
}

type error = Deadline_miss of miss | Invalid of string

let error_to_string = function
  | Invalid msg -> msg
  | Deadline_miss m ->
      Printf.sprintf
        "Admission: job %d missed its deadline %g at t=%g (density %g, \
         backlog %g cycles across %d active job(s))"
        m.job_id m.deadline m.at m.density m.backlog
        (List.length m.active_ids)

type decision = Admitted | Declined | Infeasible

let eps = 1e-9

(* ------------------------------------------------------------------ *)
(* One processor's pending set in struct-of-arrays form: parallel arrays
   sorted by (deadline ascending, newest admission first among exact
   ties) — exactly the order the old [density_pairs] produced by
   stable-sorting the newest-first cons list this layout replaces, so
   every density fold visits the same floats in the same order. [seqs]
   records admission recency so the cold snapshots (residuals, kill,
   miss logs) can still present jobs newest-first, like the list did. *)

type pending = {
  mutable len : int;
  mutable jobs : Job.t array;
  mutable remaining : float array;  (** unboxed EDF work left, per job *)
  mutable deadlines : float array;  (** unboxed cache of [jobs.(i).deadline] *)
  mutable seqs : int array;  (** admission order; larger = newer *)
}

let pending_create () =
  { len = 0; jobs = [||]; remaining = [||]; deadlines = [||]; seqs = [||] }

(* grow the parallel arrays; [j] only seeds the fresh [Job.t] slots *)
let pending_grow pen (j : Job.t) =
  let cap = Int.max 4 (2 * Array.length pen.jobs) in
  let jobs = Array.make cap j in
  Array.blit pen.jobs 0 jobs 0 pen.len;
  let remaining = Array.make cap 0. in
  Array.blit pen.remaining 0 remaining 0 pen.len;
  let deadlines = Array.make cap 0. in
  Array.blit pen.deadlines 0 deadlines 0 pen.len;
  let seqs = Array.make cap 0 in
  Array.blit pen.seqs 0 seqs 0 pen.len;
  pen.jobs <- jobs;
  pen.remaining <- remaining;
  pen.deadlines <- deadlines;
  pen.seqs <- seqs

(* leftmost slot whose deadline is >= d: inserting there keeps every
   exact-tie group newest-first, which is where a stable sort of the
   newest-first cons list would have put a fresh arrival *)
let rec insert_pos pen d i =
  if i >= pen.len || Float.compare pen.deadlines.(i) d >= 0 then i
  else insert_pos pen d (i + 1)

let pending_insert pen (j : Job.t) ~remaining ~seq =
  if pen.len >= Array.length pen.jobs then pending_grow pen j;
  let pos = insert_pos pen j.Job.deadline 0 in
  let shift = pen.len - pos in
  Array.blit pen.jobs pos pen.jobs (pos + 1) shift;
  Array.blit pen.remaining pos pen.remaining (pos + 1) shift;
  Array.blit pen.deadlines pos pen.deadlines (pos + 1) shift;
  Array.blit pen.seqs pos pen.seqs (pos + 1) shift;
  pen.jobs.(pos) <- j;
  pen.remaining.(pos) <- remaining;
  pen.deadlines.(pos) <- j.Job.deadline;
  pen.seqs.(pos) <- seq;
  pen.len <- pen.len + 1

let pending_remove pen pos =
  let shift = pen.len - pos - 1 in
  Array.blit pen.jobs (pos + 1) pen.jobs pos shift;
  Array.blit pen.remaining (pos + 1) pen.remaining pos shift;
  Array.blit pen.deadlines (pos + 1) pen.deadlines pos shift;
  Array.blit pen.seqs (pos + 1) pen.seqs pos shift;
  pen.len <- pen.len - 1

(* positions in admission-recency order (newest first) — the order the
   cons list used to present its items; only the cold snapshot paths
   need it. [seqs] are distinct, so the comparator is a total order. *)
let recency_positions pen =
  let idx = Array.init pen.len (fun i -> i) in
  Array.sort (fun a b -> Int.compare pen.seqs.(b) pen.seqs.(a)) idx;
  idx

(* the minimum constant speed meeting every pending commitment from
   [now]: max over deadlines of cumulative-work-due / time-to-deadline.
   The arrays are deadline-sorted, so this is one allocation-free pass
   with unboxed accumulators. *)
let rec density_go pen now i work best =
  if i >= pen.len then best
  else begin
    let work = work +. pen.remaining.(i) in
    let slack = pen.deadlines.(i) -. now in
    if Fc.exact_le slack eps then density_go pen now (i + 1) work Float.infinity
    else density_go pen now (i + 1) work (Float.max best (work /. slack))
  end

let pending_density pen ~now = density_go pen now 0 0. 0.

(* density of the pending set plus one hypothetical job, without
   materializing the trial set: a merge walk that folds the trial in
   where a stable sort of the consed trial list would have placed it
   (leftmost among exact deadline ties), so the accumulation order —
   and thus every float result — matches the old cons-and-sort probe *)
let rec density_trial_go pen now r_t d_t placed i work best =
  if (not placed) && (i >= pen.len || Float.compare pen.deadlines.(i) d_t >= 0)
  then begin
    let work = work +. r_t in
    let slack = d_t -. now in
    if Fc.exact_le slack eps then
      density_trial_go pen now r_t d_t true i work Float.infinity
    else
      density_trial_go pen now r_t d_t true i work
        (Float.max best (work /. slack))
  end
  else if i >= pen.len then best
  else begin
    let work = work +. pen.remaining.(i) in
    let slack = pen.deadlines.(i) -. now in
    if Fc.exact_le slack eps then
      density_trial_go pen now r_t d_t placed (i + 1) work Float.infinity
    else
      density_trial_go pen now r_t d_t placed (i + 1) work
        (Float.max best (work /. slack))
  end

let pending_density_with pen ~now ~remaining ~deadline =
  density_trial_go pen now remaining deadline false 0 0. 0.

(* the same fold over an explicit pair list — the re-planning probe
   ([Exec.density_of]) splices caller-supplied hypothetical work in
   front of the pending set, exactly as the list-based executor did *)
let density_pairs ~now pairs =
  let sorted =
    List.sort (fun (_, da) (_, db) -> Float.compare da db) pairs
  in
  (* unboxed accumulators: cumulative work and the running max density *)
  let rec go work best = function
    | [] -> best
    | (remaining, deadline) :: rest ->
        let work = work +. remaining in
        let slack = deadline -. now in
        if Fc.exact_le slack eps then go work Float.infinity rest
        else go work (Float.max best (work /. slack)) rest
  in
  go 0. 0. sorted

let critical (proc : Processor.t) =
  match proc.dormancy with
  | Processor.Dormant_enable _ -> Processor.critical_speed proc
  | Processor.Dormant_disable -> Processor.s_min proc

let idle_power (proc : Processor.t) =
  match proc.dormancy with
  | Processor.Dormant_enable _ -> 0.
  | Processor.Dormant_disable -> Processor.idle_power proc

(* the structured state an incident log wants when an admitted job is
   late: who was pending, how much work was left, and the density the
   executor was trying to sustain (only evaluated on the error path).
   The backlog sums in admission-recency order, as the cons list did. *)
let miss_of pen ~now (late : Job.t) =
  let order = recency_positions pen in
  {
    job_id = late.Job.id;
    at = now;
    deadline = late.Job.deadline;
    active_ids =
      List.sort compare
        (Array.to_list (Array.map (fun p -> pen.jobs.(p).Job.id) order));
    density = pending_density pen ~now;
    backlog =
      Array.fold_left (fun acc p -> acc +. pen.remaining.(p)) 0. order;
  }

(* earliest deadline lives at position 0 of the sorted arrays; scan the
   exact-tie prefix for the smallest id so the EDF pick stays the same
   total order the list fold used *)
let rec edf_scan pen d0 i best =
  if i >= pen.len || not (Fc.exact_eq pen.deadlines.(i) d0) then best
  else
    edf_scan pen d0 (i + 1)
      (if pen.jobs.(i).Job.id < pen.jobs.(best).Job.id then i else best)

let edf_pick pen = edf_scan pen pen.deadlines.(0) 1 0

(* run EDF from [now] to [until] (or to work exhaustion), returning the new
   time, accumulated energy, and the completion time of the last finished
   job; fails if an admitted job misses its deadline. [cap] is the
   effective top speed — [s_max] on a healthy platform, lower under a
   derating fault. [s_crit] and [p_idle] are the processor's critical
   speed and idle draw, hoisted to the executor by the caller. *)
let advance (proc : Processor.t) ~cap ~s_crit ~p_idle pen ~now ~until =
  let energy = ref 0. in
  let last_completion = ref Float.neg_infinity in
  let now = ref now in
  let err = ref None in
  let rec run () =
    if !err <> None then ()
    else if Fc.exact_ge !now (until -. eps) then ()
    else if pen.len = 0 then begin
      (* idle to the horizon of this segment *)
      energy := !energy +. (p_idle *. (until -. !now));
      now := until
    end
    else begin
      let speed =
        Rt_prelude.Float_cmp.clamp ~lo:0. ~hi:cap
          (Float.max s_crit (pending_density pen ~now:!now))
      in
      if Fc.exact_le speed 0. then begin
        (* zero density with work pending cannot happen (cycles > 0) *)
        err := Some (Invalid "Admission: zero speed with pending work")
      end
      else begin
        let i = edf_pick pen in
        let jb = pen.jobs.(i) in
        let finish = !now +. (pen.remaining.(i) /. speed) in
        let t_next = Float.min finish until in
        let dt = t_next -. !now in
        energy := !energy +. (dt *. Power_model.power proc.model speed);
        pen.remaining.(i) <- pen.remaining.(i) -. (dt *. speed);
        now := t_next;
        if Fc.exact_le pen.remaining.(i) (eps *. Float.max 1. jb.Job.cycles)
        then begin
          if Fc.exact_gt !now (jb.Job.deadline +. 1e-6) then
            err := Some (Deadline_miss (miss_of pen ~now:!now jb))
          else begin
            last_completion := Float.max !last_completion !now;
            pending_remove pen i
          end
        end;
        run ()
      end
    end
  in
  run ();
  match !err with
  | Some e -> Error e
  | None -> Ok (!now, !energy, !last_completion)

let marginal_estimate (proc : Processor.t) ~cap ~s_crit pen ~now (j : Job.t) =
  let s =
    Rt_prelude.Float_cmp.clamp ~lo:0. ~hi:cap
      (Float.max s_crit
         (pending_density_with pen ~now ~remaining:j.Job.cycles
            ~deadline:j.Job.deadline))
  in
  if Fc.exact_le s 0. then Float.infinity
  else j.Job.cycles *. Power_model.power proc.model s /. s

(* ------------------------------------------------------------------ *)
(* The stepwise executor. [simulate_mp] below and the streaming service
   (lib/serve) drive the same state through the same entry points, which
   is what makes the no-fault serve path byte-identical to the batch
   simulation: there is only one implementation of "advance the EDF
   executors to t, then decide this arrival". *)

module Exec = struct
  type t = {
    proc : Processor.t;
    mutable cap : float;
    pendings : pending array;
    alive : bool array;
    seen : (int, unit) Hashtbl.t;
    s_crit : float;  (** [critical proc], hoisted out of the hot loops *)
    p_idle : float;  (** [idle_power proc], likewise *)
    mutable seq : int;  (** admission recency counter for the snapshots *)
    energy : float ref;
    penalty : float ref;
    admitted : int list ref;
    rejected : int list ref;
    forced : int ref;
    makespan : float ref;
    now : float ref;
  }

  let create ~proc ~m =
    if m < 1 then Error (Invalid "Admission.simulate_mp: m < 1")
    else if not (Processor.is_ideal proc) then
      Error (Invalid "Admission.simulate: ideal processors only")
    else
      Ok
        {
          proc;
          cap = Processor.s_max proc;
          pendings = Array.init m (fun _ -> pending_create ());
          alive = Array.make m true;
          seen = Hashtbl.create 97;
          s_crit = critical proc;
          p_idle = idle_power proc;
          seq = 0;
          energy = ref 0.;
          penalty = ref 0.;
          admitted = ref [];
          rejected = ref [];
          forced = ref 0;
          makespan = ref 0.;
          now = ref 0.;
        }

  let now t = !(t.now)
  let m t = Array.length t.pendings
  let speed_cap t = t.cap

  let set_speed_cap t cap =
    if Fc.exact_le cap 0. || not (Float.is_finite cap) then
      Error (Invalid "Admission.Exec: speed cap must be finite and > 0")
    else begin
      t.cap <- cap;
      Ok ()
    end

  let live t =
    let acc = ref [] in
    Array.iteri (fun i alive -> if alive then acc := i :: !acc) t.alive;
    List.rev !acc

  let backlog t =
    Array.fold_left
      (fun acc pen ->
        Array.fold_left
          (fun acc p -> acc +. pen.remaining.(p))
          acc (recency_positions pen))
      0. t.pendings

  (* attach [j] as the newest pending entry on processor [i] *)
  let attach t i (j : Job.t) ~remaining =
    t.seq <- t.seq + 1;
    pending_insert t.pendings.(i) j ~remaining ~seq:t.seq

  (* advance every live processor to [until]; they do not interact.
     Crashed processors execute nothing and burn nothing; whatever work
     they still hold stays frozen until the caller re-plans it. *)
  let advance_to t ~until =
    if Fc.exact_lt until !(t.now) then
      Error (Invalid "Admission.Exec: time went backwards")
    else begin
      let result = ref (Ok ()) in
      Array.iteri
        (fun i pen ->
          match !result with
          | Error _ -> ()
          | Ok () ->
              if t.alive.(i) then begin
                match
                  advance t.proc ~cap:t.cap ~s_crit:t.s_crit ~p_idle:t.p_idle
                    pen ~now:!(t.now) ~until
                with
                | Error e -> result := Error e
                | Ok (_, e, last) ->
                    t.energy := !(t.energy) +. e;
                    if Fc.exact_gt last 0. then
                      t.makespan := Float.max !(t.makespan) last
              end)
        t.pendings;
      match !result with
      | Error _ as e -> e
      | Ok () ->
          t.now := until;
          Ok ()
    end

  let record_reject t (j : Job.t) =
    t.rejected := j.Job.id :: !(t.rejected);
    t.penalty := !(t.penalty) +. j.Job.penalty

  let reject t (j : Job.t) =
    if Hashtbl.mem t.seen j.Job.id then
      Error (Invalid "Admission.simulate: duplicate job ids")
    else begin
      Hashtbl.add t.seen j.Job.id ();
      record_reject t j;
      Ok ()
    end

  (* the per-arrival step: feasibility over the live processors, then the
     policy. The decision instant is [now t] — deciding late (a queued
     arrival) simply leaves the job less slack. *)
  let decide t ~policy (j : Job.t) =
    if Hashtbl.mem t.seen j.Job.id then
      Error (Invalid "Admission.simulate: duplicate job ids")
    else begin
      Hashtbl.add t.seen j.Job.id ();
      (* feasible processor with the cheapest marginal estimate: an
         unboxed index/estimate scan.  One (index, estimate) pair is
         built at the end — re-probing the winner would cost a full
         marginal_estimate per decision *)
      let n = Array.length t.pendings in
      (* lint: allow-hot-boxed-float "one (index, estimate) pair per decision, not per scan step" *)
      let rec best_proc i best_i best_est =
        if i >= n then (best_i, best_est)
        else if t.alive.(i) then begin
          let pen = t.pendings.(i) in
          if
            Rt_prelude.Float_cmp.leq
              (pending_density_with pen ~now:!(t.now) ~remaining:j.Job.cycles
                 ~deadline:j.Job.deadline)
              t.cap
          then begin
            let est =
              marginal_estimate t.proc ~cap:t.cap ~s_crit:t.s_crit pen
                ~now:!(t.now) j
            in
            if best_i < 0 || not (Fc.exact_le best_est est) then
              best_proc (i + 1) i est
            else best_proc (i + 1) best_i best_est
          end
          else best_proc (i + 1) best_i best_est
        end
        else best_proc (i + 1) best_i best_est
      in
      let best_i, best_est = best_proc 0 (-1) 0. in
      if best_i < 0 then begin
        incr t.forced;
        record_reject t j;
        Ok Infeasible
      end
      else begin
        let accept =
          match policy with
          | Admit_all -> true
          | Profitable -> Rt_prelude.Float_cmp.leq best_est j.Job.penalty
          | Density_threshold theta ->
              (* tolerant: this is the paper's accept/reject boundary *)
              Rt_prelude.Float_cmp.geq (j.Job.penalty /. j.Job.cycles) theta
        in
        if accept then begin
          attach t best_i j ~remaining:j.Job.cycles;
          t.admitted := j.Job.id :: !(t.admitted);
          Ok Admitted
        end
        else begin
          record_reject t j;
          Ok Declined
        end
      end
    end

  (* the degraded-tier decision: one density test on the first feasible
     live processor, a penalty-per-cycle threshold, and no marginal-energy
     estimate — the cheap path the watchdog falls back to. *)
  let decide_cheap t ~theta (j : Job.t) =
    if Hashtbl.mem t.seen j.Job.id then
      Error (Invalid "Admission.simulate: duplicate job ids")
    else begin
      Hashtbl.add t.seen j.Job.id ();
      (* first feasible live processor, by index; early exit instead of
         the latched-ref full sweep this replaces (same winner) *)
      let n = Array.length t.pendings in
      let rec first_feasible i =
        if i >= n then -1
        else if
          t.alive.(i)
          && Rt_prelude.Float_cmp.leq
               (pending_density_with t.pendings.(i) ~now:!(t.now)
                  ~remaining:j.Job.cycles ~deadline:j.Job.deadline)
               t.cap
        then i
        else first_feasible (i + 1)
      in
      match first_feasible 0 with
      | -1 ->
          incr t.forced;
          record_reject t j;
          Ok Infeasible
      | target ->
          if Rt_prelude.Float_cmp.geq (j.Job.penalty /. j.Job.cycles) theta
          then begin
            attach t target j ~remaining:j.Job.cycles;
            t.admitted := j.Job.id :: !(t.admitted);
            Ok Admitted
          end
          else begin
            record_reject t j;
            Ok Declined
          end
    end

  let residuals t ~proc =
    if proc < 0 || proc >= Array.length t.pendings then []
    else begin
      let pen = t.pendings.(proc) in
      Array.to_list
        (Array.map
           (fun p -> (pen.jobs.(p), pen.remaining.(p)))
           (recency_positions pen))
    end

  let density_of t ~proc ~extra =
    if proc < 0 || proc >= Array.length t.pendings then Float.infinity
    else begin
      let pen = t.pendings.(proc) in
      let pairs =
        Array.to_list
          (Array.map
             (fun p -> (pen.remaining.(p), pen.deadlines.(p)))
             (recency_positions pen))
      in
      density_pairs ~now:!(t.now) (extra @ pairs)
    end

  let remove_active t ~id =
    let found = ref None in
    Array.iter
      (fun pen ->
        if Option.is_none !found then begin
          (* find the entry, then purge every slot with this id — the
             List.find_opt + List.filter pair this replaces did both *)
          let rec find i =
            if i >= pen.len then ()
            else if pen.jobs.(i).Job.id = id then
              found := Some (pen.jobs.(i), pen.remaining.(i))
            else find (i + 1)
          in
          find 0;
          if Option.is_some !found then begin
            let rec purge i =
              if i < pen.len then
                if pen.jobs.(i).Job.id = id then begin
                  pending_remove pen i;
                  purge i
                end
                else purge (i + 1)
            in
            purge 0
          end
        end)
      t.pendings;
    !found

  let place t ~proc (job, remaining) =
    if proc < 0 || proc >= Array.length t.pendings then
      Error (Invalid "Admission.Exec.place: processor out of range")
    else if not t.alive.(proc) then
      Error (Invalid "Admission.Exec.place: processor is dead")
    else begin
      attach t proc job ~remaining;
      Ok ()
    end

  (* un-admit a job already detached from its processor: the service pays
     its rejection penalty instead of silently missing its deadline *)
  let drop_admitted t (j : Job.t) =
    t.admitted := List.filter (fun id -> id <> j.Job.id) !(t.admitted);
    record_reject t j

  let kill t ~proc =
    if proc < 0 || proc >= Array.length t.pendings then []
    else begin
      t.alive.(proc) <- false;
      let pen = t.pendings.(proc) in
      let orphans =
        Array.to_list
          (Array.map
             (fun p -> (pen.jobs.(p), pen.remaining.(p)))
             (recency_positions pen))
      in
      pen.len <- 0;
      (* drop the job references so a dead processor holds nothing *)
      pen.jobs <- [||];
      pen.remaining <- [||];
      pen.deadlines <- [||];
      pen.seqs <- [||];
      orphans
    end

  let inflate t ~id ~factor =
    let hit = ref false in
    Array.iter
      (fun pen ->
        for i = 0 to pen.len - 1 do
          if pen.jobs.(i).Job.id = id then begin
            pen.remaining.(i) <- pen.remaining.(i) *. factor;
            hit := true
          end
        done)
      t.pendings;
    !hit

  let finish t =
    (* drain the remaining work on every processor *)
    let horizon =
      Array.fold_left
        (fun acc pen ->
          let acc = ref acc in
          for i = 0 to pen.len - 1 do
            acc := Float.max !acc pen.jobs.(i).Job.deadline
          done;
          !acc)
        !(t.now) t.pendings
    in
    match advance_to t ~until:(horizon +. 1.) with
    | Error e -> Error e
    | Ok () ->
        if Array.exists (fun pen -> pen.len > 0) t.pendings then
          Error (Invalid "Admission.simulate: work left after the last deadline")
        else
          Ok
            {
              energy = !(t.energy);
              penalty = !(t.penalty);
              total = !(t.energy) +. !(t.penalty);
              admitted = List.sort compare !(t.admitted);
              rejected = List.sort compare !(t.rejected);
              forced_rejections = !(t.forced);
              makespan = !(t.makespan);
            }
end

let simulate_mp ~(proc : Processor.t) ~m ~policy jobs =
  match Exec.create ~proc ~m with
  | Error e -> Error e
  | Ok t ->
      if
        not
          (Rt_task.Task.distinct_ids
             (List.map (fun (j : Job.t) -> j.Job.id) jobs))
      then Error (Invalid "Admission.simulate: duplicate job ids")
      else begin
        let jobs = Job.by_arrival jobs in
        let rec process = function
          | [] -> Exec.finish t
          | (j : Job.t) :: rest -> (
              match Exec.advance_to t ~until:j.Job.arrival with
              | Error e -> Error e
              | Ok () -> (
                  match Exec.decide t ~policy j with
                  | Error e -> Error e
                  | Ok _ -> process rest))
        in
        process jobs
      end

let simulate ~proc ~policy jobs = simulate_mp ~proc ~m:1 ~policy jobs

let job_bound ~(proc : Processor.t) (j : Job.t) =
  let s_max = Processor.s_max proc in
  let s_crit = critical proc in
  let s =
    Rt_prelude.Float_cmp.clamp ~lo:1e-9 ~hi:s_max
      (Float.max s_crit (Job.laxity_speed j))
  in
  let run_cost = j.Job.cycles *. Power_model.power proc.model s /. s in
  Float.min j.Job.penalty run_cost

let lower_bound ~(proc : Processor.t) jobs =
  List.fold_left (fun acc j -> acc +. job_bound ~proc j) 0. jobs
