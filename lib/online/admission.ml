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
   ties) — the order a stable deadline sort of a newest-first list of
   the same jobs gives, so every density fold visits the same floats in
   the same order. Insertions and removals shift the tail and keep it. *)

type pending = {
  mutable len : int;
  mutable jobs : Job.t array;
  mutable remaining : float array;  (** unboxed EDF work left, per job *)
  mutable deadlines : float array;  (** unboxed cache of [jobs.(i).deadline] *)
}

let pending_create () =
  { len = 0; jobs = [||]; remaining = [||]; deadlines = [||] }

(* grow the parallel arrays; [j] only seeds the fresh [Job.t] slots *)
let pending_grow pen (j : Job.t) =
  let cap = Int.max 4 (2 * Array.length pen.jobs) in
  let jobs = Array.make cap j in
  Array.blit pen.jobs 0 jobs 0 pen.len;
  let remaining = Array.make cap 0. in
  Array.blit pen.remaining 0 remaining 0 pen.len;
  let deadlines = Array.make cap 0. in
  Array.blit pen.deadlines 0 deadlines 0 pen.len;
  pen.jobs <- jobs;
  pen.remaining <- remaining;
  pen.deadlines <- deadlines

(* leftmost slot whose deadline is >= d: inserting there keeps every
   exact-tie group newest-first *)
let rec insert_pos pen d i =
  if i >= pen.len || Float.compare pen.deadlines.(i) d >= 0 then i
  else insert_pos pen d (i + 1)

let pending_insert pen (j : Job.t) ~remaining =
  if pen.len >= Array.length pen.jobs then pending_grow pen j;
  let pos = insert_pos pen j.Job.deadline 0 in
  let shift = pen.len - pos in
  Array.blit pen.jobs pos pen.jobs (pos + 1) shift;
  Array.blit pen.remaining pos pen.remaining (pos + 1) shift;
  Array.blit pen.deadlines pos pen.deadlines (pos + 1) shift;
  pen.jobs.(pos) <- j;
  pen.remaining.(pos) <- remaining;
  pen.deadlines.(pos) <- j.Job.deadline;
  pen.len <- pen.len + 1

let pending_remove pen pos =
  let shift = pen.len - pos - 1 in
  Array.blit pen.jobs (pos + 1) pen.jobs pos shift;
  Array.blit pen.remaining (pos + 1) pen.remaining pos shift;
  Array.blit pen.deadlines (pos + 1) pen.deadlines pos shift;
  pen.len <- pen.len - 1

(* the pending jobs with their remaining cycles, in slot order *)
let pending_to_list pen =
  List.init pen.len (fun i -> (pen.jobs.(i), pen.remaining.(i)))

(* The one density fold: the minimum constant speed meeting every
   pending commitment from [now], max over deadlines of
   cumulative-work-due / time-to-deadline, one pass over the
   deadline-sorted arrays. Unless [placed], one hypothetical job
   ([r_t] cycles due at [d_t]) is merged in without materializing the
   trial set, leftmost among exact deadline ties — where a stable
   deadline sort of the trial consed onto the pending list would place
   it. Its accumulators [work] and [best] are recursive arguments, which
   ocamlopt (without flambda) boxes on every step; a [for] loop over
   local float refs would not allocate. *)
let rec density_go pen now r_t d_t placed i work best =
  if (not placed) && (i >= pen.len || Float.compare pen.deadlines.(i) d_t >= 0)
  then begin
    let work = work +. r_t in
    let slack = d_t -. now in
    if Fc.exact_le slack eps then
      density_go pen now r_t d_t true i work Float.infinity
    else density_go pen now r_t d_t true i work (Float.max best (work /. slack))
  end
  else if i >= pen.len then best
  else begin
    let work = work +. pen.remaining.(i) in
    let slack = pen.deadlines.(i) -. now in
    if Fc.exact_le slack eps then
      density_go pen now r_t d_t placed (i + 1) work Float.infinity
    else
      density_go pen now r_t d_t placed (i + 1) work
        (Float.max best (work /. slack))
  end

let pending_density pen ~now = density_go pen now 0. 0. true 0 0. 0.

let pending_density_with pen ~now ~remaining ~deadline =
  density_go pen now remaining deadline false 0 0. 0.

(* the structured state an incident log wants when an admitted job is
   late: who was pending, how much work was left, and the density the
   executor was trying to sustain (only evaluated on the error path).
   The backlog sums in slot (deadline) order. *)
let miss_of pen ~now (late : Job.t) =
  let pending = pending_to_list pen in
  {
    job_id = late.Job.id;
    at = now;
    deadline = late.Job.deadline;
    active_ids =
      List.sort compare (List.map (fun ((j : Job.t), _) -> j.Job.id) pending);
    density = pending_density pen ~now;
    backlog = List.fold_left (fun acc (_, r) -> acc +. r) 0. pending;
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
   derating fault. [s_floor] and [p_rest] are the processor's
   {!Processor.floor_speed} and {!Processor.rest_power}, hoisted to the
   executor by the caller. *)
let advance (proc : Processor.t) ~cap ~s_floor ~p_rest pen ~now ~until =
  let energy = ref 0. in
  let last_completion = ref Float.neg_infinity in
  let now = ref now in
  let err = ref None in
  let rec run () =
    if !err <> None then ()
    else if Fc.exact_ge !now (until -. eps) then ()
    else if pen.len = 0 then begin
      (* idle to the horizon of this segment *)
      energy := !energy +. (p_rest *. (until -. !now));
      now := until
    end
    else begin
      let speed =
        Rt_prelude.Float_cmp.clamp ~lo:0. ~hi:cap
          (Float.max s_floor (pending_density pen ~now:!now))
      in
      if Fc.exact_le speed 0. then begin
        (* zero density with work pending cannot happen (cycles > 0) *)
        err := Some (Invalid "Admission: zero speed with pending work")
      end
      else begin
        let i = edf_pick pen in
        let jb = pen.jobs.(i) in
        let start = !now in
        let finish = start +. (pen.remaining.(i) /. speed) in
        let t_next = Float.min finish until in
        let dt = t_next -. start in
        energy := !energy +. (dt *. Power_model.power proc.model speed);
        pen.remaining.(i) <- pen.remaining.(i) -. (dt *. speed);
        now := t_next;
        (* a finish that rounds to [start] leaves work below the time
           resolution at [start]: the step changed nothing and would
           repeat forever, so the job completes *)
        if
          Fc.exact_le pen.remaining.(i) (eps *. Float.max 1. jb.Job.cycles)
          || Fc.exact_le finish start
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

(* [density] is the pending set's density with [j] merged in, as the
   admission test already folded it *)
let marginal_estimate (proc : Processor.t) ~cap ~s_floor ~density
    (j : Job.t) =
  let s =
    Rt_prelude.Float_cmp.clamp ~lo:0. ~hi:cap (Float.max s_floor density)
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
    s_floor : float;  (** [Processor.floor_speed proc], hoisted *)
    p_rest : float;  (** [Processor.rest_power proc], likewise *)
    energy : float ref;
    penalty : float ref;
    admitted : int list ref;
    mutable unadmitted : (int, unit) Hashtbl.t option;
        (** ids re-planning shed after admission, filtered out of
            [admitted] once, in [finish]; created at the first shed *)
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
          s_floor = Processor.floor_speed proc;
          p_rest = Processor.rest_power proc;
          energy = ref 0.;
          penalty = ref 0.;
          admitted = ref [];
          unadmitted = None;
          rejected = ref [];
          forced = ref 0;
          makespan = ref 0.;
          now = ref 0.;
        }

  let now t = !(t.now)
  let speed_cap t = t.cap

  let live t =
    let acc = ref [] in
    Array.iteri (fun i alive -> if alive then acc := i :: !acc) t.alive;
    List.rev !acc

  (* attach [j] as the newest pending entry on processor [i] *)
  let attach t i (j : Job.t) ~remaining =
    pending_insert t.pendings.(i) j ~remaining

  (* advance every live processor to [until]; they do not interact.
     Crashed processors execute nothing and burn nothing ([crash] has
     already moved or shed their work). *)
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
                  advance t.proc ~cap:t.cap ~s_floor:t.s_floor ~p_rest:t.p_rest
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

  (* un-admit a job already detached from its processor: it pays its
     rejection penalty instead of silently missing its deadline *)
  let unadmit t (j : Job.t) =
    let tbl =
      match t.unadmitted with
      | Some tbl -> tbl
      | None ->
          let tbl = Hashtbl.create 16 in
          t.unadmitted <- Some tbl;
          tbl
    in
    Hashtbl.replace tbl j.Job.id ();
    record_reject t j

  (* The one owner of the duplicate-id rule: [register] records [j]'s
     id and is [false] for a repeat. [decide], [decide_cheap] and
     [reject] each call it first, so every id the executor sees —
     admitted, declined, forced or shed — is refused the second time. *)
  let register t (j : Job.t) =
    if Hashtbl.mem t.seen j.Job.id then false
    else begin
      Hashtbl.add t.seen j.Job.id ();
      true
    end

  let duplicate = Error (Invalid "Admission.simulate: duplicate job ids")

  let reject t (j : Job.t) =
    if register t j then begin
      record_reject t j;
      Ok ()
    end
    else duplicate

  (* the one admit/decline/force path: no feasible [target] (-1) forces
     a rejection, else the policy's [accept] admits onto it or declines *)
  let settle t (j : Job.t) ~target ~accept =
    if target < 0 then begin
      incr t.forced;
      record_reject t j;
      Ok Infeasible
    end
    else if accept then begin
      attach t target j ~remaining:j.Job.cycles;
      t.admitted := j.Job.id :: !(t.admitted);
      Ok Admitted
    end
    else begin
      record_reject t j;
      Ok Declined
    end

  (* the per-arrival step: feasibility over the live processors, then the
     policy. The decision instant is [now t] — deciding late (a queued
     arrival) simply leaves the job less slack. *)
  let decide t ~policy (j : Job.t) =
    if not (register t j) then duplicate
    else begin
      (* feasible processor with the cheapest marginal estimate: an
         unboxed index/estimate scan.  One (index, estimate) pair is
         built at the end — re-probing the winner would cost a full
         marginal_estimate per decision *)
      let n = Array.length t.pendings in
      (* lint: allow-hot-boxed-float "one (index, estimate) pair per decision, not per scan step" *)
      let rec best_proc i best_i best_est =
        if i >= n then (best_i, best_est)
        else if t.alive.(i) then begin
          let density =
            pending_density_with t.pendings.(i) ~now:!(t.now)
              ~remaining:j.Job.cycles ~deadline:j.Job.deadline
          in
          if Rt_prelude.Float_cmp.leq density t.cap then begin
            let est =
              marginal_estimate t.proc ~cap:t.cap ~s_floor:t.s_floor
                ~density j
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
      let accept =
        best_i >= 0
        &&
        match policy with
        | Admit_all -> true
        | Profitable -> Rt_prelude.Float_cmp.leq best_est j.Job.penalty
        | Density_threshold theta ->
            (* tolerant: this is the paper's accept/reject boundary *)
            Rt_prelude.Float_cmp.geq (j.Job.penalty /. j.Job.cycles) theta
      in
      settle t j ~target:best_i ~accept
    end

  (* the degraded-tier decision: one density test on the first feasible
     live processor, a penalty-per-cycle threshold, and no marginal-energy
     estimate — the cheap path the watchdog falls back to. *)
  let decide_cheap t ~theta (j : Job.t) =
    if not (register t j) then duplicate
    else begin
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
      let target = first_feasible 0 in
      let accept =
        target >= 0
        && Rt_prelude.Float_cmp.geq (j.Job.penalty /. j.Job.cycles) theta
      in
      settle t j ~target ~accept
    end

  (* ---------------------------------------------------------------- *)
  (* Faults and re-planning. A fault may leave a live processor's
     pending set over-committed; [replan] and [crash] decide again, on
     already admitted jobs, with the same density folds [decide] uses:
     keep a job, move it, or shed it and pay its penalty. *)

  let live_proc t proc =
    proc >= 0 && proc < Array.length t.pendings && t.alive.(proc)

  let derate t ~factor =
    if not (Fc.exact_gt factor 0. && Fc.exact_le factor 1.) then
      Error (Invalid "Admission.Exec.derate: factor must be in (0, 1]")
    else begin
      t.cap <- Float.min t.cap (factor *. Processor.s_max t.proc);
      Ok ()
    end

  let crash t ~proc =
    if not (live_proc t proc) then ([], [])
    else begin
      t.alive.(proc) <- false;
      let pen = t.pendings.(proc) in
      let orphans =
        List.sort
          (fun ((a : Job.t), _) ((b : Job.t), _) ->
            Int.compare a.Job.id b.Job.id)
          (pending_to_list pen)
      in
      pen.len <- 0;
      (* drop the job references so a dead processor holds nothing *)
      pen.jobs <- [||];
      pen.remaining <- [||];
      pen.deadlines <- [||];
      let now = !(t.now) in
      let n = Array.length t.pendings in
      let rehome (moved, shed) ((j : Job.t), remaining) =
        (* the feasible live processor with the least density after taking
           the orphan; the first in index order wins a tolerant tie *)
        let rec best i best_i best_d =
          if i >= n then best_i
          else if not t.alive.(i) then best (i + 1) best_i best_d
          else begin
            let d =
              pending_density_with t.pendings.(i) ~now ~remaining
                ~deadline:j.Job.deadline
            in
            if Fc.leq d t.cap && (best_i < 0 || not (Fc.leq best_d d)) then
              best (i + 1) i d
            else best (i + 1) best_i best_d
          end
        in
        match best 0 (-1) 0. with
        | -1 ->
            unadmit t j;
            (moved, j.Job.id :: shed)
        | i ->
            attach t i j ~remaining;
            (j.Job.id :: moved, shed)
      in
      let moved, shed = List.fold_left rehome ([], []) orphans in
      (List.rev moved, List.rev shed)
    end

  let replan t ~proc =
    if not (live_proc t proc) then []
    else begin
      let pen = t.pendings.(proc) in
      let fits () = Fc.leq (pending_density pen ~now:!(t.now)) t.cap in
      if fits () then []
      else begin
        (* cheapest rejection value per remaining cycle first, ties by
           id: the online form of [Shed_density]'s penalty-per-weight
           order *)
        let victims =
          List.sort
            (fun ((a : Job.t), ra) ((b : Job.t), rb) ->
              let c =
                Float.compare (a.Job.penalty /. ra) (b.Job.penalty /. rb)
              in
              if c <> 0 then c else Int.compare a.Job.id b.Job.id)
            (pending_to_list pen)
        in
        let rec slot id i =
          if pen.jobs.(i).Job.id = id then i else slot id (i + 1)
        in
        let rec shed acc = function
          | ((j : Job.t), _) :: rest when not (fits ()) ->
              pending_remove pen (slot j.Job.id 0);
              unadmit t j;
              shed (j.Job.id :: acc) rest
          | _ -> List.rev acc
        in
        shed [] victims
      end
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
              admitted =
                List.sort compare
                  (match t.unadmitted with
                  | None -> !(t.admitted)
                  | Some tbl ->
                      (* ids are unique ([seen]), so this drops
                         exactly the un-admitted jobs *)
                      List.filter
                        (fun id -> not (Hashtbl.mem tbl id))
                        !(t.admitted));
              rejected = List.sort compare !(t.rejected);
              forced_rejections = !(t.forced);
              makespan = !(t.makespan);
            }
end

let simulate_mp ~(proc : Processor.t) ~m ~policy jobs =
  match Exec.create ~proc ~m with
  | Error e -> Error e
  | Ok t ->
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
      process (Job.by_arrival jobs)

let simulate ~proc ~policy jobs = simulate_mp ~proc ~m:1 ~policy jobs

let job_bound ~(proc : Processor.t) (j : Job.t) =
  let s_max = Processor.s_max proc in
  let s_floor = Processor.floor_speed proc in
  let s =
    Rt_prelude.Float_cmp.clamp ~lo:1e-9 ~hi:s_max
      (Float.max s_floor (Job.laxity_speed j))
  in
  let run_cost = j.Job.cycles *. Power_model.power proc.model s /. s in
  Float.min j.Job.penalty run_cost

let lower_bound ~(proc : Processor.t) jobs =
  List.fold_left (fun acc j -> acc +. job_bound ~proc j) 0. jobs
