module Fc = Rt_prelude.Float_cmp

open Rt_task

type level = { weight : float; level_penalty : float }

type qtask = { id : int; levels : level list }

let level ~weight ~penalty =
  if Fc.exact_lt weight 0. || not (Float.is_finite weight) then
    invalid_arg "Qos.level: weight must be finite and >= 0";
  if Fc.exact_lt penalty 0. || not (Float.is_finite penalty) then
    invalid_arg "Qos.level: penalty must be finite and >= 0";
  { weight; level_penalty = penalty }

let qtask ~id ~levels =
  if levels = [] then invalid_arg "Qos.qtask: empty level menu";
  let sorted =
    List.sort (fun a b -> Float.compare b.weight a.weight) levels
  in
  let rec distinct = function
    | a :: (b :: _ as rest) ->
        (not (Fc.exact_eq a.weight b.weight)) && distinct rest
    | _ -> true
  in
  if not (distinct sorted) then invalid_arg "Qos.qtask: duplicate weights";
  { id; levels = sorted }

let of_item (it : Task.item) =
  qtask ~id:it.item_id
    ~levels:
      [
        level ~weight:it.weight ~penalty:0.;
        level ~weight:0. ~penalty:it.item_penalty;
      ]

let graceful ?(steps = 4) ?(curve = 1.) (it : Task.item) =
  if steps < 2 then invalid_arg "Qos.graceful: steps < 2";
  if Fc.exact_le curve 0. || not (Float.is_finite curve) then
    invalid_arg "Qos.graceful: curve must be finite and > 0";
  let levels =
    List.map
      (fun k ->
        let f = float_of_int k /. float_of_int (steps - 1) in
        level ~weight:(f *. it.weight)
          ~penalty:(((1. -. f) ** curve) *. it.item_penalty))
      (Rt_prelude.Math_util.range 0 (steps - 1))
  in
  qtask ~id:it.item_id ~levels

type choice = { task_id : int; level_index : int }

type solution = {
  choices : choice list;
  partition : Rt_partition.Partition.t;
}

let chosen_level tasks c =
  match List.find_opt (fun t -> t.id = c.task_id) tasks with
  | None -> Error "Qos: choice for a foreign task"
  | Some t -> (
      (* [List.nth_opt] raises on a negative index instead of answering None *)
      match
        if c.level_index < 0 then None else List.nth_opt t.levels c.level_index
      with
      | None -> Error "Qos: level index out of range"
      | Some l -> Ok l)

let penalties_of tasks choices =
  List.fold_left
    (fun acc c ->
      match acc with
      | Error _ as e -> e
      | Ok sum -> Result.map (fun l -> sum +. l.level_penalty) (chosen_level tasks c))
    (Ok 0.) choices

let cost (p : Problem.t) tasks solution =
  let ( let* ) = Result.bind in
  let* () =
    if
      List.sort compare (List.map (fun c -> c.task_id) solution.choices)
      = List.sort compare (List.map (fun t -> t.id) tasks)
    then Ok ()
    else Error "Qos.cost: choices are not one-per-task"
  in
  let* penalty = penalties_of tasks solution.choices in
  (* the partition must carry exactly the positive-weight choices *)
  let* expected =
    List.fold_left
      (fun acc c ->
        let* xs = acc in
        let* l = chosen_level tasks c in
        Ok (if Fc.exact_gt l.weight 0. then (c.task_id, l.weight) :: xs else xs))
      (Ok []) solution.choices
  in
  let placed =
    List.map
      (fun (it : Task.item) -> (it.item_id, it.weight))
      (Rt_partition.Partition.all_items solution.partition)
  in
  let norm =
    List.sort (fun (ida, wa) (idb, wb) ->
        match Int.compare ida idb with
        | 0 -> Float.compare wa wb
        | c -> c)
  in
  let* () =
    if
      List.length placed = List.length expected
      && List.for_all2
           (fun (ida, wa) (idb, wb) ->
             ida = idb && Rt_prelude.Float_cmp.approx_eq ~eps:1e-9 wa wb)
           (norm placed) (norm expected)
    then Ok ()
    else Error "Qos.cost: partition disagrees with the chosen levels"
  in
  let loads = Rt_partition.Partition.loads solution.partition in
  let* () =
    if
      Array.for_all
        (fun l -> Rt_prelude.Float_cmp.leq l (Problem.capacity p))
        loads
    then Ok ()
    else Error "Qos.cost: a processor exceeds capacity"
  in
  let energy =
    Array.fold_left (fun acc l -> acc +. Problem.bucket_energy p l) 0. loads
  in
  Ok (energy +. penalty)

let validate (p : Problem.t) tasks solution =
  let ( let* ) = Result.bind in
  let* _ = cost p tasks solution in
  let* sim =
    Rt_sim.Frame_sim.build ~proc:p.Problem.proc
      ~frame_length:p.Problem.horizon solution.partition
  in
  Rt_sim.Frame_sim.validate sim

(* items realizing a level-choice vector (positive weights only) *)
let items_of_choices tasks idx =
  List.filter_map
    (fun t ->
      let l = List.nth t.levels idx.(t.id) in
      if Fc.exact_gt l.weight 0. then Some (Task.item ~id:t.id ~weight:l.weight ())
      else None)
    tasks

(* dense index by task id; ids are arbitrary so map through an assoc *)
let with_dense_ids tasks f =
  let ids = List.map (fun t -> t.id) tasks in
  if not (Task.distinct_ids ids) then invalid_arg "Qos: duplicate task ids";
  let renumbered =
    List.mapi (fun i t -> { t with id = i }) tasks
  in
  let back = Array.of_list ids in
  f renumbered (fun i -> back.(i))
[@@rt.cold "once per call, before the search"]

(* the solution of a level vector over dense tasks, dense ids mapped back
   to the originals through [back] *)
let solution_of tasks back idx part =
  {
    choices =
      List.map (fun t -> { task_id = back t.id; level_index = idx.(t.id) }) tasks;
    partition =
      Rt_partition.Partition.of_buckets
        (Array.init (Rt_partition.Partition.m part) (fun j ->
             List.map
               (fun (it : Task.item) ->
                 Task.item ~id:(back it.item_id) ~weight:it.weight ())
               (Rt_partition.Partition.bucket part j)));
  }

(* Flat state of one [greedy_degrade] call over dense tasks t = 0 .. n-1.
   The menus sit end to end in [lw]/[lp]: task t's levels occupy slots
   [first.(t) .. last.(t)] and its chosen level is slot [cur.(t)].
   [order.(0 .. k-1)] holds the positive-weight tasks in LTF order
   (weight descending, dense id ascending on ties — the order
   [Task.compare_item_weight_desc] gives [Heuristics.ltf]) and [pos.(t)]
   is t's index there, -1 once its weight is 0. Row r of [prefix]
   (cells [r*m .. r*m+m-1]) holds the loads after LTF has placed
   [order.(0 .. r-1)], so pricing a step of t resumes the pack from row
   [pos.(t)] instead of repacking everything. *)
type kernel = {
  n : int;
  m : int;
  first : int array;
  last : int array;
  cur : int array;
  lw : float array;
  lp : float array;
  order : int array;
  pos : int array;
  mutable k : int;
  prefix : float array;
  loads : float array;  (* the candidate being priced *)
  cell : float array;
      (* unboxed accumulators: 0 energy sum, 1 penalty sum, 2 best cost,
         3 heaviest drop *)
  energy : float -> float;
  cap : float;
}

(* does task t at slot [s] come before task u in LTF order? *)
let precedes kn s t u =
  let c = Float.compare kn.lw.(kn.cur.(u)) kn.lw.(s) in
  c < 0 || (c = 0 && t < u)

(* LTF's placement step on [a.(base .. base+m-1)]: the first strict
   minimum load takes the weight in slot [s] ([Partition.min_load_index]
   then [Partition.add]; [Float.compare] on these finite loads is
   [Float_cmp.exact_lt] without the boxed call) *)
let place kn a base s =
  let best = ref base in
  for j = base + 1 to base + kn.m - 1 do
    if Float.compare a.(j) a.(!best) < 0 then best := j
  done;
  a.(!best) <- a.(!best) +. kn.lw.(s)

(* rows [from+1 .. k] of the prefix table, rebuilt from row [from] *)
let refill kn from =
  let m = kn.m in
  for r = from to kn.k - 1 do
    Array.blit kn.prefix (r * m) kn.prefix ((r + 1) * m) m;
    place kn kn.prefix ((r + 1) * m) kn.cur.(kn.order.(r))
  done

(* The packed cost of the loads [a.(base .. base+m-1)], with task [t] at
   slot [s] and every other task at its chosen level (t = -1: none
   moved): infinity when the makespan fails the capacity test, else the
   left fold of bucket energies over processors 0 .. m-1 plus the left
   fold of penalties in task order — the float operations of a
   [Heuristics.ltf] repack priced in full, in the same order. *)
let cost_of kn a base t s =
  let hi = ref base in
  for j = base + 1 to base + kn.m - 1 do
    if Float.compare a.(j) a.(!hi) > 0 then hi := j
  done;
  if Fc.gt a.(!hi) kn.cap then Float.infinity
  else begin
    let cell = kn.cell in
    cell.(0) <- 0.;
    for j = base to base + kn.m - 1 do
      cell.(0) <- cell.(0) +. kn.energy a.(j)
    done;
    cell.(1) <- 0.;
    for u = 0 to kn.n - 1 do
      cell.(1) <- cell.(1) +. kn.lp.(if u = t then s else kn.cur.(u))
    done;
    cell.(0) +. cell.(1)
  end

(* cost of moving task t one level down: resume the pack from row
   [pos.(t)] and place the rest of the order with t at its lower weight
   in its new slot, or without t when that weight is 0 *)
let price kn t =
  let s = kn.cur.(t) + 1 in
  let a = kn.loads in
  Array.blit kn.prefix (kn.pos.(t) * kn.m) a 0 kn.m;
  let pending = ref (Float.compare kn.lw.(s) 0. > 0) in
  for q = kn.pos.(t) + 1 to kn.k - 1 do
    let u = kn.order.(q) in
    if !pending && precedes kn s t u then begin
      place kn a 0 s;
      pending := false
    end;
    place kn a 0 kn.cur.(u)
  done;
  if !pending then place kn a 0 s;
  cost_of kn a 0 t s

(* apply the step: t slides right past every task it no longer precedes
   (all of them at weight 0, where it leaves the order), then the prefix
   rows are refreshed from its old position on *)
let step kn t =
  let p = kn.pos.(t) in
  let o = kn.order in
  kn.cur.(t) <- kn.cur.(t) + 1;
  let s = kn.cur.(t) in
  let q = ref p in
  while !q + 1 < kn.k && not (precedes kn s t o.(!q + 1)) do
    o.(!q) <- o.(!q + 1);
    kn.pos.(o.(!q)) <- !q;
    incr q
  done;
  if Float.compare kn.lw.(s) 0. > 0 then begin
    o.(!q) <- t;
    kn.pos.(t) <- !q
  end
  else begin
    kn.k <- kn.k - 1;
    kn.pos.(t) <- -1
  end;
  refill kn p

(* the degradable task whose next step sheds the most weight (the first
   maximum); called only once some step was priced, so one exists *)
let heaviest kn =
  let h = ref (-1) in
  for t = 0 to kn.n - 1 do
    let s = kn.cur.(t) in
    if s < kn.last.(t) then begin
      let drop = kn.lw.(s) -. kn.lw.(s + 1) in
      if !h < 0 || Float.compare kn.cell.(3) drop < 0 then begin
        h := t;
        kn.cell.(3) <- drop
      end
    end
  done;
  !h

let kernel_of (p : Problem.t) tasks =
  let arr = Array.of_list tasks in
  let n = Array.length arr in
  let m = p.Problem.m in
  let sizes = Array.map (fun t -> List.length t.levels) arr in
  let first = Array.make n 0 in
  for t = 1 to n - 1 do
    first.(t) <- first.(t - 1) + sizes.(t - 1)
  done;
  let slots = List.concat_map (fun t -> t.levels) tasks in
  let lw = Array.of_list (List.map (fun l -> l.weight) slots) in
  let lp = Array.of_list (List.map (fun l -> l.level_penalty) slots) in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = Float.compare lw.(first.(b)) lw.(first.(a)) in
      if c <> 0 then c else Int.compare a b)
    order;
  let k =
    Array.fold_left
      (fun k t -> if Fc.exact_gt lw.(first.(t)) 0. then k + 1 else k)
      0 order
  in
  let pos = Array.make n (-1) in
  Array.iteri (fun r t -> if r < k then pos.(t) <- r) order;
  let kn =
    {
      n;
      m;
      first;
      last = Array.init n (fun t -> first.(t) + sizes.(t) - 1);
      cur = Array.copy first;
      lw;
      lp;
      order;
      pos;
      k;
      prefix = Array.make ((n + 1) * m) 0.;
      loads = Array.make m 0.;
      cell = Array.make 4 0.;
      energy = (Problem.soa p).Problem.energy;
      cap = Problem.capacity p;
    }
  in
  refill kn 0;
  kn
[@@rt.cold "once per call, before the search"]

(* the final partition, packed once by [Heuristics.ltf] itself so the
   bucket lists come out exactly as a repack builds them *)
let degraded_solution kn tasks back =
  let idx = Array.init kn.n (fun t -> kn.cur.(t) - kn.first.(t)) in
  solution_of tasks back idx
    (Rt_partition.Heuristics.ltf ~m:kn.m (items_of_choices tasks idx))
[@@rt.cold "once per call, after the search"]

let greedy_degrade (p : Problem.t) tasks =
  with_dense_ids tasks (fun tasks back ->
      let kn = kernel_of p tasks in
      let rec loop () =
        let current = cost_of kn kn.prefix (kn.k * kn.m) (-1) 0 in
        (* best single-step degradation: the first minimum *)
        let best = ref (-1) in
        for t = 0 to kn.n - 1 do
          if kn.cur.(t) < kn.last.(t) then begin
            let c = price kn t in
            if !best < 0 || Float.compare kn.cell.(2) c > 0 then begin
              best := t;
              kn.cell.(2) <- c
            end
          end
        done;
        let c = kn.cell.(2) in
        if
          !best >= 0
          && (Fc.exact_lt c (current -. (1e-12 *. Float.max 1. current))
             || Fc.exact_eq current Float.infinity)
        then
          if Fc.exact_eq c Float.infinity && Fc.exact_eq current Float.infinity
          then begin
            (* march toward feasibility by shedding the most weight *)
            step kn (heaviest kn);
            loop ()
          end
          else begin
            step kn !best;
            loop ()
          end
      in
      loop ();
      degraded_solution kn tasks back)

let exhaustive (p : Problem.t) tasks =
  with_dense_ids tasks (fun tasks back ->
      let n = List.length tasks in
      let arr = Array.of_list tasks in
      let combos =
        Array.fold_left
          (fun acc t -> acc * List.length t.levels)
          1 arr
      in
      if combos > 200_000 then
        invalid_arg "Qos.exhaustive: menu product too large";
      let idx = Array.make n 0 in
      let best = ref None in
      let consider () =
        let items = items_of_choices tasks idx in
        let priced =
          List.map
            (fun (it : Task.item) ->
              Task.item ~penalty:1e12 ~id:it.item_id ~weight:it.weight ())
            items
        in
        let s =
          match
            Rt_exact.Search.solve ~node_budget:Rt_exact.Search.node_limit
              ~m:p.Problem.m
              ~capacity:(Problem.capacity p)
              ~bucket_cost:(Problem.bucket_energy p) priced
          with
          | Error e -> invalid_arg ("Qos.exhaustive: " ^ e)
          | Ok { Rt_exact.Search.exhausted = true; _ } ->
              invalid_arg "Qos.exhaustive: node limit exceeded"
          | Ok a -> a.Rt_exact.Search.best
        in
        if s.Rt_exact.Search.rejected = [] then begin
          let penalty =
            List.fold_left
              (fun acc t -> acc +. (List.nth t.levels idx.(t.id)).level_penalty)
              0. tasks
          in
          let total = s.Rt_exact.Search.cost +. penalty in
          match !best with
          | Some (_, _, bc) when Rt_prelude.Float_cmp.exact_le bc total -> ()
          | _ -> best := Some (Array.copy idx, s.Rt_exact.Search.partition, total)
        end
      in
      let rec enumerate i =
        if i = n then consider ()
        else
          List.iteri
            (fun li _ ->
              idx.(i) <- li;
              enumerate (i + 1))
            arr.(i).levels
      in
      enumerate 0;
      match !best with
      | None ->
          (* no feasible combination even fully degraded: fall back *)
          greedy_degrade p (List.map (fun t -> { t with id = back t.id }) tasks)
      | Some (bidx, part, _) -> solution_of tasks back bidx part)
