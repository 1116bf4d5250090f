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
      match List.nth_opt t.levels c.level_index with
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

let pack_cost (p : Problem.t) tasks idx =
  let items = items_of_choices tasks idx in
  let part = Rt_partition.Heuristics.ltf ~m:p.Problem.m items in
  if Rt_prelude.Float_cmp.gt (Rt_partition.Partition.makespan part) (Problem.capacity p)
  then (part, Float.infinity)
  else begin
    let energy =
      Array.fold_left
        (fun acc l -> acc +. Problem.bucket_energy p l)
        0.
        (Rt_partition.Partition.loads part)
    in
    let penalty =
      List.fold_left
        (fun acc t -> acc +. (List.nth t.levels idx.(t.id)).level_penalty)
        0. tasks
    in
    (part, energy +. penalty)
  end

(* dense index by task id; ids are arbitrary so map through an assoc *)
let with_dense_ids tasks f =
  let ids = List.map (fun t -> t.id) tasks in
  if not (Task.distinct_ids ids) then invalid_arg "Qos: duplicate task ids";
  let renumbered =
    List.mapi (fun i t -> { t with id = i }) tasks
  in
  let back = Array.of_list ids in
  f renumbered (fun i -> back.(i))

let greedy_degrade (p : Problem.t) tasks =
  with_dense_ids tasks (fun tasks back ->
      let n = List.length tasks in
      let idx = Array.make n 0 in
      let degradable t = idx.(t.id) < List.length t.levels - 1 in
      let rec loop () =
        let _, current = pack_cost p tasks idx in
        (* best single-step degradation *)
        let best = ref None in
        List.iter
          (fun t ->
            if degradable t then begin
              idx.(t.id) <- idx.(t.id) + 1;
              let _, c = pack_cost p tasks idx in
              idx.(t.id) <- idx.(t.id) - 1;
              match !best with
              | Some (_, cb) when Rt_prelude.Float_cmp.exact_le cb c -> ()
              | _ -> best := Some (t.id, c)
            end)
          tasks;
        match !best with
        | Some (tid, c)
          when Fc.exact_lt c (current -. (1e-12 *. Float.max 1. current))
               || Fc.exact_eq current Float.infinity ->
            if
              Fc.exact_eq c Float.infinity
              && Fc.exact_eq current Float.infinity
            then begin
              (* march toward feasibility by shedding the most weight *)
              let heaviest = ref None in
              List.iter
                (fun t ->
                  if degradable t then begin
                    let l0 = List.nth t.levels idx.(t.id) in
                    let l1 = List.nth t.levels (idx.(t.id) + 1) in
                    let drop = l0.weight -. l1.weight in
                    match !heaviest with
                    | Some (_, d) when Rt_prelude.Float_cmp.exact_ge d drop -> ()
                    | _ -> heaviest := Some (t.id, drop)
                  end)
                tasks;
              match !heaviest with
              | Some (tid, _) ->
                  idx.(tid) <- idx.(tid) + 1;
                  loop ()
              | None -> () (* fully degraded and still infeasible *)
            end
            else begin
              idx.(tid) <- idx.(tid) + 1;
              loop ()
            end
        | _ -> ()
      in
      loop ();
      let part, _ = pack_cost p tasks idx in
      {
        choices =
          List.map
            (fun t -> { task_id = back t.id; level_index = idx.(t.id) })
            tasks;
        partition =
          (* remap the dense ids in the partition back to the originals *)
          Rt_partition.Partition.of_buckets
            (Array.init (Rt_partition.Partition.m part) (fun j ->
                 List.map
                   (fun (it : Task.item) ->
                     Task.item ~id:(back it.item_id) ~weight:it.weight ())
                   (Rt_partition.Partition.bucket part j)));
      })

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
      | Some (bidx, part, _) ->
          {
            choices =
              List.map
                (fun t -> { task_id = back t.id; level_index = bidx.(t.id) })
                tasks;
            partition =
              Rt_partition.Partition.of_buckets
                (Array.init (Rt_partition.Partition.m part) (fun j ->
                     List.map
                       (fun (it : Task.item) ->
                         Task.item ~id:(back it.item_id) ~weight:it.weight ())
                       (Rt_partition.Partition.bucket part j)));
          })
