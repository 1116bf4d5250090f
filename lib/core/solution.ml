open Rt_task

type t = {
  partition : Rt_partition.Partition.t;
  rejected : Task.item list;
}

type cost = { energy : float; penalty : float; total : float }

let cost (p : Problem.t) s =
  if Rt_partition.Partition.m s.partition <> p.m then
    Error "Solution.cost: partition width differs from the problem's m"
  else begin
    let loads = Rt_partition.Partition.loads s.partition in
    let overloaded =
      Array.exists
        (fun l -> Rt_prelude.Float_cmp.gt l (Problem.capacity p))
        loads
    in
    if overloaded then Error "Solution.cost: a processor exceeds capacity"
    else begin
      let energy =
        Array.fold_left (fun acc l -> acc +. Problem.bucket_energy p l) 0. loads
      in
      let penalty = Taskset.total_penalty_items s.rejected in
      Ok { energy; penalty; total = energy +. penalty }
    end
  end

let ids_of items = List.sort compare (List.map (fun (i : Task.item) -> i.item_id) items)

let accepted_ids s = ids_of (Rt_partition.Partition.all_items s.partition)
let rejected_ids s = ids_of s.rejected

let validate (p : Problem.t) s =
  let ( let* ) = Result.bind in
  let* _ = cost p s in
  let all = accepted_ids s @ rejected_ids s in
  let problem_ids = ids_of p.items in
  let* () =
    if List.sort compare all = problem_ids then Ok ()
    else Error "Solution.validate: item sets do not match the problem"
  in
  let* sim =
    Rt_sim.Frame_sim.build ~proc:p.proc ~frame_length:p.horizon s.partition
  in
  Rt_sim.Frame_sim.validate sim

let acceptance_ratio (p : Problem.t) s =
  match List.length p.items with
  | 0 -> 1.
  | n ->
      float_of_int (Rt_partition.Partition.size s.partition) /. float_of_int n

let pp_cost ppf c =
  Format.fprintf ppf "energy=%.6g penalty=%.6g total=%.6g" c.energy c.penalty
    c.total
