open Rt_task

let greedy_min_load ~m items =
  List.fold_left
    (fun p it -> Partition.add p (Partition.min_load_index p) it)
    (Partition.empty ~m) items

let ltf ~m items =
  greedy_min_load ~m (List.sort Task.compare_item_weight_desc items)

let greedy_unsorted ~m items = greedy_min_load ~m items

let first_fit ~m ~capacity items =
  if Rt_prelude.Float_cmp.exact_le capacity 0. then
    invalid_arg "Heuristics.first_fit: capacity <= 0";
  let place (p, rejected) (it : Task.item) =
    let fits j = Rt_prelude.Float_cmp.leq (Partition.load p j +. it.weight) capacity in
    match List.find_opt fits (Rt_prelude.Math_util.range 0 (m - 1)) with
    | None -> (p, it :: rejected)
    | Some j -> (Partition.add p j it, rejected)
  in
  let p, rejected = List.fold_left place (Partition.empty ~m, []) items in
  (p, List.rev rejected)

let first_fit_decreasing ~m ~capacity items =
  first_fit ~m ~capacity (List.sort Task.compare_item_weight_desc items)

let capacity_respected ~capacity p =
  Array.for_all
    (fun l -> Rt_prelude.Float_cmp.leq l capacity)
    (Partition.loads p)
