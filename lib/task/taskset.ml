let total_utilization ts =
  List.fold_left (fun acc t -> acc +. Task.utilization t) 0. ts

let total_weight items =
  List.fold_left (fun acc (i : Task.item) -> acc +. i.weight) 0. items

let total_penalty_items items =
  List.fold_left (fun acc (i : Task.item) -> acc +. i.item_penalty) 0. items

let hyper_period_checked = function
  | [] -> Error "Taskset.hyper_period: empty task set"
  | ts ->
      Rt_prelude.Math_util.lcm_list_checked
        (List.map (fun (t : Task.periodic) -> t.period) ts)

let hyper_period ts =
  match hyper_period_checked ts with Ok v -> v | Error e -> invalid_arg e

let check_ids ids =
  if Task.distinct_ids ids then Ok () else Error "duplicate task ids"

let well_formed_frame ts =
  check_ids (List.map (fun (t : Task.frame) -> t.id) ts)

let well_formed_periodic ts =
  check_ids (List.map (fun (t : Task.periodic) -> t.id) ts)

let periodic_by_id ts id =
  List.find_opt (fun (t : Task.periodic) -> t.id = id) ts

let items_of_frames ~frame_length ts =
  List.map (Task.item_of_frame ~frame_length) ts

let items_of_periodics ts = List.map Task.item_of_periodic ts

let load_factor ~m ~s_max items =
  if m <= 0 then invalid_arg "Taskset.load_factor: m <= 0";
  if Rt_prelude.Float_cmp.exact_le s_max 0. then
    invalid_arg "Taskset.load_factor: s_max <= 0";
  total_weight items /. (float_of_int m *. s_max)

let pp_items ppf ts =
  Format.fprintf ppf "[@[<hov>%a@]]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       Task.pp_item)
    ts
