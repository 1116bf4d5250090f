module Fc = Rt_prelude.Float_cmp

type frame = {
  id : int;
  cycles : int;
  penalty : float;
  power_factor : float;
}

type periodic = {
  id : int;
  cycles : int;
  period : int;
  penalty : float;
  power_factor : float;
}

let check_penalty penalty =
  if Fc.exact_lt penalty 0. || not (Float.is_finite penalty) then
    invalid_arg "Task: penalty must be finite and >= 0"

let check_power_factor power_factor =
  if Fc.exact_le power_factor 0. || not (Float.is_finite power_factor) then
    invalid_arg "Task: power_factor must be finite and > 0"

let frame ?(penalty = 0.) ?(power_factor = 1.) ~id ~cycles () =
  if cycles <= 0 then invalid_arg "Task.frame: cycles must be > 0";
  check_penalty penalty;
  check_power_factor power_factor;
  { id; cycles; penalty; power_factor }

let periodic ?(penalty = 0.) ?(power_factor = 1.) ~id ~cycles ~period () =
  if cycles <= 0 then invalid_arg "Task.periodic: cycles must be > 0";
  if period <= 0 then invalid_arg "Task.periodic: period must be > 0";
  check_penalty penalty;
  check_power_factor power_factor;
  { id; cycles; period; penalty; power_factor }

let utilization (t : periodic) = float_of_int t.cycles /. float_of_int t.period

type item = {
  item_id : int;
  weight : float;
  item_penalty : float;
  item_power_factor : float;
}

let item ?(penalty = 0.) ?(power_factor = 1.) ~id ~weight () =
  if Fc.exact_le weight 0. || not (Float.is_finite weight) then
    invalid_arg "Task.item: weight must be finite and > 0";
  check_penalty penalty;
  check_power_factor power_factor;
  {
    item_id = id;
    weight;
    item_penalty = penalty;
    item_power_factor = power_factor;
  }

let item_of_frame ~frame_length (t : frame) =
  if Fc.exact_le frame_length 0. then
    invalid_arg "Task.item_of_frame: frame_length <= 0";
  item ~penalty:t.penalty ~power_factor:t.power_factor ~id:t.id
    ~weight:(float_of_int t.cycles /. frame_length)
    ()

let item_of_periodic (t : periodic) =
  item ~penalty:t.penalty ~power_factor:t.power_factor ~id:t.id
    ~weight:(utilization t) ()

let pp_item ppf (t : item) =
  Format.fprintf ppf "ι%d(w=%g, ρ=%g)" t.item_id t.weight t.item_penalty

let tie_break cmp_main id_a id_b =
  if cmp_main <> 0 then cmp_main else compare id_a id_b

let compare_frame_cycles_desc (a : frame) (b : frame) =
  tie_break (Int.compare b.cycles a.cycles) a.id b.id

let compare_item_weight_desc (a : item) (b : item) =
  tie_break (Float.compare b.weight a.weight) a.item_id b.item_id

let distinct_ids ids =
  let sorted = List.sort compare ids in
  let rec ok = function
    | a :: (b :: _ as rest) -> a <> b && ok rest
    | [ _ ] | [] -> true
  in
  ok sorted
