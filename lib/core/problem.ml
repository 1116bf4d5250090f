module Fc = Rt_prelude.Float_cmp

open Rt_task

type soa = {
  n : int;
  ids : int array;
  weights : float array;
  penalties : float array;
  item_arr : Task.item array;
  index_of : (int, int) Hashtbl.t;
  order_weight_desc : int array;
  energy : float -> float;
}

type t = {
  proc : Rt_power.Processor.t;
  m : int;
  horizon : float;
  items : Task.item list;
  soa : soa;
}

(* Built once per instance at [make] time (immutable afterwards, so the
   view is safe to share across domains): positional float arrays replace
   the item-list walks on the hot paths, [index_of] gives O(1) id lookup,
   and [energy] is the prepared {!Rt_speed.Energy_rate.prepare_energy}
   evaluator — hull and critical speed hoisted out of the per-load call,
   one flat closure with its guard and clamps inlined, no plan/option
   boxed (the schedulers only compare the scalar; [prepare_energy] is
   bit-identical to [optimal]'s rate × horizon, and raises past
   capacity, which the schedulers pre-check). *)
let build_soa ~proc ~horizon items =
  let item_arr = Array.of_list items in
  let n = Array.length item_arr in
  let ids = Array.map (fun (i : Task.item) -> i.item_id) item_arr in
  let weights = Array.map (fun (i : Task.item) -> i.weight) item_arr in
  let penalties = Array.map (fun (i : Task.item) -> i.item_penalty) item_arr in
  let index_of = Hashtbl.create (max 16 (2 * n)) in
  Array.iteri (fun idx id -> Hashtbl.replace index_of id idx) ids;
  let energy = Rt_speed.Energy_rate.prepare_energy proc ~horizon in
  (* the canonical LTF visit order (weight descending, id ascending on
     ties — [Task.compare_item_weight_desc] positionally, with
     [Float.compare] unfolded for the finite weights of a well-formed
     instance): a pure function of the instance, so sorted once here
     rather than on every greedy run. Read-only by contract — callers
     iterate it, never permute it. *)
  let order_weight_desc = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let wa = weights.(a) in
      let wb = weights.(b) in
      if Fc.exact_lt wb wa then -1
      else if Fc.exact_lt wa wb then 1
      else Int.compare ids.(a) ids.(b))
    order_weight_desc;
  { n; ids; weights; penalties; item_arr; index_of; order_weight_desc; energy }

let make ~proc ~m ~horizon items =
  if m < 1 then Error "Problem.make: m < 1"
  else if Fc.exact_le horizon 0. || not (Float.is_finite horizon) then
    Error "Problem.make: horizon must be finite and > 0"
  else if
    not (Task.distinct_ids (List.map (fun (i : Task.item) -> i.item_id) items))
  then Error "Problem.make: duplicate item ids"
  else if
    List.exists
      (fun (i : Task.item) -> not (Fc.exact_eq i.item_power_factor 1.))
      items
  then Error "Problem.make: non-unit power factors (see Rt_partition.Hetero)"
  else Ok { proc; m; horizon; items; soa = build_soa ~proc ~horizon items }

let of_frame ~proc ~m ~frame_length tasks =
  match Taskset.well_formed_frame tasks with
  | Error e -> Error ("Problem.of_frame: " ^ e)
  | Ok () ->
      if Fc.exact_le frame_length 0. then
        Error "Problem.of_frame: frame_length <= 0"
      else
        make ~proc ~m ~horizon:frame_length
          (Taskset.items_of_frames ~frame_length tasks)

let of_periodic ~proc ~m tasks =
  match Taskset.well_formed_periodic tasks with
  | Error e -> Error ("Problem.of_periodic: " ^ e)
  | Ok () -> (
      match tasks with
      | [] -> Error "Problem.of_periodic: empty task set"
      | _ -> (
          match Taskset.hyper_period_checked tasks with
          | Error e -> Error ("Problem.of_periodic: " ^ e)
          | Ok hp ->
              make ~proc ~m ~horizon:(float_of_int hp)
                (Taskset.items_of_periodics tasks)))

let capacity t = Rt_power.Processor.s_max t.proc

let load_factor t =
  Taskset.load_factor ~m:t.m ~s_max:(capacity t) t.items

let total_penalty t = Taskset.total_penalty_items t.items

let soa t = t.soa

let item t id =
  match Hashtbl.find_opt t.soa.index_of id with
  | Some idx -> Some t.soa.item_arr.(idx)
  | None -> None

let bucket_energy t load = t.soa.energy load

let pp ppf t =
  Format.fprintf ppf "@[<v>m=%d, horizon=%g, proc=%a@,load factor %.3f@,%a@]"
    t.m t.horizon Rt_power.Processor.pp t.proc (load_factor t)
    Taskset.pp_items t.items
