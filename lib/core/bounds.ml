module Fc = Rt_prelude.Float_cmp

open Rt_task

let balanced_energy (p : Problem.t) ~accepted_weight =
  if Fc.exact_lt accepted_weight 0. then
    invalid_arg "Bounds.balanced_energy: negative weight";
  let per_proc = accepted_weight /. float_of_int p.m in
  if Rt_prelude.Float_cmp.gt per_proc (Problem.capacity p) then
    invalid_arg "Bounds.balanced_energy: weight above pooled capacity";
  float_of_int p.m *. Problem.bucket_energy p per_proc

(* Highest-density prefix acceptance: accepting weight W fractionally keeps
   as much penalty as possible, so the rejected penalty is
   total - P(W) with P the concave prefix envelope. *)
let by_density (p : Problem.t) =
  List.sort
    (fun (a : Task.item) (b : Task.item) ->
      Float.compare
        (b.item_penalty /. b.weight)
        (a.item_penalty /. a.weight))
    p.items

(* [min_rejected_penalty] on items already in [by_density] order, with
   their total penalty given: a caller probing many weights sorts once *)
let rejected_penalty ~total_penalty sorted ~accepted_weight =
  let rec kept w acc = function
    | [] -> acc
    | (it : Task.item) :: rest ->
        if Fc.exact_le w 0. then acc
        else if Fc.exact_le it.weight w then
          kept (w -. it.weight) (acc +. it.item_penalty) rest
        else acc +. (w /. it.weight *. it.item_penalty)
  in
  Float.max 0. (total_penalty -. kept accepted_weight 0. sorted)

let min_rejected_penalty (p : Problem.t) ~accepted_weight =
  rejected_penalty
    ~total_penalty:(Taskset.total_penalty_items p.items)
    (by_density p) ~accepted_weight

let lower_bound (p : Problem.t) =
  let total = Taskset.total_weight p.items in
  let w_max =
    Float.min total (float_of_int p.m *. Problem.capacity p)
  in
  if Fc.exact_le w_max 0. then
    Taskset.total_penalty_items p.items +. balanced_energy p ~accepted_weight:0.
  else begin
    let sorted = by_density p in
    let total_penalty = Taskset.total_penalty_items p.items in
    let objective w =
      balanced_energy p ~accepted_weight:w
      +. rejected_penalty ~total_penalty sorted ~accepted_weight:w
    in
    let _, v =
      Rt_prelude.Math_util.golden_section_min ~f:objective ~lo:0. ~hi:w_max ()
    in
    (* golden-section assumes convexity; guard against corner optima *)
    Float.min v (Float.min (objective 0.) (objective w_max))
  end
