module Fc = Rt_prelude.Float_cmp
open Rt_power
open Rt_task

type speed_assignment = {
  speeds : (int * float) list;
  time_used : float;
  energy : float;
}

(* one task as the solver sees it *)
type job = { id : int; cycles : float; factor : float; floor : float }

let check_proc (proc : Processor.t) =
  if not (Fc.exact_eq proc.model.Power_model.linear 0.) then
    invalid_arg "Hetero: power model must have linear = 0";
  match proc.domain with
  | Processor.Ideal _ -> ()
  | Processor.Levels _ -> invalid_arg "Hetero: ideal processors only"

let factored (m : Power_model.t) f =
  if Fc.exact_eq f 1. then m
  else Power_model.make ~p_ind:m.p_ind ~coeff:(m.coeff *. f) ~alpha:m.alpha ()

let job_of_item (proc : Processor.t) ~cycles_of (it : Task.item) =
  let s_max = Processor.s_max proc in
  let floor =
    match proc.dormancy with
    | Processor.Dormant_disable -> Processor.s_min proc
    | Processor.Dormant_enable _ ->
        Float.max (Processor.s_min proc)
          (Power_model.critical_speed
             (factored proc.model it.item_power_factor)
             ~s_max)
  in
  { id = it.item_id; cycles = cycles_of it; factor = it.item_power_factor; floor }

(* speed of a job under the KKT multiplier K: s ∝ K / f^(1/alpha), floored
   and capped to the domain *)
let speed_at (proc : Processor.t) k job =
  let alpha = proc.model.Power_model.alpha in
  let s = k /. (job.factor ** (1. /. alpha)) in
  Float.min (Processor.s_max proc) (Float.max job.floor s)

let time_at proc k jobs =
  List.fold_left (fun acc j -> acc +. (j.cycles /. speed_at proc k j)) 0. jobs

(* energy charged while executing (dormant-enable pays leakage only while
   awake; dormant-disable's constant awake cost is accounted separately) *)
let exec_energy (proc : Processor.t) job s =
  let dyn = Power_model.dynamic_power (factored proc.model job.factor) s in
  let leak = Processor.idle_power proc -. Processor.rest_power proc in
  job.cycles /. s *. (leak +. dyn)

let solve_jobs (proc : Processor.t) ~time_budget jobs =
  match jobs with
  | [] -> Some { speeds = []; time_used = 0.; energy = 0. }
  | _ ->
      let s_max = Processor.s_max proc in
      let alpha = proc.model.Power_model.alpha in
      let t_min =
        List.fold_left (fun acc j -> acc +. (j.cycles /. s_max)) 0. jobs
      in
      if Rt_prelude.Float_cmp.gt t_min time_budget then None
      else begin
        let k_hi =
          s_max
          *. List.fold_left
               (fun acc j -> Float.max acc (j.factor ** (1. /. alpha)))
               1. jobs
        in
        let k_lo = 1e-12 *. k_hi in
        let k =
          Rt_prelude.Math_util.bisect_decreasing
            ~f:(fun k -> time_at proc k jobs)
            ~target:time_budget ~lo:k_lo ~hi:k_hi ()
        in
        let speeds = List.map (fun j -> (j.id, speed_at proc k j)) jobs in
        let time_used = time_at proc k jobs in
        let energy =
          List.fold_left2
            (fun acc j (_, s) -> acc +. exec_energy proc j s)
            0. jobs speeds
        in
        Some { speeds; time_used; energy }
      end

let processor_speeds (proc : Processor.t) ~horizon items =
  check_proc proc;
  if Fc.exact_le horizon 0. then
    invalid_arg "Hetero.processor_speeds: horizon <= 0";
  let jobs =
    List.map
      (job_of_item proc ~cycles_of:(fun (it : Task.item) -> it.weight *. horizon))
      items
  in
  solve_jobs proc ~time_budget:horizon jobs

let awake_overhead (proc : Processor.t) ~horizon =
  Processor.rest_power proc *. horizon

let estimated_times (proc : Processor.t) ~m ~horizon items =
  check_proc proc;
  if m < 1 then invalid_arg "Hetero.estimated_times: m < 1";
  if Fc.exact_le horizon 0. then
    invalid_arg "Hetero.estimated_times: horizon <= 0";
  let jobs =
    List.map
      (job_of_item proc ~cycles_of:(fun (it : Task.item) -> it.weight *. horizon))
      items
  in
  (* pooled budget m·H, but no task may run longer than H: repeatedly fix
     over-long tasks at exactly H and re-solve the remainder *)
  let rec refine fixed budget active =
    match solve_jobs proc ~time_budget:budget active with
    | None ->
        (* cannot fit even at top speed: every remaining task is estimated
           at the cap (they are the over-long ones by construction) *)
        List.map (fun j -> (j.id, horizon)) active @ fixed
    | Some { speeds; _ } ->
        let over, ok =
          List.partition
            (fun j ->
              let s = List.assoc j.id speeds in
              Rt_prelude.Float_cmp.gt (j.cycles /. s) horizon)
            active
        in
        if over = [] then
          List.map
            (fun j -> (j.id, j.cycles /. List.assoc j.id speeds))
            active
          @ fixed
        else begin
          let fixed = List.map (fun j -> (j.id, horizon)) over @ fixed in
          let budget = budget -. (float_of_int (List.length over) *. horizon) in
          if Fc.exact_le budget 0. || ok = [] then
            List.map (fun j -> (j.id, horizon)) ok @ fixed
          else refine fixed budget ok
        end
  in
  refine [] (float_of_int m *. horizon) jobs

let leuf (proc : Processor.t) ~m ~horizon items =
  let times = estimated_times proc ~m ~horizon items in
  let time_of (it : Task.item) =
    match List.assoc_opt it.item_id times with Some t -> t | None -> 0.
  in
  let sorted =
    List.sort
      (fun a b ->
        let c = Float.compare (time_of b) (time_of a) in
        if c <> 0 then c else compare a.Task.item_id b.Task.item_id)
      items
  in
  let est_load = Array.make m 0. in
  List.fold_left
    (fun p it ->
      let best = ref 0 in
      Array.iteri
        (fun j l -> if Fc.exact_lt l est_load.(!best) then best := j)
        est_load;
      est_load.(!best) <- est_load.(!best) +. time_of it;
      Partition.add p !best it)
    (Partition.empty ~m) sorted

let total_energy (proc : Processor.t) ~horizon p =
  let rec go j acc =
    if j = Partition.m p then Some acc
    else
      match processor_speeds proc ~horizon (Partition.bucket p j) with
      | None -> None
      | Some { energy; _ } ->
          go (j + 1) (acc +. energy +. awake_overhead proc ~horizon)
  in
  go 0 0.
