open Rt_core


let proc =
  Rt_power.Processor.xscale
    ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })

let fault_rates = [ 0.; 0.05; 0.15 ]

type row = {
  fault_rate : float;
  policy : string;
  cost_ratio : float;
  miss_pct : float;
  shed_pct : float;
}

let rates_of r =
  {
    Rt_fault.Fault.overrun_prob = r;
    overrun_factor = 1.5;
    crash_prob = r;
    derate_prob = r;
    derate_factor = 0.8;
  }

(* One replication: a frame instance at comfortable load, a scenario drawn
   at the given fault rate, one policy's recovery. The degraded cost
   charges the measured energy, all penalties actually paid, and the
   penalty of every task that missed (a miss is at least as bad as a
   rejection) — normalized by the fault-free baseline total. *)
let eval_one ~seed ~rate policy =
  let p = Instances.frame_instance ~proc ~seed ~n:12 ~m:4 ~load:0.8 () in
  let n = List.length p.Problem.items in
  let baseline = Greedy.ltf_reject p in
  match Solution.cost p baseline with
  | Error _ -> None
  | Ok bc ->
      let rng = Rt_prelude.Rng.create ~seed:((seed * 7919) + 17) in
      let sc =
        Rt_fault.Fault.gen rng (rates_of rate)
          ~task_ids:
            (List.map
               (fun (it : Rt_task.Task.item) -> it.item_id)
               p.Problem.items)
          ~m:p.Problem.m ~horizon:p.Problem.horizon
      in
      (match Rt_fault.Degrade.recover_frame p sc ~baseline policy with
      | Error _ -> None
      | Ok r ->
          let miss_penalty =
            List.fold_left
              (fun acc id ->
                match Problem.item p id with
                | Some it -> acc +. it.item_penalty
                | None -> acc)
              0. r.Rt_fault.Degrade.misses
          in
          let degraded_cost =
            r.Rt_fault.Degrade.energy_faulty +. bc.Solution.penalty
            +. r.Rt_fault.Degrade.extra_penalty +. miss_penalty
          in
          let pct l = 100. *. float_of_int (List.length l) /. float_of_int n in
          Some
            ( degraded_cost /. bc.Solution.total,
              pct r.Rt_fault.Degrade.misses,
              pct r.Rt_fault.Degrade.shed ))

let mean = function
  | [] -> Float.nan
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let sweep ?pool ?(seeds = 12) () =
  let seed_list = Runner.seeds ~base:1900 ~n:seeds in
  let cells =
    List.concat_map
      (fun rate ->
        List.map (fun pol -> (rate, pol)) Rt_fault.Degrade.all_policies)
      fault_rates
  in
  (* one parallel job per (rate × policy × seed) replication; the flat
     result list is regrouped by cell in submission order, so the rows are
     byte-identical to the sequential sweep at any domain count *)
  let evals =
    Rt_parallel.Pool.map ?pool
      (fun (rate, pol, seed) -> eval_one ~seed ~rate pol)
      (List.concat_map
         (fun (rate, pol) ->
           List.map (fun seed -> (rate, pol, seed)) seed_list)
         cells)
  in
  let rec chunks k = function
    | [] -> []
    | l -> List.filteri (fun i _ -> i < k) l :: chunks k (List.filteri (fun i _ -> i >= k) l)
  in
  List.map2
    (fun (rate, pol) cell_evals ->
      let evals = List.filter_map Fun.id cell_evals in
      {
        fault_rate = rate;
        policy = Rt_fault.Degrade.policy_name pol;
        cost_ratio = mean (List.map (fun (c, _, _) -> c) evals);
        miss_pct = mean (List.map (fun (_, m, _) -> m) evals);
        shed_pct = mean (List.map (fun (_, _, s) -> s) evals);
      })
    cells
    (chunks (List.length seed_list) evals)

let e19_fault_sweep ?(seeds = 12) () =
  let rows = sweep ~seeds () in
  let policies = List.map Rt_fault.Degrade.policy_name Rt_fault.Degrade.all_policies in
  let headers =
    "fault-rate"
    :: List.concat_map (fun nm -> [ nm ^ " cost"; nm ^ " miss%" ]) policies
  in
  let t =
    Rt_prelude.Tablefmt.create
      ~aligns:
        (Rt_prelude.Tablefmt.Left
        :: List.map (fun _ -> Rt_prelude.Tablefmt.Right) (List.tl headers))
      headers
  in
  List.fold_left
    (fun t rate ->
      let cells =
        List.concat_map
          (fun nm ->
            match
              List.find_opt
                (fun r ->
                  r.policy = nm
                  && Rt_prelude.Float_cmp.exact_eq r.fault_rate rate)
                rows
            with
            | Some r -> [ r.cost_ratio; r.miss_pct ]
            | None -> [ Float.nan; Float.nan ])
          policies
      in
      Rt_prelude.Tablefmt.add_float_row t (Printf.sprintf "%.2f" rate) cells)
    t fault_rates
