module Fc = Rt_prelude.Float_cmp

let eps = 1e-6

type outcome = Pass | Skip of string | Fail of string

type exact_state =
  | Too_big
  | Optimum of Rt_core.Solution.t * float
  | Broken of string
      (* the exact solver produced a solution its own cost audit rejects *)

type ctx = {
  inst : Instance.t;
  prob : Rt_core.Problem.t;
  lb : float Lazy.t;
  exact : exact_state Lazy.t;
  dp_check : outcome Lazy.t;
}

type t = {
  name : string;
  descr : string;
  run : ctx -> Rt_core.Solution.t -> outcome;
}

let exact_optimum prob =
  match
    Rt_core.Exact.branch_and_bound_budgeted
      ~node_budget:Rt_exact.Search.node_limit prob
  with
  | Error e -> Error ("branch-and-bound: " ^ e)
  | Ok b when b.Rt_core.Exact.exhausted ->
      Error "branch-and-bound: node limit exceeded"
  | Ok b -> Ok (b.Rt_core.Exact.solution, b.Rt_core.Exact.cost)

let solve_exact inst prob ~exact_cap =
  if Instance.n inst > exact_cap then Too_big
  else
    match exact_optimum prob with
    | Ok (s, c) -> Optimum (s, c)
    | Error e -> Broken e

let dp_agreement inst exact =
  match (inst.Instance.m, exact) with
  | m, _ when m <> 1 -> Pass
  | _, Too_big -> Skip "instance above exact cap"
  | _, Broken e -> Fail e
  | _, Optimum (_, opt) -> (
      match
        Rt_core.Uni_dp.exact
          ~proc:(Instance.processor inst.Instance.proc)
          ~frame_length:(float_of_int inst.Instance.frame_ticks)
          (Instance.frame_tasks inst)
      with
      | Error e -> Fail ("uni-dp solver errored: " ^ e)
      | Ok o ->
          if Fc.approx_eq ~eps o.Rt_core.Uni_dp.cost opt then Pass
          else
            Fail
              (Printf.sprintf
                 "m=1 solvers disagree: cycle-DP %.9g vs branch-and-bound \
                  %.9g"
                 o.Rt_core.Uni_dp.cost opt))

let context ?(exact_cap = 10) inst =
  match Instance.to_problem inst with
  | Error e -> Error ("instance does not build a problem: " ^ e)
  | Ok prob ->
      let exact = lazy (solve_exact inst prob ~exact_cap) in
      Ok
        {
          inst;
          prob;
          lb = lazy (Rt_core.Bounds.lower_bound prob);
          exact;
          dp_check = lazy (dp_agreement inst (Lazy.force exact));
        }

let problem ctx = ctx.prob
let instance ctx = ctx.inst

let optimal_cost ctx =
  match Lazy.force ctx.exact with
  | Optimum (_, c) -> Some c
  | Too_big | Broken _ -> None

let total_cost ctx s =
  match Rt_core.Solution.cost ctx.prob s with
  | Ok c -> Ok c
  | Error e -> Error ("cost rejected the solution: " ^ e)

(* ------------------------------------------------------------------ *)
(* the four oracles *)

let oracle_validate =
  {
    name = "validate";
    descr = "structural audit + frame-simulator round trip";
    run =
      (fun ctx s ->
        match Rt_core.Solution.validate ctx.prob s with
        | Ok () -> Pass
        | Error e -> Fail e);
  }

let oracle_lower_bound =
  {
    name = "lower-bound";
    descr = "total dominates the pooling + fractional-rejection bound";
    run =
      (fun ctx s ->
        match total_cost ctx s with
        | Error e -> Fail e
        | Ok c ->
            let lb = Lazy.force ctx.lb in
            if Fc.geq ~eps c.Rt_core.Solution.total lb then Pass
            else
              Fail
                (Printf.sprintf "total %.9g below lower bound %.9g"
                   c.Rt_core.Solution.total lb));
  }

let oracle_exact =
  {
    name = "exact";
    descr =
      "total dominates the branch-and-bound optimum; on m=1 the cycle DP \
       agrees with it";
    run =
      (fun ctx s ->
        match Lazy.force ctx.exact with
        | Too_big -> Skip "instance above exact cap"
        | Broken e -> Fail e
        | Optimum (_, opt) -> (
            match total_cost ctx s with
            | Error e -> Fail e
            | Ok c ->
                if not (Fc.geq ~eps c.Rt_core.Solution.total opt) then
                  Fail
                    (Printf.sprintf
                       "heuristic total %.9g beats the proven optimum %.9g"
                       c.Rt_core.Solution.total opt)
                else Lazy.force ctx.dp_check));
  }

let replay_edf ctx (s : Rt_core.Solution.t) =
  let proc = Instance.processor ctx.inst.Instance.proc in
  let cycles_of =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (it : Instance.item) ->
        Hashtbl.replace tbl it.Instance.id it.Instance.wcec)
      ctx.inst.Instance.items;
    fun id -> Hashtbl.find_opt tbl id
  in
  let buckets = Rt_prelude.Math_util.range 0 (ctx.inst.Instance.m - 1) in
  let check_bucket j =
    let items = Rt_partition.Partition.bucket s.Rt_core.Solution.partition j in
    if items = [] then Ok ()
    else
      let tasks =
        List.filter_map
          (fun (it : Rt_task.Task.item) ->
            match cycles_of it.Rt_task.Task.item_id with
            | None -> None
            | Some cycles ->
                Some
                  (Rt_task.Task.periodic ~id:it.Rt_task.Task.item_id ~cycles
                     ~period:ctx.inst.Instance.frame_ticks ()))
          items
      in
      if List.length tasks <> List.length items then
        Error
          (Printf.sprintf "processor %d holds items foreign to the instance"
             j)
      else
        let u = Rt_partition.Partition.load s.Rt_core.Solution.partition j in
        let speed =
          if Rt_power.Processor.is_ideal proc then
            Fc.clamp ~lo:0. ~hi:(Rt_power.Processor.s_max proc) u
          else
            match Rt_power.Processor.nearest_level_above proc u with
            | Some lvl -> lvl
            | None -> Rt_power.Processor.s_max proc
        in
        match Rt_sim.Edf_sim.run ~proc ~speed tasks with
        | Error e -> Error (Printf.sprintf "EDF replay on processor %d: %s" j e)
        | Ok o -> (
            match o.Rt_sim.Edf_sim.misses with
            | [] -> Ok ()
            | m :: _ ->
                Error
                  (Printf.sprintf
                     "EDF replay on processor %d misses task %d by %.9g" j
                     m.Rt_sim.Edf_sim.task_id m.Rt_sim.Edf_sim.late_by))
  in
  List.fold_left
    (fun acc j -> match acc with Error _ -> acc | Ok () -> check_bucket j)
    (Ok ()) buckets

let oracle_replay =
  {
    name = "replay";
    descr =
      "frame-simulator rebuild with energy agreement, and per-processor \
       EDF replay with zero misses";
    run =
      (fun ctx s ->
        match total_cost ctx s with
        | Error e -> Fail e
        | Ok c -> (
            match
              Rt_sim.Frame_sim.build
                ~proc:(Instance.processor ctx.inst.Instance.proc)
                ~frame_length:(float_of_int ctx.inst.Instance.frame_ticks)
                s.Rt_core.Solution.partition
            with
            | Error e -> Fail ("frame-simulator rebuild: " ^ e)
            | Ok sim -> (
                match Rt_sim.Frame_sim.validate sim with
                | Error e -> Fail ("frame-simulator validation: " ^ e)
                | Ok () ->
                    if
                      not
                        (Fc.approx_eq ~eps c.Rt_core.Solution.energy
                           sim.Rt_sim.Frame_sim.total_energy)
                    then
                      Fail
                        (Printf.sprintf
                           "energy accounting disagrees: cost says %.9g, \
                            simulator integrates %.9g"
                           c.Rt_core.Solution.energy
                           sim.Rt_sim.Frame_sim.total_energy)
                    else (
                      match replay_edf ctx s with
                      | Ok () -> Pass
                      | Error e -> Fail e))));
  }

let all = [ oracle_validate; oracle_lower_bound; oracle_exact; oracle_replay ]

let find name = List.find_opt (fun o -> String.equal o.name name) all

let run_all ctx s = List.map (fun o -> (o.name, o.run ctx s)) all

let first_failure outcomes =
  List.find_map
    (function name, Fail d -> Some (name, d) | _ -> None)
    outcomes
