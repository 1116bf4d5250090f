module Fc = Rt_prelude.Float_cmp

type outcome = Pass | Skip of string | Fail of string

type t = {
  name : string;
  descr : string;
  run : Instance.t -> outcome;
}

let exact_cap = 8
let eps = Oracle.eps

let transfer tp (s : Rt_core.Solution.t) =
  let lookup (it : Rt_task.Task.item) =
    Rt_core.Problem.item tp it.Rt_task.Task.item_id
  in
  let exception Missing of int in
  let map_items items =
    List.map
      (fun (it : Rt_task.Task.item) ->
        match lookup it with
        | Some it' -> it'
        | None -> raise (Missing it.Rt_task.Task.item_id))
    items
  in
  match
    let buckets =
      Array.init
        (Rt_partition.Partition.m s.Rt_core.Solution.partition)
        (fun j ->
          map_items
            (Rt_partition.Partition.bucket s.Rt_core.Solution.partition j))
    in
    {
      Rt_core.Solution.partition = Rt_partition.Partition.of_buckets buckets;
      rejected = map_items s.Rt_core.Solution.rejected;
    }
  with
  | s' -> Ok s'
  | exception Missing id ->
      Error (Printf.sprintf "transfer: item %d missing in target problem" id)

let scale_penalties k (inst : Instance.t) =
  {
    inst with
    Instance.items =
      List.map
        (fun (it : Instance.item) ->
          { it with Instance.penalty = it.Instance.penalty *. k })
        inst.Instance.items;
  }

let with_problem inst f =
  match Instance.to_problem inst with
  | Error e -> Fail ("instance does not build a problem: " ^ e)
  | Ok p -> f p

let law_penalty_scaling =
  {
    name = "penalty-scaling";
    descr =
      "scaling all penalties by k keeps a fixed solution's energy and \
       scales its penalty term by k";
    run =
      (fun inst ->
        with_problem inst (fun p ->
            let s = Rt_core.Greedy.ltf_reject p in
            match Rt_core.Solution.cost p s with
            | Error e -> Fail ("baseline cost: " ^ e)
            | Ok c0 ->
                let check_k k =
                  with_problem (scale_penalties k inst) (fun pk ->
                      match transfer pk s with
                      | Error e -> Fail e
                      | Ok sk -> (
                          match Rt_core.Solution.cost pk sk with
                          | Error e -> Fail ("scaled cost: " ^ e)
                          | Ok ck ->
                              if
                                not
                                  (Fc.approx_eq ~eps
                                     ck.Rt_core.Solution.energy
                                     c0.Rt_core.Solution.energy)
                              then
                                Fail
                                  (Printf.sprintf
                                     "k=%g changed the energy term: %.9g \
                                      vs %.9g"
                                     k ck.Rt_core.Solution.energy
                                     c0.Rt_core.Solution.energy)
                              else if
                                not
                                  (Fc.approx_eq ~eps
                                     ck.Rt_core.Solution.penalty
                                     (k *. c0.Rt_core.Solution.penalty))
                              then
                                Fail
                                  (Printf.sprintf
                                     "k=%g: penalty term %.9g, expected \
                                      %.9g"
                                     k ck.Rt_core.Solution.penalty
                                     (k *. c0.Rt_core.Solution.penalty))
                              else Pass))
                in
                List.fold_left
                  (fun acc k ->
                    match acc with Pass -> check_k k | other -> other)
                  Pass [ 0.5; 3. ]));
  }

let law_extra_processor =
  {
    name = "extra-processor";
    descr = "adding an identical processor never increases the optimum";
    run =
      (fun inst ->
        if Instance.n inst > exact_cap then Skip "instance above exact cap"
        else
          with_problem inst (fun p ->
              with_problem
                { inst with Instance.m = inst.Instance.m + 1 }
                (fun p1 ->
                  match (Oracle.exact_optimum p, Oracle.exact_optimum p1) with
                  | Error e, _ | _, Error e -> Fail e
                  | Ok (_, opt_m), Ok (_, opt_m1) ->
                      if Fc.leq ~eps opt_m1 opt_m then Pass
                      else
                        Fail
                          (Printf.sprintf
                             "optimum rose from %.9g (m=%d) to %.9g (m=%d)"
                             opt_m inst.Instance.m opt_m1
                             (inst.Instance.m + 1)))));
  }

let law_smax_relief =
  {
    name = "smax-relief";
    descr = "raising s_max never increases the optimum (cubic preset)";
    run =
      (fun inst ->
        if Instance.n inst > exact_cap then Skip "instance above exact cap"
        else
          let tasks = Instance.frame_tasks inst in
          let problem_at s_max =
            Rt_core.Problem.of_frame
              ~proc:(Rt_power.Processor.cubic ~s_max ())
              ~m:inst.Instance.m
              ~frame_length:(float_of_int inst.Instance.frame_ticks)
              tasks
          in
          match (problem_at 1.0, problem_at 1.3) with
          | Error e, _ | _, Error e -> Fail ("cubic problem: " ^ e)
          | Ok p_lo, Ok p_hi -> (
              match (Oracle.exact_optimum p_lo, Oracle.exact_optimum p_hi) with
              | Error e, _ | _, Error e -> Fail e
              | Ok (_, opt_lo), Ok (_, opt_hi) ->
                  if Fc.leq ~eps opt_hi opt_lo then Pass
                  else
                    Fail
                      (Printf.sprintf
                         "optimum rose from %.9g (s_max=1.0) to %.9g \
                          (s_max=1.3)"
                         opt_lo opt_hi)));
  }

let law_cheap_reject =
  {
    name = "cheap-reject";
    descr =
      "an item with penalty strictly below its minimal marginal energy \
       E(w) - E(0) is rejected by the exact solver";
    run =
      (fun inst ->
        if Instance.n inst > exact_cap then Skip "instance above exact cap"
        else
          with_problem inst (fun p ->
              match Oracle.exact_optimum p with
              | Error e -> Fail e
              | Ok (opt, _) ->
                  let accepted = Rt_core.Solution.accepted_ids opt in
                  let capacity = Rt_core.Problem.capacity p in
                  let e0 = Rt_core.Problem.bucket_energy p 0. in
                  let offender =
                    List.find_opt
                      (fun (it : Rt_task.Task.item) ->
                        let w = it.Rt_task.Task.weight in
                        if Fc.gt w capacity then false
                          (* unplaceable: rejected by feasibility, not
                             by this law *)
                        else
                          let marginal =
                            Rt_core.Problem.bucket_energy p w -. e0
                          in
                          (* strict beyond tolerance, so ties never
                             count as violations *)
                          Fc.lt ~eps it.Rt_task.Task.item_penalty marginal
                          && List.mem it.Rt_task.Task.item_id accepted)
                      p.Rt_core.Problem.items
                  in
                  match offender with
                  | None -> Pass
                  | Some it ->
                      Fail
                        (Printf.sprintf
                           "optimum accepts item %d although its penalty \
                            %.9g is below its minimal marginal energy"
                           it.Rt_task.Task.item_id
                           it.Rt_task.Task.item_penalty)));
  }

let all =
  [ law_penalty_scaling; law_extra_processor; law_smax_relief;
    law_cheap_reject ]

let find name = List.find_opt (fun l -> String.equal l.name name) all

let run_all inst = List.map (fun l -> (l.name, l.run inst)) all

let first_failure outcomes =
  List.find_map
    (function name, Fail d -> Some (name, d) | _ -> None)
    outcomes
