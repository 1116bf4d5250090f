(* Cross-library integration: end-to-end pipelines that exercise several
   libraries together, plus the published approximation bounds as
   executable theorems. *)

open Rt_task
module Fc = Rt_prelude.Float_cmp
module Instance = Rt_check.Instance

let check_bool = Alcotest.(check bool)

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let cubic = Rt_power.Processor.cubic ()

let optimal_cost p =
  match Rt_core.Exact.branch_and_bound_budgeted p with
  | Ok b -> b.Rt_core.Exact.cost
  | Error e -> Alcotest.failf "exact: %s" e
let xscale_enable =
  Rt_power.Processor.xscale
    ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })
let algorithms =
  [
    ("ltf-reject", Rt_core.Greedy.ltf_reject);
    ("ltf-ls", Rt_core.Local_search.with_local_search Rt_core.Greedy.ltf_reject);
    ("marginal", Rt_core.Greedy.marginal_greedy);
    ("density", Rt_core.Greedy.density_reject);
  ]

(* ------------------------------------------------------------------ *)
(* 1. periodic pipeline: generate -> reject-schedule -> EDF-simulate *)

let prop_periodic_pipeline_edf_clean =
  qtest ~count:40
    "periodic: every algorithm's accepted partition survives EDF simulation"
    QCheck2.Gen.(pair (int_range 1 10_000) (float_range 0.8 2.2))
    (fun (seed, total_util_per_core) ->
      let m = 3 in
      let rng = Rt_prelude.Rng.create ~seed in
      let tasks =
        Gen.periodic_tasks rng ~n:12
          ~total_util:(total_util_per_core *. float_of_int m)
          ~periods:Gen.default_periods
      in
      let tasks =
        (* attach penalties through the item view, then map them back *)
        let horizon = float_of_int (Taskset.hyper_period tasks) in
        let items =
          Taskset.items_of_periodics tasks
          |> Penalty.assign
               (Penalty.Proportional { factor = 1.5; jitter = 0.2 })
               rng ~proc:xscale_enable ~horizon
        in
        List.map2
          (fun (t : Task.periodic) (it : Task.item) ->
            Task.periodic ~penalty:it.item_penalty ~id:t.id ~cycles:t.cycles
              ~period:t.period ())
          tasks items
      in
      match Rt_core.Problem.of_periodic ~proc:xscale_enable ~m tasks with
      | Error _ -> false
      | Ok p ->
          List.for_all
            (fun (_, alg) ->
              let s = alg p in
              Rt_core.Solution.validate p s = Ok ()
              && (* EDF per processor at the clamped sustained speed *)
              List.for_all
                (fun core ->
                  let ids =
                    List.map
                      (fun (it : Task.item) -> it.item_id)
                      (Rt_partition.Partition.bucket
                         s.Rt_core.Solution.partition core)
                  in
                  let core_tasks =
                    List.filter
                      (fun (t : Task.periodic) -> List.mem t.id ids)
                      tasks
                  in
                  core_tasks = []
                  ||
                  let u = Taskset.total_utilization core_tasks in
                  let speed =
                    Rt_prelude.Float_cmp.clamp ~lo:0. ~hi:1.
                      (Float.max u
                         (Rt_power.Processor.critical_speed xscale_enable))
                  in
                  match
                    Rt_sim.Edf_sim.run ~proc:xscale_enable ~speed core_tasks
                  with
                  | Ok o -> o.Rt_sim.Edf_sim.misses = []
                  | Error _ -> false)
                (Rt_prelude.Math_util.range 0 (m - 1)))
            algorithms)

(* ------------------------------------------------------------------ *)
(* 2. discrete-level processors run through the whole rejection stack *)

let prop_levels_pipeline =
  qtest ~count:40
    "discrete-level processors: algorithms validate and beat nobody unfairly"
    (Instance.qcheck_gen
       ~params:{ Instance.default_params with Instance.m_hi = 2 }
       ())
    (fun inst ->
      (* pin the shared generator's draw to the level-domain preset *)
      let inst = { inst with Instance.proc = Instance.Xscale_levels } in
      match Instance.to_problem inst with
      | Error _ -> false
      | Ok p ->
          let opt = optimal_cost p in
          List.for_all
            (fun (_, alg) ->
              let s = alg p in
              Rt_core.Solution.validate p s = Ok ()
              &&
              match Rt_core.Solution.cost p s with
              | Ok c -> Fc.geq ~eps:1e-6 c.Rt_core.Solution.total opt
              | Error _ -> false)
            algorithms)

(* ------------------------------------------------------------------ *)
(* 3. published bounds as executable theorems *)

(* LTF on feasible accept-all instances: energy within 1.13 of the optimal
   *partition* (the published bound; note it is NOT against the migratory
   relaxation — the intrinsic partition-vs-migration gap alone reaches 4/3
   on three near-equal tasks over two processors, which an earlier version
   of this test discovered the hard way). *)
let prop_ltf_energy_bound_113 =
  qtest ~count:80 "LTF energy <= 1.13 x optimal partition (published bound)"
    QCheck2.Gen.(
      pair (int_range 2 3)
        (list_size (int_range 2 8) (float_range 0.05 0.6)))
    (fun (m, weights) ->
      let items =
        List.mapi (fun id w -> Task.item ~penalty:1e9 ~id ~weight:w ()) weights
      in
      let part = Rt_partition.Heuristics.ltf ~m items in
      if Rt_prelude.Float_cmp.gt (Rt_partition.Partition.makespan part) 1. then
        true (* infeasible accept-all: outside the bound's hypothesis *)
      else begin
        let bucket_cost u =
          match Rt_speed.Energy_rate.energy cubic ~u ~horizon:100. with
          | Some e -> e
          | None -> invalid_arg "over capacity"
        in
        let opt =
          match Rt_exact.Search.solve ~m ~capacity:1. ~bucket_cost items with
          | Ok a -> a.Rt_exact.Search.best
          | Error e -> Alcotest.failf "search: %s" e
        in
        opt.Rt_exact.Search.rejected <> []
        || Fc.exact_le opt.Rt_exact.Search.cost 0.
        ||
        let e =
          Array.fold_left
            (fun acc u -> acc +. bucket_cost u)
            0.
            (Rt_partition.Partition.loads part)
        in
        Fc.leq ~eps:1e-9 e (1.13 *. opt.Rt_exact.Search.cost)
      end)

(* Graham in energy clothing is covered in test_partition; here the exact
   solvers agree across formulations on the uniprocessor slice. *)
let prop_exact_agree_m1 =
  qtest ~count:40 "m=1: branch-and-bound and the cycles DP find one optimum"
    (Instance.qcheck_gen
       ~params:
         { Instance.default_params with Instance.n_hi = 8; m_hi = 1 }
       ())
    (fun inst ->
      match
        Rt_core.Uni_dp.exact
          ~proc:(Instance.processor inst.Instance.proc)
          ~frame_length:(float_of_int inst.Instance.frame_ticks)
          (Instance.frame_tasks inst)
      with
      | Error _ -> false
      | Ok o ->
          let bnb = optimal_cost o.Rt_core.Uni_dp.problem in
          Fc.approx_eq ~eps:1e-6 bnb o.Rt_core.Uni_dp.cost)

(* ------------------------------------------------------------------ *)
(* 4. the CLI-facing instance builders stay consistent with the core *)

let test_expkit_instance_roundtrip () =
  let p =
    Rt_expkit.Instances.frame_instance ~proc:xscale_enable ~seed:99 ~n:20 ~m:4
      ~load:1.4 ()
  in
  let s = Rt_core.Local_search.with_local_search Rt_core.Greedy.ltf_reject p in
  check_bool "validates" true (Rt_core.Solution.validate p s = Ok ());
  let lb = Rt_core.Bounds.lower_bound p in
  check_bool "lower bound sound" true
    (Fc.geq ~eps:1e-6 (Rt_expkit.Instances.solution_total p s) lb)

let () =
  Alcotest.run "integration"
    [
      ( "pipelines",
        [
          prop_periodic_pipeline_edf_clean;
          prop_levels_pipeline;
          Alcotest.test_case "expkit roundtrip" `Quick
            test_expkit_instance_roundtrip;
        ] );
      ( "published_bounds",
        [ prop_ltf_energy_bound_113; prop_exact_agree_m1 ] );
    ]
