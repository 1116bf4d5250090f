(* Tests for rt_expkit: instance builders, the experiment registry, and the
   leakage-aware policy-energy model behind E8. *)

open Rt_task
module Fc = Rt_prelude.Float_cmp

let check_float eps = Alcotest.(check (float eps))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let xscale_enable ~t_sw ~e_sw =
  Rt_power.Processor.xscale
    ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw; e_sw })

(* ------------------------------------------------------------------ *)
(* Runner *)

let test_seeds_distinct () =
  let s = Rt_expkit.Runner.seeds ~base:5 ~n:50 in
  check_int "count" 50 (List.length s);
  check_bool "distinct" true (Task.distinct_ids s)

let test_replicate () =
  let s =
    Rt_expkit.Runner.replicate ~seeds:[ 1; 2; 3 ] (fun seed ->
        float_of_int seed)
  in
  check_float 1e-12 "mean" 2. s.Rt_prelude.Stats.mean;
  (* NaNs are skipped *)
  let s2 =
    Rt_expkit.Runner.replicate ~seeds:[ 1; 2; 3 ] (fun seed ->
        if seed = 2 then Float.nan else float_of_int seed)
  in
  check_int "nan skipped" 2 s2.Rt_prelude.Stats.n;
  match
    Rt_expkit.Runner.replicate ~seeds:[ 1 ] (fun _ -> Float.nan)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "all-NaN must raise"

(* Re-running an experiment pipeline with the same seeds must reproduce
   the result table byte for byte — every aggregate, every rendered
   cell. This is the repository's replication guarantee: a table in the
   paper report can always be regenerated from its seed. *)
let test_runner_deterministic () =
  let run () =
    let proc = xscale_enable ~t_sw:0. ~e_sw:0. in
    let seeds = Rt_expkit.Runner.seeds ~base:2024 ~n:12 in
    let summary_for load =
      Rt_expkit.Runner.replicate ~seeds (fun seed ->
          let p =
            Rt_expkit.Instances.frame_instance ~proc ~seed ~n:8 ~m:2 ~load ()
          in
          Rt_expkit.Instances.solution_total p (Rt_core.Greedy.ltf_reject p))
    in
    let table =
      List.fold_left
        (fun t load ->
          let s = summary_for load in
          Rt_prelude.Tablefmt.add_row t
            [
              Rt_prelude.Tablefmt.float_cell load;
              string_of_int s.Rt_prelude.Stats.n;
              Rt_prelude.Tablefmt.float_cell ~decimals:6
                s.Rt_prelude.Stats.mean;
              Rt_prelude.Tablefmt.float_cell ~decimals:6
                s.Rt_prelude.Stats.stddev;
            ])
        (Rt_prelude.Tablefmt.create [ "load"; "n"; "mean"; "stddev" ])
        [ 0.6; 1.1; 1.7 ]
    in
    (summary_for 1.1, Rt_prelude.Tablefmt.render table,
     Rt_prelude.Tablefmt.to_csv table)
  in
  let s1, rendered1, csv1 = run () in
  let s2, rendered2, csv2 = run () in
  check_bool "aggregates identical to the bit" true
    (s1.Rt_prelude.Stats.n = s2.Rt_prelude.Stats.n
    && Fc.exact_eq s1.Rt_prelude.Stats.mean s2.Rt_prelude.Stats.mean
    && Fc.exact_eq s1.Rt_prelude.Stats.stddev s2.Rt_prelude.Stats.stddev
    && Fc.exact_eq s1.Rt_prelude.Stats.min s2.Rt_prelude.Stats.min
    && Fc.exact_eq s1.Rt_prelude.Stats.max s2.Rt_prelude.Stats.max
    && Fc.exact_eq s1.Rt_prelude.Stats.median s2.Rt_prelude.Stats.median);
  Alcotest.(check string) "rendered table byte-identical" rendered1 rendered2;
  Alcotest.(check string) "csv byte-identical" csv1 csv2

(* ------------------------------------------------------------------ *)
(* Instances *)

let test_frame_instance_shape () =
  let proc = xscale_enable ~t_sw:0. ~e_sw:0. in
  let p =
    Rt_expkit.Instances.frame_instance ~proc ~seed:7 ~n:15 ~m:3 ~load:1.3 ()
  in
  check_int "n items" 15 (List.length p.Rt_core.Problem.items);
  check_bool "load near target" true
    (Fc.approx_eq ~eps:0.05 (Rt_core.Problem.load_factor p) 1.3);
  check_bool "penalties assigned" true
    (List.for_all
       (fun (it : Task.item) -> Fc.exact_gt it.Task.item_penalty 0.)
       p.Rt_core.Problem.items)

let test_frame_instance_deterministic () =
  let proc = xscale_enable ~t_sw:0. ~e_sw:0. in
  let p1 =
    Rt_expkit.Instances.frame_instance ~proc ~seed:9 ~n:10 ~m:2 ~load:1.5 ()
  in
  let p2 =
    Rt_expkit.Instances.frame_instance ~proc ~seed:9 ~n:10 ~m:2 ~load:1.5 ()
  in
  List.iter2
    (fun (a : Task.item) (b : Task.item) ->
      check_float 1e-12 "weight" a.Task.weight b.Task.weight;
      check_float 1e-12 "penalty" a.Task.item_penalty b.Task.item_penalty)
    p1.Rt_core.Problem.items p2.Rt_core.Problem.items

let test_periodic_instance () =
  let proc = xscale_enable ~t_sw:0. ~e_sw:0. in
  let p, tasks =
    Rt_expkit.Instances.periodic_instance ~proc ~seed:3 ~n:8 ~m:2
      ~total_util:1.5 ()
  in
  check_int "n" 8 (List.length tasks);
  check_float 1e-9 "horizon = hyper-period"
    (float_of_int (Taskset.hyper_period tasks))
    p.Rt_core.Problem.horizon

(* ------------------------------------------------------------------ *)
(* La_ltf consolidation *)

let leaky_enable = xscale_enable ~t_sw:5. ~e_sw:4.

let part_of weights =
  let items = List.mapi (fun id w -> Task.item ~id ~weight:w ()) weights in
  (* one item per processor *)
  Rt_partition.Partition.of_buckets
    (Array.of_list (List.map (fun it -> [ it ]) items))

let test_consolidate_merges_light_processors () =
  (* critical speed ≈ 0.297: four processors at 0.1 merge into fewer *)
  let p = part_of [ 0.1; 0.1; 0.1; 0.1 ] in
  let c = Rt_partition.La_ltf.consolidate ~proc:leaky_enable p in
  let nonempty =
    Array.to_list (Rt_partition.Partition.loads c)
    |> List.filter (fun l -> Fc.exact_gt l 0.)
  in
  check_int "merged to two" 2 (List.length nonempty);
  check_bool "loads within critical speed" true
    (List.for_all
       (fun l -> Fc.leq l (Rt_power.Processor.critical_speed leaky_enable))
       nonempty);
  check_int "same item count" 4 (Rt_partition.Partition.size c)

let test_consolidate_leaves_heavy_alone () =
  let p = part_of [ 0.8; 0.9 ] in
  let c = Rt_partition.La_ltf.consolidate ~proc:leaky_enable p in
  check_bool "unchanged" true (Rt_partition.Partition.equal_shape p c)

let test_critical_processors () =
  let p = part_of [ 0.1; 0.8; 0.2 ] in
  Alcotest.(check (list int))
    "below-critical indices" [ 0; 2 ]
    (Rt_partition.La_ltf.critical_processors ~proc:leaky_enable p)

let prop_consolidate_preserves_items =
  qtest "consolidation never loses or duplicates items"
    QCheck2.Gen.(list_size (int_range 1 8) (float_range 0.02 0.5))
    (fun weights ->
      let items = List.mapi (fun id w -> Task.item ~id ~weight:w ()) weights in
      let p = Rt_partition.Heuristics.ltf ~m:6 items in
      let c = Rt_partition.La_ltf.consolidate ~proc:leaky_enable p in
      let ids part =
        List.sort compare
          (List.map
             (fun (it : Task.item) -> it.Task.item_id)
             (Rt_partition.Partition.all_items part))
      in
      ids p = ids c)

let prop_consolidate_never_raises_e8_energy =
  qtest "consolidation never increases the E8 policy energy"
    QCheck2.Gen.(int_range 1 500)
    (fun seed ->
      let rng = Rt_prelude.Rng.create ~seed in
      let tasks =
        Gen.periodic_tasks rng ~n:10 ~total_util:1.0
          ~periods:Gen.default_periods
      in
      let horizon = float_of_int (Taskset.hyper_period tasks) in
      let items = Taskset.items_of_periodics tasks in
      let part = Rt_partition.Heuristics.ltf ~m:8 items in
      let jobs_on bucket = 5 * List.length bucket in
      let e policy =
        Rt_expkit.Exp_leakage.policy_energy ~proc:leaky_enable ~horizon
          ~jobs_on policy part
      in
      let base = e { Rt_expkit.Exp_leakage.ff = false; procrastinate = false } in
      let ff = e { Rt_expkit.Exp_leakage.ff = true; procrastinate = false } in
      Fc.leq ff base)

let prop_procrastination_never_hurts =
  qtest "coalescing idle (PROC) never increases energy"
    QCheck2.Gen.(int_range 1 500)
    (fun seed ->
      let rng = Rt_prelude.Rng.create ~seed in
      let tasks =
        Gen.periodic_tasks rng ~n:12 ~total_util:1.2
          ~periods:Gen.default_periods
      in
      let horizon = float_of_int (Taskset.hyper_period tasks) in
      let items = Taskset.items_of_periodics tasks in
      let part = Rt_partition.Heuristics.ltf ~m:8 items in
      let jobs_on bucket = 5 * List.length bucket in
      let e policy =
        Rt_expkit.Exp_leakage.policy_energy ~proc:leaky_enable ~horizon
          ~jobs_on policy part
      in
      List.for_all
        (fun ff ->
          Fc.leq
            (e { Rt_expkit.Exp_leakage.ff; procrastinate = true })
            (e { Rt_expkit.Exp_leakage.ff; procrastinate = false }))
        [ false; true ])

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_ids_unique () =
  let ids = List.map (fun e -> e.Rt_expkit.Registry.id) Rt_expkit.Registry.all in
  check_bool "unique ids" true
    (List.length (List.sort_uniq compare ids) = List.length ids);
  check_bool "find works" true (Rt_expkit.Registry.find "e1" <> None);
  check_bool "find miss" true (Rt_expkit.Registry.find "nope" = None)

(* every quick experiment produces a well-formed table whose data rows
   carry parseable, sane ratios *)
let test_registry_quick_runs () =
  List.iter
    (fun e ->
      let table = e.Rt_expkit.Registry.run_quick () in
      let rendered = Rt_prelude.Tablefmt.render table in
      let lines = String.split_on_char '\n' rendered in
      Alcotest.(check bool)
        (e.Rt_expkit.Registry.id ^ " has data rows")
        true
        (List.length lines > 2))
    (* keep the expensive optimal-search experiments out of unit tests *)
    (List.filter
       (fun e ->
         not (List.mem e.Rt_expkit.Registry.id [ "e1"; "e7"; "e7b" ]))
       Rt_expkit.Registry.all)

let () =
  Alcotest.run "rt_expkit"
    [
      ( "runner",
        [
          Alcotest.test_case "seeds distinct" `Quick test_seeds_distinct;
          Alcotest.test_case "replicate" `Quick test_replicate;
          Alcotest.test_case "deterministic replication" `Quick
            test_runner_deterministic;
        ] );
      ( "instances",
        [
          Alcotest.test_case "frame instance shape" `Quick
            test_frame_instance_shape;
          Alcotest.test_case "deterministic" `Quick
            test_frame_instance_deterministic;
          Alcotest.test_case "periodic instance" `Quick test_periodic_instance;
        ] );
      ( "la_ltf",
        [
          Alcotest.test_case "merges light processors" `Quick
            test_consolidate_merges_light_processors;
          Alcotest.test_case "leaves heavy alone" `Quick
            test_consolidate_leaves_heavy_alone;
          Alcotest.test_case "critical processors" `Quick
            test_critical_processors;
          prop_consolidate_preserves_items;
          prop_consolidate_never_raises_e8_energy;
          prop_procrastination_never_hurts;
        ] );
      ( "registry",
        [
          Alcotest.test_case "ids unique" `Quick test_registry_ids_unique;
          Alcotest.test_case "quick runs render" `Slow test_registry_quick_runs;
        ] );
    ]
