(* Tests for rt_core: problem/solution plumbing, bounds, the greedy
   rejection schedulers, local search, the exact wrappers, the
   uniprocessor DP, and the hardness gadgets. *)

open Rt_task
open Rt_core
module Fc = Rt_prelude.Float_cmp

let check_float eps = Alcotest.(check (float eps))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 80) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let cubic = Rt_power.Processor.cubic ()

let problem_exn ~proc ~m ~horizon items =
  match Problem.make ~proc ~m ~horizon items with
  | Ok p -> p
  | Error e -> Alcotest.failf "problem: %s" e

let items_of specs =
  List.mapi (fun id (w, p) -> Task.item ~penalty:p ~id ~weight:w ()) specs

let cost_exn p s =
  match Solution.cost p s with
  | Ok c -> c
  | Error e -> Alcotest.failf "cost: %s" e

let optimal_cost p =
  match Exact.branch_and_bound_budgeted p with
  | Ok b -> b.Exact.cost
  | Error e -> Alcotest.failf "exact: %s" e

(* random rejection instances around a given load factor *)
let random_instance ?(proc = cubic) ~seed ~n ~m ~load () =
  let rng = Rt_prelude.Rng.create ~seed in
  let tasks =
    Gen.frame_tasks_with_load rng ~n ~m
      ~s_max:(Rt_power.Processor.s_max proc)
      ~frame_length:1000. ~load
  in
  let items =
    Taskset.items_of_frames ~frame_length:1000. tasks
    |> Penalty.assign
         (Penalty.Proportional { factor = 1.5; jitter = 0.3 })
         rng ~proc ~horizon:1000.
  in
  problem_exn ~proc ~m ~horizon:1000. items

(* ------------------------------------------------------------------ *)
(* Problem / Solution *)

let test_problem_make_validation () =
  let it = Task.item ~id:0 ~weight:0.5 () in
  check_bool "m=0 rejected" true
    (Result.is_error (Problem.make ~proc:cubic ~m:0 ~horizon:1. [ it ]));
  check_bool "bad horizon" true
    (Result.is_error (Problem.make ~proc:cubic ~m:1 ~horizon:0. [ it ]));
  check_bool "dup ids" true
    (Result.is_error (Problem.make ~proc:cubic ~m:1 ~horizon:1. [ it; it ]));
  let hetero = Task.item ~power_factor:2. ~id:1 ~weight:0.1 () in
  check_bool "hetero refused" true
    (Result.is_error (Problem.make ~proc:cubic ~m:1 ~horizon:1. [ hetero ]))

let test_problem_of_frame () =
  let tasks = [ Task.frame ~penalty:1. ~id:0 ~cycles:500 () ] in
  match Problem.of_frame ~proc:cubic ~m:1 ~frame_length:1000. tasks with
  | Error e -> Alcotest.fail e
  | Ok p ->
      check_float 1e-12 "load factor" 0.5 (Problem.load_factor p);
      check_float 1e-12 "capacity" 1. (Problem.capacity p)

let test_problem_of_periodic_overflow () =
  (* coprime near-max-int periods: the hyper-period lcm would overflow,
     and that must surface as a typed error, not a garbage horizon *)
  let tasks =
    [
      Task.periodic ~penalty:1. ~id:0 ~cycles:1 ~period:max_int ();
      Task.periodic ~penalty:1. ~id:1 ~cycles:1 ~period:(max_int - 1) ();
    ]
  in
  check_bool "overflow is a typed error" true
    (Result.is_error (Problem.of_periodic ~proc:cubic ~m:2 tasks));
  check_bool "empty set is a typed error" true
    (Result.is_error (Problem.of_periodic ~proc:cubic ~m:2 []))

let test_problem_of_periodic () =
  let tasks =
    [
      Task.periodic ~penalty:1. ~id:0 ~cycles:50 ~period:100 ();
      Task.periodic ~penalty:1. ~id:1 ~cycles:50 ~period:200 ();
    ]
  in
  match Problem.of_periodic ~proc:cubic ~m:2 tasks with
  | Error e -> Alcotest.fail e
  | Ok p ->
      check_float 1e-12 "horizon = hyper-period" 200. p.Problem.horizon;
      check_float 1e-12 "load factor" 0.375 (Problem.load_factor p)

let test_solution_cost_and_validate () =
  let items = items_of [ (0.5, 1.); (0.25, 2.) ] in
  let p = problem_exn ~proc:cubic ~m:2 ~horizon:10. items in
  let part =
    Rt_partition.Partition.of_buckets
      [| [ List.nth items 0 ]; [] |]
  in
  let s = { Solution.partition = part; rejected = [ List.nth items 1 ] } in
  let c = cost_exn p s in
  check_float 1e-9 "energy" (10. *. (0.5 ** 3.)) c.Solution.energy;
  check_float 1e-12 "penalty" 2. c.Solution.penalty;
  check_bool "validates" true (Solution.validate p s = Ok ());
  (* dropping an item from both sides must be caught *)
  let bad = { Solution.partition = part; rejected = [] } in
  check_bool "incomplete caught" true (Result.is_error (Solution.validate p bad))

let test_solution_overload_caught () =
  let items = items_of [ (0.9, 1.); (0.9, 1.) ] in
  let p = problem_exn ~proc:cubic ~m:1 ~horizon:1. items in
  let part = Rt_partition.Partition.of_buckets [| items |] in
  let s = { Solution.partition = part; rejected = [] } in
  check_bool "overload detected" true (Result.is_error (Solution.cost p s))

(* ------------------------------------------------------------------ *)
(* Bounds *)

let test_lower_bound_simple () =
  (* one item, penalty far above energy: bound = balanced energy *)
  let items = items_of [ (0.5, 100.) ] in
  let p = problem_exn ~proc:cubic ~m:1 ~horizon:1. items in
  check_float 1e-6 "lb = energy of accept-all" (0.5 ** 3.) (Bounds.lower_bound p)

let prop_lower_bound_sound =
  qtest ~count:50 "lower bound never exceeds the exact optimum"
    QCheck2.Gen.(pair (int_range 1 500) (float_range 0.5 2.0))
    (fun (seed, load) ->
      let p = random_instance ~seed ~n:7 ~m:2 ~load () in
      Bounds.lower_bound p <= optimal_cost p +. 1e-6)

let test_min_rejected_penalty_extremes () =
  let items = items_of [ (0.5, 1.); (0.5, 3.) ] in
  let p = problem_exn ~proc:cubic ~m:2 ~horizon:1. items in
  check_float 1e-9 "accept everything -> no penalty" 0.
    (Bounds.min_rejected_penalty p ~accepted_weight:1.0);
  check_float 1e-9 "accept nothing -> all penalties" 4.
    (Bounds.min_rejected_penalty p ~accepted_weight:0.);
  (* accepting half the weight keeps the denser item *)
  check_float 1e-9 "keeps the dense item" 1.
    (Bounds.min_rejected_penalty p ~accepted_weight:0.5)

(* ------------------------------------------------------------------ *)
(* Greedy algorithms *)

let all_algorithms =
  Greedy.named
  @ [
      ("ltf-ls", Local_search.with_local_search Greedy.ltf_reject);
      ("marginal-ls", Local_search.with_local_search Greedy.marginal_greedy);
      ("density-ls", Local_search.with_local_search Greedy.density_reject);
    ]

let test_greedy_feasible_accepts_all () =
  (* light load, high penalties: everything should be accepted *)
  let items = items_of [ (0.3, 10.); (0.2, 10.); (0.4, 10.) ] in
  let p = problem_exn ~proc:cubic ~m:2 ~horizon:1. items in
  List.iter
    (fun (name, alg) ->
      let s = alg p in
      Alcotest.(check int) (name ^ " accepts all") 3
        (Rt_partition.Partition.size s.Solution.partition))
    all_algorithms

let test_greedy_overload_forces_rejection () =
  (* total weight 2.4 on one unit-speed processor: must reject *)
  let items = items_of [ (0.8, 1.); (0.8, 1.); (0.8, 1.) ] in
  let p = problem_exn ~proc:cubic ~m:1 ~horizon:1. items in
  List.iter
    (fun (name, alg) ->
      let s = alg p in
      Alcotest.(check bool) (name ^ " rejects") true (s.Solution.rejected <> []);
      Alcotest.(check bool)
        (name ^ " validates") true
        (Solution.validate p s = Ok ()))
    all_algorithms

let test_marginal_rejects_unprofitable () =
  (* penalty below any possible marginal energy: marginal greedy rejects
     even though acceptance is feasible *)
  let items = items_of [ (0.9, 0.001) ] in
  let p = problem_exn ~proc:cubic ~m:1 ~horizon:1. items in
  let s = Greedy.marginal_greedy p in
  check_int "rejected voluntarily" 1 (List.length s.Solution.rejected);
  (* ltf_reject, by contrast, accepts whatever fits *)
  let s2 = Greedy.ltf_reject p in
  check_int "ltf accepts" 0 (List.length s2.Solution.rejected)

let test_density_trims () =
  (* same instance: the trimming phase should also reject *)
  let items = items_of [ (0.9, 0.001) ] in
  let p = problem_exn ~proc:cubic ~m:1 ~horizon:1. items in
  let s = Greedy.density_reject p in
  check_int "density trims" 1 (List.length s.Solution.rejected)

let prop_all_algorithms_valid =
  qtest ~count:60 "every algorithm emits a validating solution"
    QCheck2.Gen.(
      triple (int_range 1 10_000) (int_range 1 4) (float_range 0.3 2.5))
    (fun (seed, m, load) ->
      let p = random_instance ~seed ~n:12 ~m ~load () in
      List.for_all
        (fun (_, alg) -> Solution.validate p (alg p) = Ok ())
        all_algorithms)

let prop_local_search_never_hurts =
  qtest ~count:60 "local search never increases the cost"
    QCheck2.Gen.(pair (int_range 1 10_000) (float_range 0.5 2.0))
    (fun (seed, load) ->
      let p = random_instance ~seed ~n:10 ~m:3 ~load () in
      List.for_all
        (fun (_, alg) ->
          let s = alg p in
          let s' = Local_search.improve p s in
          (cost_exn p s').Solution.total
          <= (cost_exn p s).Solution.total +. 1e-9)
        Greedy.named)

(* Regression for the gain tolerance: it used to be frozen from the
   maximum *initial* load, so a start with empty processors (all-reject)
   got a noise-level eps; once accept moves grew the buckets to capacity
   scale, float-noise "gains" above that stale eps could keep the loop
   churning to the move budget. The tolerance is now derived from the
   energy at full capacity, an upper bound valid however far the loads
   grow — so the loop must both converge and never worsen the cost. *)
let prop_local_search_converges_as_loads_grow =
  qtest ~count:60 "local search converges when loads grow from empty"
    QCheck2.Gen.(pair (int_range 1 10_000) (float_range 0.5 2.0))
    (fun (seed, load) ->
      let p = random_instance ~seed ~n:12 ~m:3 ~load () in
      let s0 =
        {
          Solution.partition = Rt_partition.Partition.empty ~m:3;
          rejected = p.Problem.items;
        }
      in
      match Local_search.improve_budgeted p s0 with
      | Error e -> Alcotest.failf "improve: %s" e
      | Ok b ->
          (not b.Local_search.exhausted)
          && (cost_exn p b.Local_search.solution).Solution.total
             <= (cost_exn p s0).Solution.total +. 1e-9)

(* The delta-cost invariant: after thousands of random accepted (feasible
   but not improving) moves and swaps, the incrementally-maintained loads
   and bucket energies must renormalize to *exact* agreement with a
   from-scratch [Solution.cost] re-evaluation — the renormalization pass
   sums in the same order [Partition.of_buckets] does, so any surviving
   difference is a bookkeeping bug, not float drift. *)
let drift_agrees ~steps ~rng_seed p =
  let s = Greedy.ltf_reject p in
  let d = Local_search.Drift_test.init p s in
  let rng = Rt_prelude.Rng.create ~seed:rng_seed in
  let applied = ref 0 in
  for _ = 1 to steps do
    if Local_search.Drift_test.random_step rng d then incr applied
  done;
  Local_search.Drift_test.renormalize d;
  let sol = Local_search.Drift_test.solution d in
  let fresh = cost_exn p sol in
  let fresh_loads = Rt_partition.Partition.loads sol.Solution.partition in
  let inc_loads = Local_search.Drift_test.loads d in
  Array.for_all2 Fc.exact_eq inc_loads fresh_loads
  && Fc.exact_eq (Local_search.Drift_test.cost d) fresh.Solution.total

let prop_drift_renormalizes_exactly =
  qtest ~count:20 "10^4 random moves: renormalized state = from-scratch cost"
    QCheck2.Gen.(
      triple (int_range 1 10_000) (int_range 2 6) (float_range 0.5 2.0))
    (fun (seed, m, load) ->
      let p = random_instance ~seed ~n:30 ~m ~load () in
      drift_agrees ~steps:10_000 ~rng_seed:(seed + 1) p)

(* O(1) SoA id lookup vs the O(n) list scan it replaced: they must agree
   on every present id and on misses, for any duplicate-free instance *)
let prop_item_lookup_matches_list_scan =
  qtest ~count:60 "Problem.item = list scan"
    QCheck2.Gen.(pair (int_range 1 10_000) (float_range 0.3 2.5))
    (fun (seed, load) ->
      let p = random_instance ~seed ~n:25 ~m:3 ~load () in
      let scan id =
        List.find_opt (fun (it : Task.item) -> it.item_id = id) p.Problem.items
      in
      List.for_all
        (fun (it : Task.item) ->
          Problem.item p it.item_id = scan it.item_id
          && Problem.item p it.item_id = Some it)
        p.Problem.items
      && Problem.item p (-1) = None
      && Problem.item p max_int = scan max_int)

let test_local_search_budgeted () =
  let p = random_instance ~seed:42 ~n:12 ~m:3 ~load:1.8 () in
  let s = Greedy.ltf_reject p in
  (* zero budget: identity solution, flagged exhausted *)
  (match Local_search.improve_budgeted ~max_moves:0 p s with
  | Error e -> Alcotest.failf "budgeted: %s" e
  | Ok b ->
      check_int "no moves applied" 0 b.Local_search.moves;
      check_bool "exhausted" true b.Local_search.exhausted;
      check_float 1e-12 "identity cost" (cost_exn p s).Solution.total
        (cost_exn p b.Local_search.solution).Solution.total);
  (* default budget: converges, matching the raising wrapper *)
  (match Local_search.improve_budgeted p s with
  | Error e -> Alcotest.failf "budgeted: %s" e
  | Ok b ->
      check_bool "not exhausted" false b.Local_search.exhausted;
      check_float 1e-9 "matches improve"
        (cost_exn p (Local_search.improve p s)).Solution.total
        (cost_exn p b.Local_search.solution).Solution.total);
  (* an infeasible start is a typed error, not an exception *)
  let items = items_of [ (0.9, 1.); (0.9, 1.) ] in
  let p' = problem_exn ~proc:cubic ~m:1 ~horizon:1. items in
  let overloaded =
    { Solution.partition = Rt_partition.Partition.of_buckets [| items |];
      rejected = [] }
  in
  check_bool "overloaded input is a typed error" true
    (Result.is_error (Local_search.improve_budgeted p' overloaded))

let prop_heuristics_above_optimal =
  qtest ~count:40 "no heuristic beats the exact optimum"
    QCheck2.Gen.(pair (int_range 1 10_000) (float_range 0.5 2.0))
    (fun (seed, load) ->
      let p = random_instance ~seed ~n:8 ~m:2 ~load () in
      let opt = optimal_cost p in
      List.for_all
        (fun (_, alg) -> (cost_exn p (alg p)).Solution.total >= opt -. 1e-6)
        all_algorithms)

let test_random_reject_valid () =
  let rng = Rt_prelude.Rng.create ~seed:77 in
  let p = random_instance ~seed:5 ~n:15 ~m:3 ~load:1.5 () in
  let s = Greedy.random_reject rng p in
  check_bool "validates" true (Solution.validate p s = Ok ())

let test_best_of () =
  let p = random_instance ~seed:11 ~n:10 ~m:2 ~load:1.8 () in
  let best = Greedy.best_of (List.map snd all_algorithms) p in
  let best_cost = (cost_exn p best).Solution.total in
  List.iter
    (fun (name, alg) ->
      Alcotest.(check bool)
        (name ^ " >= best") true
        ((cost_exn p (alg p)).Solution.total >= best_cost -. 1e-9))
    all_algorithms

(* ------------------------------------------------------------------ *)
(* Exact wrappers *)

let prop_exhaustive_equals_bnb =
  qtest ~count:30 "wrapped exhaustive and B&B agree"
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let p = random_instance ~seed ~n:7 ~m:2 ~load:1.3 () in
      let all =
        match
          Rt_exact.Search.solve ~prune:false ~m:p.Problem.m
            ~capacity:(Problem.capacity p)
            ~bucket_cost:(Problem.bucket_energy p) p.Problem.items
        with
        | Ok a -> a.Rt_exact.Search.best
        | Error e -> Alcotest.failf "enumeration: %s" e
      in
      let a =
        cost_exn p
          {
            Solution.partition = all.Rt_exact.Search.partition;
            rejected = all.Rt_exact.Search.rejected;
          }
      in
      Fc.approx_eq ~eps:1e-9 a.Solution.total (optimal_cost p))

(* ------------------------------------------------------------------ *)
(* Uni_dp *)

let frame_tasks_of specs =
  List.mapi (fun id (c, p) -> Task.frame ~penalty:p ~id ~cycles:c ()) specs

let test_uni_dp_simple () =
  (* capacity 1000 cycles; both fit; penalties dominate: accept all *)
  let tasks = frame_tasks_of [ (300, 1000.); (200, 1000.) ] in
  match Uni_dp.exact ~proc:cubic ~frame_length:1000. tasks with
  | Error e -> Alcotest.fail e
  | Ok o ->
      check_int "all accepted" 2
        (Rt_partition.Partition.size o.Uni_dp.solution.Solution.partition);
      check_float 1e-9 "cost = energy of 0.5 load" (1000. *. (0.5 ** 3.)) o.Uni_dp.cost

let test_uni_dp_prefers_cheap_rejection () =
  (* with small penalties the DP drops the big task and keeps the small one:
     energy(200 cycles) + penalty(300-cycle task) beats every alternative *)
  let tasks = frame_tasks_of [ (300, 10.); (200, 10.) ] in
  match Uni_dp.exact ~proc:cubic ~frame_length:1000. tasks with
  | Error e -> Alcotest.fail e
  | Ok o ->
      check_int "keeps only the small task" 1
        (Rt_partition.Partition.size o.Uni_dp.solution.Solution.partition);
      check_float 1e-9 "cost = energy(0.2) + 10" ((1000. *. (0.2 ** 3.)) +. 10.)
        o.Uni_dp.cost

let prop_uni_dp_matches_exhaustive =
  qtest ~count:40 "uniprocessor DP equals the exhaustive optimum"
    QCheck2.Gen.(
      list_size (int_range 1 8)
        (pair (int_range 50 600) (float_range 0. 50.)))
    (fun specs ->
      let tasks = frame_tasks_of specs in
      match Uni_dp.exact ~proc:cubic ~frame_length:1000. tasks with
      | Error _ -> false
      | Ok o ->
          let opt = optimal_cost o.Uni_dp.problem in
          Fc.approx_eq ~eps:1e-6 o.Uni_dp.cost opt)

let prop_uni_dp_scaled_sound =
  qtest ~count:40 "scaled DP: feasible, never below exact, exact at scale 1"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 10)
           (pair (int_range 50 600) (float_range 0.1 50.)))
        (float_range 0.05 0.5))
    (fun (specs, epsilon) ->
      let tasks = frame_tasks_of specs in
      match
        ( Uni_dp.exact ~proc:cubic ~frame_length:1000. tasks,
          Uni_dp.scaled ~epsilon ~proc:cubic ~frame_length:1000. tasks,
          (* epsilon so small the scale collapses to 1: exact again *)
          Uni_dp.scaled ~epsilon:1e-9 ~proc:cubic ~frame_length:1000. tasks )
      with
      | Ok e, Ok s, Ok s1 ->
          Solution.validate s.Uni_dp.problem s.Uni_dp.solution = Ok ()
          && Fc.geq ~eps:1e-9 s.Uni_dp.cost e.Uni_dp.cost
          && Fc.approx_eq ~eps:1e-9 s1.Uni_dp.cost e.Uni_dp.cost
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Hardness gadgets *)

let test_partition_gadget_yes_instance () =
  (* {3,3,2,2,2}: perfect split 6/6 exists *)
  match Hardness.partition_gadget [ 3; 3; 2; 2; 2 ] with
  | Error e -> Alcotest.fail e
  | Ok g ->
      let opt = optimal_cost g.Hardness.problem in
      (match g.Hardness.all_accepted_cost with
      | Some c -> check_float 1e-6 "optimum = balanced accept-all" c opt
      | None -> Alcotest.fail "expected a perfect cost")

let test_partition_gadget_no_instance () =
  (* {3,1}: sum 4, B=2, but 3 > 2 cannot fit: rejection forced *)
  match Hardness.partition_gadget [ 3; 1 ] with
  | Error e -> Alcotest.fail e
  | Ok g ->
      let opt = optimal_cost g.Hardness.problem in
      (match g.Hardness.all_accepted_cost with
      | Some c -> check_bool "optimum strictly above perfect" true (opt > c +. 1.)
      | None -> Alcotest.fail "expected a perfect cost")

let test_partition_gadget_validation () =
  check_bool "odd sum" true (Result.is_error (Hardness.partition_gadget [ 1; 2 ]));
  check_bool "empty" true (Result.is_error (Hardness.partition_gadget []));
  check_bool "non-positive" true
    (Result.is_error (Hardness.partition_gadget [ 2; -2; 2; 2 ]))

let test_knapsack_gadget_is_knapsack () =
  (* optimal rejects exactly the min-penalty set that frees enough room *)
  match
    Hardness.knapsack_gadget ~capacity:10
      [ (6, 3.); (5, 2.); (5, 1.) ]
  with
  | Error e -> Alcotest.fail e
  | Ok g ->
      let opt = optimal_cost g.Hardness.problem in
      (* best: accept 5+5 (reject the 6, penalty 3)? or accept 6 (reject
         both 5s, penalty 3)? or accept 6+... 6+5 = 11 > 10. Optimal = 3
         either way; energy is negligible. *)
      check_float 1e-3 "knapsack optimum" 3. opt

let () =
  Alcotest.run "rt_core"
    [
      ( "problem_solution",
        [
          Alcotest.test_case "problem validation" `Quick test_problem_make_validation;
          Alcotest.test_case "of_frame" `Quick test_problem_of_frame;
          Alcotest.test_case "of_periodic" `Quick test_problem_of_periodic;
          Alcotest.test_case "of_periodic hyper-period overflow" `Quick
            test_problem_of_periodic_overflow;
          Alcotest.test_case "cost and validate" `Quick
            test_solution_cost_and_validate;
          Alcotest.test_case "overload caught" `Quick test_solution_overload_caught;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "simple lower bound" `Quick test_lower_bound_simple;
          prop_lower_bound_sound;
          Alcotest.test_case "fractional rejection extremes" `Quick
            test_min_rejected_penalty_extremes;
        ] );
      ( "greedy",
        [
          Alcotest.test_case "light load accepts all" `Quick
            test_greedy_feasible_accepts_all;
          Alcotest.test_case "overload forces rejection" `Quick
            test_greedy_overload_forces_rejection;
          Alcotest.test_case "marginal rejects unprofitable" `Quick
            test_marginal_rejects_unprofitable;
          Alcotest.test_case "density trims" `Quick test_density_trims;
          prop_all_algorithms_valid;
          prop_local_search_never_hurts;
          prop_local_search_converges_as_loads_grow;
          prop_drift_renormalizes_exactly;
          prop_item_lookup_matches_list_scan;
          Alcotest.test_case "budgeted local search" `Quick
            test_local_search_budgeted;
          prop_heuristics_above_optimal;
          Alcotest.test_case "random baseline valid" `Quick test_random_reject_valid;
          Alcotest.test_case "best_of" `Quick test_best_of;
        ] );
      ("exact", [ prop_exhaustive_equals_bnb ]);
      ( "uni_dp",
        [
          Alcotest.test_case "simple accept-all" `Quick test_uni_dp_simple;
          Alcotest.test_case "prefers cheap rejection" `Quick
            test_uni_dp_prefers_cheap_rejection;
          prop_uni_dp_matches_exhaustive;
          prop_uni_dp_scaled_sound;
        ] );
      ( "hardness",
        [
          Alcotest.test_case "partition yes-instance" `Quick
            test_partition_gadget_yes_instance;
          Alcotest.test_case "partition no-instance" `Quick
            test_partition_gadget_no_instance;
          Alcotest.test_case "gadget validation" `Quick
            test_partition_gadget_validation;
          Alcotest.test_case "knapsack gadget" `Quick test_knapsack_gadget_is_knapsack;
        ] );
    ]
