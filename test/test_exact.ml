(* Tests for rt_exact: subset enumeration, the exact search (full
   enumeration and branch-and-bound), and the knapsack DP. *)

open Rt_task
module Fc = Rt_prelude.Float_cmp

let check_float eps = Alcotest.(check (float eps))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let items_of specs =
  List.mapi (fun id (w, p) -> Task.item ~penalty:p ~id ~weight:w ()) specs

(* a simple convex bucket cost: energy of sustaining the load, cubic model *)
let cubic_cost load = load ** 3.

(* ------------------------------------------------------------------ *)
(* Subsets *)

let test_subsets_count () =
  check_int "2^3" 8 (Rt_exact.Subsets.count [ 1; 2; 3 ]);
  let seen = ref 0 in
  Rt_exact.Subsets.iter [ 1; 2 ] (fun _ -> incr seen);
  check_int "iterates all" 4 !seen

let test_subsets_partition_property () =
  Rt_exact.Subsets.iter [ 1; 2; 3; 4 ] (fun (chosen, rest) ->
      check_int "parts cover" 4 (List.length chosen + List.length rest);
      Alcotest.(check (list int))
        "order preserved"
        (List.sort compare (chosen @ rest))
        [ 1; 2; 3; 4 ])

let test_subsets_guard () =
  match Rt_exact.Subsets.count (List.init 31 Fun.id) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "should refuse 31 elements"

(* ------------------------------------------------------------------ *)
(* Search *)

let solve ?split_factor ?node_budget ?time_budget ?prune ~m items =
  Rt_exact.Search.solve ?split_factor ?node_budget ?time_budget ?prune ~m
    ~capacity:1. ~bucket_cost:cubic_cost items

let solve_ok ?node_budget ?time_budget ?prune ~m items =
  match solve ?node_budget ?time_budget ?prune ~m items with
  | Ok a -> a
  | Error e -> Alcotest.failf "unexpected error: %s" e

(* the optimum by full enumeration and by branch-and-bound *)
let enumerate ~m items = (solve_ok ~prune:false ~m items).Rt_exact.Search.best
let bnb ~m items = (solve_ok ~m items).Rt_exact.Search.best

let test_exhaustive_trivial () =
  (* one small item, huge penalty: accept it *)
  let items = items_of [ (0.5, 100.) ] in
  let s = enumerate ~m:2 items in
  check_int "accepted" 1 (Rt_partition.Partition.size s.Rt_exact.Search.partition);
  check_float 1e-9 "cost is its energy" (0.5 ** 3.) s.Rt_exact.Search.cost

let test_exhaustive_prefers_rejection () =
  (* penalty below the energy of running: reject *)
  let items = items_of [ (1.0, 0.1) ] in
  let s = enumerate ~m:1 items in
  check_int "rejected" 1 (List.length s.Rt_exact.Search.rejected);
  check_float 1e-12 "cost is the penalty" 0.1 s.Rt_exact.Search.cost

let test_forced_rejection_oversize () =
  let items = items_of [ (2.0, 5.) ] in
  let s = enumerate ~m:3 items in
  check_int "oversize rejected" 1 (List.length s.Rt_exact.Search.rejected);
  check_float 1e-12 "pays the penalty" 5. s.Rt_exact.Search.cost

let test_exhaustive_balances () =
  (* two items, huge penalties: convexity wants them on separate processors *)
  let items = items_of [ (0.8, 100.); (0.8, 100.) ] in
  let s = enumerate ~m:2 items in
  check_float 1e-9 "one per processor" (2. *. (0.8 ** 3.)) s.Rt_exact.Search.cost

let prop_bnb_matches_exhaustive =
  qtest ~count:60 "branch-and-bound finds the exhaustive optimum"
    QCheck2.Gen.(
      pair (int_range 1 3)
        (list_size (int_range 1 7)
           (pair (float_range 0.1 1.2) (float_range 0. 1.))))
    (fun (m, specs) ->
      let items = items_of specs in
      let a = enumerate ~m items in
      let b = bnb ~m items in
      Fc.approx_eq ~eps:1e-9 a.Rt_exact.Search.cost b.Rt_exact.Search.cost)

let prop_search_solution_consistent =
  qtest ~count:60 "search output: capacity respected, cost re-derivable"
    QCheck2.Gen.(
      list_size (int_range 1 7) (pair (float_range 0.1 1.2) (float_range 0. 1.)))
    (fun specs ->
      let items = items_of specs in
      let s = bnb ~m:2 items in
      let loads = Rt_partition.Partition.loads s.Rt_exact.Search.partition in
      let energy = Array.fold_left (fun acc l -> acc +. cubic_cost l) 0. loads in
      let penalty = Taskset.total_penalty_items s.Rt_exact.Search.rejected in
      Array.for_all (fun l -> Fc.leq ~eps:1e-9 l 1.) loads
      && Fc.approx_eq ~eps:1e-9 (energy +. penalty) s.Rt_exact.Search.cost)

let test_node_limit () =
  (* running out of nodes is a result, not an exception: the search
     stops at the first node past the budget *)
  let items =
    items_of (List.init 14 (fun i -> (0.1 +. (0.01 *. float_of_int i), 0.5)))
  in
  let a = solve_ok ~node_budget:10 ~m:3 items in
  check_bool "exhausted" true a.Rt_exact.Search.exhausted;
  check_int "stopped at the 11th node" 11 a.Rt_exact.Search.nodes

(* ------------------------------------------------------------------ *)
(* Anytime (budgeted) search *)

let test_budgeted_zero_budget_seed () =
  (* even a zero node budget returns the all-reject incumbent, typed
     exhausted rather than raising *)
  let items = items_of [ (0.5, 1.); (0.4, 2.) ] in
  let a = solve_ok ~node_budget:0 ~m:2 items in
  check_bool "exhausted" true a.Rt_exact.Search.exhausted;
  let b = a.Rt_exact.Search.best in
  check_int "all rejected" 2 (List.length b.Rt_exact.Search.rejected);
  check_float 1e-12 "cost = total penalty" 3. b.Rt_exact.Search.cost

let test_budgeted_completes_matches_optimum () =
  let items = items_of [ (0.8, 100.); (0.8, 100.); (0.3, 0.01) ] in
  let opt = bnb ~m:2 items in
  let a = solve_ok ~node_budget:1_000_000 ~m:2 items in
  check_bool "not exhausted" false a.Rt_exact.Search.exhausted;
  check_float 1e-12 "matches branch-and-bound"
    opt.Rt_exact.Search.cost a.Rt_exact.Search.best.Rt_exact.Search.cost;
  let a = solve_ok ~prune:false ~m:2 items in
  check_bool "exhaustive not exhausted" false a.Rt_exact.Search.exhausted;
  check_float 1e-12 "exhaustive matches too"
    opt.Rt_exact.Search.cost a.Rt_exact.Search.best.Rt_exact.Search.cost

let test_budgeted_hardness_anytime () =
  (* acceptance criterion: on a hardness instance a tiny node budget must
     come back exhausted with a valid best-so-far whose cost still sits
     above the convex pooled lower bound *)
  let gadget =
    match
      Rt_core.Hardness.partition_gadget
        [ 7; 9; 11; 13; 15; 17; 19; 21; 23; 25; 27; 29 ]
    with
    | Ok g -> g
    | Error e -> Alcotest.failf "gadget: %s" e
  in
  let p = gadget.Rt_core.Hardness.problem in
  match Rt_core.Exact.branch_and_bound_budgeted ~node_budget:50 p with
  | Error e -> Alcotest.failf "budgeted: %s" e
  | Ok r ->
      check_bool "exhausted" true r.Rt_core.Exact.exhausted;
      check_bool "visited more nodes than the budget allows incumbents for"
        true (r.Rt_core.Exact.nodes > 50);
      (match Rt_core.Solution.validate p r.Rt_core.Exact.solution with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid incumbent: %s" e);
      check_bool "incumbent cost >= lower bound" true
        (r.Rt_core.Exact.cost >= Rt_core.Bounds.lower_bound p -. 1e-9)

let test_budgeted_time_budget () =
  (* an already-expired time budget stops the search at the next clock
     poll (every 1024 nodes), so a big instance must come back exhausted
     with an incumbent no worse than all-reject *)
  let items =
    items_of (List.init 18 (fun i -> (0.1 +. (0.01 *. float_of_int i), 0.5)))
  in
  let all_reject = Rt_task.Taskset.total_penalty_items items in
  let a = solve_ok ~time_budget:0. ~m:3 items in
  check_bool "exhausted" true a.Rt_exact.Search.exhausted;
  check_bool "incumbent no worse than all-reject" true
    (Fc.leq ~eps:1e-12 a.Rt_exact.Search.best.Rt_exact.Search.cost all_reject)

let test_budgeted_bad_args () =
  let items = items_of [ (0.5, 1.) ] in
  check_bool "m < 1 is a typed error" true
    (Result.is_error (solve ~m:0 items));
  check_bool "capacity <= 0 is a typed error" true
    (Result.is_error
       (Rt_exact.Search.solve ~prune:false ~m:2 ~capacity:0.
          ~bucket_cost:cubic_cost items))

let test_split_factor_below_one () =
  let items = items_of [ (0.5, 1.) ] in
  List.iter
    (fun split_factor ->
      check_bool
        (Printf.sprintf "split factor %d is a typed error" split_factor)
        true
        (Result.is_error (solve ~split_factor ~m:2 items)))
    [ 0; -7 ];
  check_bool "split factor 1 runs" true
    (Result.is_ok (solve ~split_factor:1 ~m:2 items))

let test_negative_node_budget () =
  let items = items_of [ (0.5, 1.) ] in
  check_bool "node budget -1 is a typed error" true
    (Result.is_error (solve ~node_budget:(-1) ~m:2 items));
  match
    Rt_core.Problem.make ~proc:(Rt_power.Processor.cubic ()) ~m:2 ~horizon:1.
      items
  with
  | Error e -> Alcotest.failf "problem: %s" e
  | Ok p ->
      check_bool "through Exact too" true
        (Result.is_error
           (Rt_core.Exact.branch_and_bound_budgeted ~node_budget:(-1) p))

let test_enumeration_cap () =
  (* a full enumeration beyond 16 items needs a budget to be its guard *)
  let items n = items_of (List.init n (fun _ -> (0.05, 1.))) in
  check_bool "17 items, no budget: typed error" true
    (Result.is_error (solve ~prune:false ~m:1 (items 17)));
  check_bool "16 items, no budget: runs" false
    (solve_ok ~prune:false ~m:1 (items 16)).Rt_exact.Search.exhausted;
  check_bool "17 items under a node budget: runs" true
    (solve_ok ~prune:false ~node_budget:1000 ~m:1 (items 17))
      .Rt_exact.Search.exhausted;
  check_bool "branch-and-bound has no cap" false
    (solve_ok ~m:1 (items 17)).Rt_exact.Search.exhausted

(* ------------------------------------------------------------------ *)
(* Knapsack *)

let linear_cost w = 0.001 *. float_of_int w

let test_knapsack_accepts_under_capacity () =
  (* all fit, penalties dominate the tiny energy: accept everything *)
  let c = Rt_exact.Knapsack.solve ~capacity:100 ~cycles:[| 30; 40 |]
      ~penalties:[| 10.; 10. |] ~accept_cost:linear_cost
  in
  check_bool "all accepted" true (Array.for_all Fun.id c.Rt_exact.Knapsack.accepted);
  check_int "total" 70 c.Rt_exact.Knapsack.total_cycles

let test_knapsack_picks_best_subset () =
  (* capacity forces a choice: keep the high-penalty item *)
  let c =
    Rt_exact.Knapsack.solve ~capacity:50 ~cycles:[| 40; 40 |]
      ~penalties:[| 1.; 9. |] ~accept_cost:linear_cost
  in
  check_bool "keeps the expensive-to-drop item" true
    ((not c.Rt_exact.Knapsack.accepted.(0)) && c.Rt_exact.Knapsack.accepted.(1));
  check_float 1e-9 "cost = drop(0) + energy(40)" (1. +. 0.04)
    c.Rt_exact.Knapsack.cost

let test_knapsack_rejects_when_energy_dominates () =
  let expensive w = 100. *. float_of_int w in
  let c =
    Rt_exact.Knapsack.solve ~capacity:100 ~cycles:[| 10 |] ~penalties:[| 5. |]
      ~accept_cost:expensive
  in
  check_bool "rejected" true (not c.Rt_exact.Knapsack.accepted.(0));
  check_float 1e-12 "cost = penalty" 5. c.Rt_exact.Knapsack.cost

let brute_force_knapsack ~capacity ~cycles ~penalties ~accept_cost =
  let n = Array.length cycles in
  let best = ref Float.infinity in
  for mask = 0 to (1 lsl n) - 1 do
    let w = ref 0 and pen = ref 0. in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then w := !w + cycles.(i)
      else pen := !pen +. penalties.(i)
    done;
    if !w <= capacity then best := Float.min !best (accept_cost !w +. !pen)
  done;
  !best

let prop_knapsack_matches_brute_force =
  qtest ~count:80 "DP equals subset brute force (convex accept cost)"
    QCheck2.Gen.(
      list_size (int_range 1 8) (pair (int_range 1 40) (float_range 0. 2.)))
    (fun specs ->
      let cycles = Array.of_list (List.map fst specs) in
      let penalties = Array.of_list (List.map snd specs) in
      let capacity = 80 in
      let accept_cost w = (float_of_int w /. 80.) ** 3. in
      let c =
        Rt_exact.Knapsack.solve ~capacity ~cycles ~penalties ~accept_cost
      in
      let bf = brute_force_knapsack ~capacity ~cycles ~penalties ~accept_cost in
      Fc.approx_eq ~eps:1e-9 c.Rt_exact.Knapsack.cost bf)

let prop_knapsack_choice_consistent =
  qtest ~count:80 "reported cost matches the reconstructed accept set"
    QCheck2.Gen.(
      list_size (int_range 1 10) (pair (int_range 1 30) (float_range 0. 2.)))
    (fun specs ->
      let cycles = Array.of_list (List.map fst specs) in
      let penalties = Array.of_list (List.map snd specs) in
      let capacity = 60 in
      let accept_cost w = 0.01 *. float_of_int w in
      let c = Rt_exact.Knapsack.solve ~capacity ~cycles ~penalties ~accept_cost in
      let w = ref 0 and pen = ref 0. in
      Array.iteri
        (fun i acc ->
          if acc then w := !w + cycles.(i) else pen := !pen +. penalties.(i))
        c.Rt_exact.Knapsack.accepted;
      !w = c.Rt_exact.Knapsack.total_cycles
      && !w <= capacity
      && Fc.approx_eq ~eps:1e-9
           (accept_cost !w +. !pen)
           c.Rt_exact.Knapsack.cost)

let prop_scaled_feasible_and_bounded =
  qtest ~count:60 "scaled DP stays feasible and within the documented gap"
    QCheck2.Gen.(
      pair (int_range 2 8)
        (list_size (int_range 1 8) (pair (int_range 5 50) (float_range 0. 3.))))
    (fun (scale, specs) ->
      let cycles = Array.of_list (List.map fst specs) in
      let penalties = Array.of_list (List.map snd specs) in
      let capacity = 100 in
      let accept_cost w = (float_of_int w /. 100.) ** 3. in
      let exact = Rt_exact.Knapsack.solve ~capacity ~cycles ~penalties ~accept_cost in
      let scaled =
        Rt_exact.Knapsack.solve_scaled ~scale ~capacity ~cycles ~penalties
          ~accept_cost
      in
      let w = ref 0 in
      Array.iteri
        (fun i acc -> if acc then w := !w + cycles.(i))
        scaled.Rt_exact.Knapsack.accepted;
      (* feasibility is unconditional; optimality degrades gracefully *)
      !w <= capacity && scaled.Rt_exact.Knapsack.cost >= exact.Rt_exact.Knapsack.cost -. 1e-9)

let test_scale_for_epsilon () =
  let s = Rt_exact.Knapsack.scale_for_epsilon ~epsilon:0.5 ~cycles:[| 1000; 200 |] in
  check_int "eps·cmax/n" 250 s;
  check_int "never below 1" 1
    (Rt_exact.Knapsack.scale_for_epsilon ~epsilon:0.001 ~cycles:[| 10 |])

let () =
  Alcotest.run "rt_exact"
    [
      ( "subsets",
        [
          Alcotest.test_case "count" `Quick test_subsets_count;
          Alcotest.test_case "partition property" `Quick
            test_subsets_partition_property;
          Alcotest.test_case "length guard" `Quick test_subsets_guard;
        ] );
      ( "search",
        [
          Alcotest.test_case "accepts worthwhile item" `Quick test_exhaustive_trivial;
          Alcotest.test_case "rejects costly item" `Quick
            test_exhaustive_prefers_rejection;
          Alcotest.test_case "oversize forced out" `Quick
            test_forced_rejection_oversize;
          Alcotest.test_case "balances across processors" `Quick
            test_exhaustive_balances;
          prop_bnb_matches_exhaustive;
          prop_search_solution_consistent;
          Alcotest.test_case "node limit" `Quick test_node_limit;
        ] );
      ( "anytime",
        [
          Alcotest.test_case "zero budget returns the seed" `Quick
            test_budgeted_zero_budget_seed;
          Alcotest.test_case "generous budget completes" `Quick
            test_budgeted_completes_matches_optimum;
          Alcotest.test_case "hardness instance, tiny budget" `Quick
            test_budgeted_hardness_anytime;
          Alcotest.test_case "expired time budget" `Quick
            test_budgeted_time_budget;
          Alcotest.test_case "bad arguments are typed errors" `Quick
            test_budgeted_bad_args;
          Alcotest.test_case "split factor below 1 is a typed error" `Quick
            test_split_factor_below_one;
          Alcotest.test_case "negative node budget is a typed error" `Quick
            test_negative_node_budget;
          Alcotest.test_case "full enumeration over 16 items needs a budget"
            `Quick test_enumeration_cap;
        ] );
      ( "knapsack",
        [
          Alcotest.test_case "accepts under capacity" `Quick
            test_knapsack_accepts_under_capacity;
          Alcotest.test_case "picks best subset" `Quick test_knapsack_picks_best_subset;
          Alcotest.test_case "rejects when energy dominates" `Quick
            test_knapsack_rejects_when_energy_dominates;
          prop_knapsack_matches_brute_force;
          prop_knapsack_choice_consistent;
          prop_scaled_feasible_and_bounded;
          Alcotest.test_case "scale for epsilon" `Quick test_scale_for_epsilon;
        ] );
    ]
