(* Tests for rt_exact: subset enumeration, the exact search (full
   enumeration and branch-and-bound), and the knapsack DP. *)

open Rt_task
module Fc = Rt_prelude.Float_cmp

let check_float eps = Alcotest.(check (float eps))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 100) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

let items_of specs =
  List.mapi (fun id (w, p) -> Task.item ~penalty:p ~id ~weight:w ()) specs

(* a simple convex bucket cost: energy of sustaining the load, cubic model *)
let cubic_cost load = load ** 3.

(* ------------------------------------------------------------------ *)
(* Subsets *)

let test_subsets_count () =
  let count xs =
    let seen = ref 0 in
    Rt_exact.Subsets.iter xs (fun _ -> incr seen);
    !seen
  in
  check_int "2^3" 8 (count [ 1; 2; 3 ]);
  check_int "iterates all" 4 (count [ 1; 2 ])

let test_subsets_partition_property () =
  Rt_exact.Subsets.iter [ 1; 2; 3; 4 ] (fun (chosen, rest) ->
      check_int "parts cover" 4 (List.length chosen + List.length rest);
      Alcotest.(check (list int))
        "order preserved"
        (List.sort compare (chosen @ rest))
        [ 1; 2; 3; 4 ])

let test_subsets_guard () =
  match Rt_exact.Subsets.iter (List.init 31 Fun.id) ignore with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "should refuse 31 elements"

(* ------------------------------------------------------------------ *)
(* Search *)

let solve ?node_budget ?time_budget ?prune ~m items =
  Rt_exact.Search.solve ?node_budget ?time_budget ?prune ~m ~capacity:1.
    ~bucket_cost:cubic_cost items

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

(* Past the deadline a pooled run drops every popped unit unrun — the
   root included — so it returns the all-reject seed, byte for byte the
   one a zero-node sequential run returns, having visited nothing. *)
let test_pool_expired_deadline () =
  let items =
    items_of (List.init 18 (fun i -> (0.1 +. (0.01 *. float_of_int i), 0.5)))
  in
  let bytes (a : Rt_exact.Search.anytime) =
    Marshal.to_string a.best [ Marshal.No_sharing ]
  in
  let seed = bytes (solve_ok ~node_budget:0 ~m:3 items) in
  List.iter
    (fun domains ->
      Rt_parallel.Pool.with_pool ~domains (fun pool ->
          match
            Rt_exact.Search.solve ~pool ~time_budget:0. ~m:3 ~capacity:1.
              ~bucket_cost:cubic_cost items
          with
          | Error e -> Alcotest.fail e
          | Ok a ->
              let tag = Printf.sprintf "%d domains" domains in
              check_bool (tag ^ ": exhausted") true a.exhausted;
              check_int (tag ^ ": nodes") 0 a.nodes;
              check_int (tag ^ ": units run") 0 a.stats.subtrees;
              check_int (tag ^ ": splits") 0 a.stats.splits;
              check_bool (tag ^ ": the all-reject seed") true
                (String.equal seed (bytes a))))
    [ 1; 2; 4 ]

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
(* Incremental pricing against the re-pricing reference *)

(* The sequential search as it was before bucket energies were carried:
   every node re-prices all m buckets, and the DFS conses bucket and
   rejection lists as it goes. Same item order, seed, visit order, bound
   and tie-breaking as [Search.solve] without a pool; the seed's [+. 0.]
   is the root's committed penalty. *)
let reference_solve ?node_budget ?(prune = true) ~m ~capacity ~bucket_cost
    items =
  let forced, placeable =
    List.partition (fun (it : Task.item) -> Fc.gt it.weight capacity) items
  in
  let forced_penalty = Taskset.total_penalty_items forced in
  let arr = Array.of_list (List.sort Task.compare_item_weight_desc placeable) in
  let n = Array.length arr in
  let loads = Array.make m 0. in
  let buckets = Array.make m [] in
  let rejected = ref [] in
  let nodes = ref 0 in
  let stopped = ref false in
  let stop k = match node_budget with Some b -> k > b | None -> false in
  let buckets_cost () =
    let acc = ref 0. in
    for j = 0 to m - 1 do
      acc := !acc +. bucket_cost loads.(j)
    done;
    !acc
  in
  let best_cost =
    ref
      (buckets_cost () +. 0.
      +. Array.fold_left
           (fun acc (it : Task.item) -> acc +. it.item_penalty)
           0. arr
      +. forced_penalty)
  in
  let best = ref (Array.map List.rev buckets, Array.to_list arr) in
  let rec go i used penalty_so_far =
    if not !stopped then begin
      incr nodes;
      if stop !nodes then stopped := true
      else if i = n then begin
        let cost = buckets_cost () +. penalty_so_far +. forced_penalty in
        if Fc.exact_lt cost !best_cost then begin
          best_cost := cost;
          best := (Array.map List.rev buckets, !rejected)
        end
      end
      else begin
        let bound = buckets_cost () +. penalty_so_far +. forced_penalty in
        if (not prune) || Fc.exact_lt bound !best_cost then begin
          let it = arr.(i) in
          for j = 0 to min (m - 1) used do
            let before = loads.(j) in
            if Fc.leq (before +. it.weight) capacity then begin
              let bucket = buckets.(j) in
              loads.(j) <- before +. it.weight;
              buckets.(j) <- it :: bucket;
              go (i + 1) (max used (j + 1)) penalty_so_far;
              buckets.(j) <- bucket;
              loads.(j) <- before
            end
          done;
          let rej = !rejected in
          rejected := it :: rej;
          go (i + 1) used (penalty_so_far +. it.item_penalty);
          rejected := rej
        end
      end
    end
  in
  go 0 0 0.;
  let bs, rej = !best in
  (bs, rej @ forced, !best_cost, !nodes, !stopped)

(* partition buckets, rejected list, cost bits, nodes, exhausted *)
let outcome_bytes (bs, rej, cost, nodes, exhausted) =
  Marshal.to_string
    (bs, rej, Int64.bits_of_float cost, nodes, exhausted)
    [ Marshal.No_sharing ]

let search_outcome (a : Rt_exact.Search.anytime) =
  let p = a.best.partition in
  ( Array.init (Rt_partition.Partition.m p) (Rt_partition.Partition.bucket p),
    a.best.rejected,
    a.best.cost,
    a.nodes,
    a.exhausted )

(* (name, capacity, bucket_cost): the cubic model, and the prepared
   energy evaluators behind [Problem.bucket_energy] on an ideal and a
   levels processor *)
let cost_models =
  let prepared name proc =
    ( name,
      Rt_power.Processor.s_max proc,
      Rt_speed.Energy_rate.prepare_energy proc ~horizon:1. )
  in
  [|
    ("cubic", 1., cubic_cost);
    prepared "xscale"
      (Rt_power.Processor.xscale
         ~dormancy:
           (Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. }));
    prepared "levels"
      (Rt_power.Processor.xscale_levels
         ~dormancy:Rt_power.Processor.Dormant_disable);
  |]

type case = {
  model : int;  (** index into [cost_models] *)
  m : int;
  specs : (float * float) list;
  budget : int option;
  full : bool;  (** [~prune:false] *)
}

let gen_case =
  QCheck2.Gen.(
    let* model = int_range 0 2 in
    let* m = int_range 1 4 in
    let* n = int_range 1 14 in
    let* specs =
      list_repeat n (pair (float_range 0.02 0.7) (float_range 0. 1.5))
    in
    let* budget =
      oneof
        [
          pure None; pure (Some 0); pure (Some 1); pure (Some 50);
          map Option.some (int_range 0 3000);
        ]
    in
    let* full = if n <= 10 then bool else pure false in
    pure { model; m; specs; budget; full })

let print_case c =
  let name, _, _ = cost_models.(c.model) in
  Printf.sprintf "%s m %d budget %s prune %b items [%s]" name c.m
    (match c.budget with Some b -> string_of_int b | None -> "none")
    (not c.full)
    (String.concat "; "
       (List.map (fun (w, p) -> Printf.sprintf "(%h, %h)" w p) c.specs))

let reference_of c =
  let _, capacity, bucket_cost = cost_models.(c.model) in
  reference_solve ?node_budget:c.budget ~prune:(not c.full) ~m:c.m ~capacity
    ~bucket_cost (items_of c.specs)

let solve_case ?pool c =
  let _, capacity, bucket_cost = cost_models.(c.model) in
  match
    Rt_exact.Search.solve ?pool ?node_budget:c.budget ~prune:(not c.full)
      ~m:c.m ~capacity ~bucket_cost (items_of c.specs)
  with
  | Ok a -> a
  | Error e -> failwith e

let matches_reference c =
  String.equal
    (outcome_bytes (search_outcome (solve_case c)))
    (outcome_bytes (reference_of c))

let prop_matches_reference =
  qtest ~count:300 "incremental pricing matches the re-pricing reference"
    ~print:print_case gen_case matches_reference

(* The same property with the cases spread over a shared 2-domain pool,
   two searches running at once; then each case (budget dropped) through
   the work-stealing search on that pool, which must return the
   sequential run's buckets, rejected list and cost bits. A pooled run's
   node count depends on the schedule, so it is compared only where it
   is fixed: full enumeration visits the sequential count, split between
   run units and spine nodes. *)
let test_matches_reference_on_pool () =
  let cases =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 23 |]) ~n:300 gen_case
  in
  Rt_parallel.Pool.with_pool ~domains:2 (fun pool ->
      List.iter2
        (fun c ok ->
          if not ok then Alcotest.failf "on a pool domain: %s" (print_case c))
        cases
        (Rt_parallel.Pool.map ~pool matches_reference cases);
      List.iter
        (fun c ->
          let c = { c with budget = None } in
          let a = solve_case ~pool c in
          let bs, rej, cost, nodes, _ = reference_of c in
          let pbs, prej, pcost, pnodes, pexhausted = search_outcome a in
          let tag = print_case c in
          check_bool (tag ^ ": completed") false pexhausted;
          check_bool (tag ^ ": buckets, rejected list and cost bits") true
            (String.equal
               (outcome_bytes (bs, rej, cost, 0, false))
               (outcome_bytes (pbs, prej, pcost, 0, false)));
          if c.full then
            check_int (tag ^ ": nodes") nodes
              (pnodes + a.stats.Rt_exact.Search.splits))
        cases)

(* Pooled against sequential on instances built for ties: few distinct
   weights and penalties (zero included) on half the cases, and bucket
   costs that are flat over whole load ranges. Equal-cost leaves are
   then common, and the pooled search must keep the one the sequential
   search keeps — the first in depth-first order, or the all-reject
   seed unless a leaf beats it strictly — at every pool size. *)
let tie_costs =
  [|
    ("cubic", cubic_cost);
    ("affine-quadratic", fun load -> 0.05 +. (0.5 *. load) +. (load *. load));
    ("step", fun load -> Float.round (4. *. load));
  |]

(* (index into [tie_costs], m, item specs) *)
let gen_tie_case =
  QCheck2.Gen.(
    let* model = int_range 0 2 in
    let* m = int_range 1 4 in
    let* n = int_range 1 11 in
    let* coarse = bool in
    let spec =
      if coarse then
        pair
          (map (fun k -> 0.1 *. float_of_int k) (int_range 1 5))
          (map (fun k -> 0.05 *. float_of_int k) (int_range 0 3))
      else pair (float_range 0.02 0.7) (float_range 0. 1.5)
    in
    let* specs = list_repeat n spec in
    pure (model, m, specs))

let print_tie_case (model, m, specs) =
  Printf.sprintf "%s m %d items [%s]"
    (fst tie_costs.(model))
    m
    (String.concat "; "
       (List.map (fun (w, p) -> Printf.sprintf "(%h, %h)" w p) specs))

let tie_best ?pool ((model, m, specs) as c) =
  match
    Rt_exact.Search.solve ?pool ~m ~capacity:1.
      ~bucket_cost:(snd tie_costs.(model))
      (items_of specs)
  with
  | Ok a ->
      if a.Rt_exact.Search.exhausted then
        Alcotest.failf "%s: exhausted" (print_tie_case c);
      Marshal.to_string a.Rt_exact.Search.best [ Marshal.No_sharing ]
  | Error e -> Alcotest.failf "%s: %s" (print_tie_case c) e

let test_pool_ties_match_sequential () =
  let cases =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 29 |]) ~n:300
      gen_tie_case
  in
  let references = List.map (fun c -> tie_best c) cases in
  List.iter
    (fun domains ->
      Rt_parallel.Pool.with_pool ~domains (fun pool ->
          List.iter2
            (fun c reference ->
              check_bool
                (Printf.sprintf "%d domains: %s" domains (print_tie_case c))
                true
                (String.equal reference (tie_best ~pool c)))
            cases references))
    [ 1; 2; 4 ]

(* Rejecting everything is optimal here, and every rejected order costs
   the same: the answer is the all-reject seed, which lists the items in
   decision order, at every pool size. *)
let test_pool_all_reject_order () =
  let items = items_of (List.init 5 (fun _ -> (0.04, 0.))) in
  let rejected_ids ?pool () =
    match
      Rt_exact.Search.solve ?pool ~m:1 ~capacity:1. ~bucket_cost:cubic_cost
        items
    with
    | Ok a ->
        List.map (fun (it : Task.item) -> it.item_id) a.best.rejected
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list int)) "sequential" [ 0; 1; 2; 3; 4 ] (rejected_ids ());
  List.iter
    (fun domains ->
      Rt_parallel.Pool.with_pool ~domains (fun pool ->
          Alcotest.(check (list int))
            (Printf.sprintf "%d domains" domains)
            [ 0; 1; 2; 3; 4 ] (rejected_ids ~pool ())))
    [ 1; 2; 4 ]

(* One energy evaluation per placement: m for the root's buckets, then
   at most one per node visited (a rejection child evaluates nothing) —
   also when a node budget stops the search. *)
let test_bucket_cost_calls () =
  let rng = Rt_prelude.Rng.create ~seed:17 in
  List.iter
    (fun (m, n, budget) ->
      let items =
        items_of
          (List.init n (fun _ ->
               ( Rt_prelude.Rng.float rng ~lo:0.05 ~hi:0.9,
                 Rt_prelude.Rng.float rng ~lo:0. ~hi:1. )))
      in
      let calls = ref 0 in
      let bucket_cost load =
        incr calls;
        cubic_cost load
      in
      match
        Rt_exact.Search.solve ?node_budget:budget ~m ~capacity:1. ~bucket_cost
          items
      with
      | Error e -> Alcotest.fail e
      | Ok a ->
          let tag =
            Printf.sprintf "m %d n %d: %d calls, %d nodes" m n !calls
              a.Rt_exact.Search.nodes
          in
          check_bool tag true (!calls <= m + a.Rt_exact.Search.nodes))
    [
      (1, 8, None); (2, 10, None); (3, 12, None); (4, 12, None);
      (3, 12, Some 0); (3, 12, Some 1); (3, 12, Some 50); (4, 14, Some 777);
    ]

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
          prop_matches_reference;
          Alcotest.test_case "matches the reference on a pool" `Quick
            test_matches_reference_on_pool;
          Alcotest.test_case "pooled ties match sequential" `Quick
            test_pool_ties_match_sequential;
          Alcotest.test_case "pooled all-reject keeps decision order" `Quick
            test_pool_all_reject_order;
          Alcotest.test_case "one bucket_cost call per placement" `Quick
            test_bucket_cost_calls;
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
          Alcotest.test_case "negative node budget is a typed error" `Quick
            test_negative_node_budget;
          Alcotest.test_case "pooled expired deadline drops every unit" `Quick
            test_pool_expired_deadline;
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
