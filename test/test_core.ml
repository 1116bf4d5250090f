(* Tests for rt_core: problem/solution plumbing, bounds, the greedy
   rejection schedulers, local search, the exact wrappers, the
   uniprocessor DP, and the hardness gadgets. *)

open Rt_task
open Rt_core
module Fc = Rt_prelude.Float_cmp

let check_float eps = Alcotest.(check (float eps))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 80) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

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
let random_instance ?(proc = cubic) ?(penalty_factor = 1.5) ~seed ~n ~m ~load
    () =
  let rng = Rt_prelude.Rng.create ~seed in
  let tasks =
    Gen.frame_tasks_with_load rng ~n ~m
      ~s_max:(Rt_power.Processor.s_max proc)
      ~frame_length:1000. ~load
  in
  let items =
    Taskset.items_of_frames ~frame_length:1000. tasks
    |> Penalty.assign
         (Penalty.Proportional { factor = penalty_factor; jitter = 0.3 })
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

(* ------------------------------------------------------------------ *)
(* The planner's kernels against their unmemoised references *)

(* [Local_search.improve_state] as it was before its scans were
   memoised on bucket stamps: every scan re-prices every candidate, and
   the rejected items are a list. Verbatim, state helpers included. *)
module Reference_search = struct
  type state = {
    m : int;
    soa : Problem.soa;
    bidx : int array array;  (* bidx.(j).(0 .. blen.(j)-1): positions *)
    blen : int array;
    loads : float array;
    energies : float array;
    mutable rejected : Task.item list;
  }

  let push st j pos =
    let len = st.blen.(j) in
    let arr = st.bidx.(j) in
    let arr =
      if len < Array.length arr then arr
      else begin
        let bigger = Array.make (max 4 (2 * len)) 0 in
        Array.blit arr 0 bigger 0 len;
        st.bidx.(j) <- bigger;
        bigger
      end
    in
    arr.(len) <- pos;
    st.blen.(j) <- len + 1

  (* shift-remove the entry at index [i], preserving relative order (the
     list-filter removal this replaces kept order too) *)
  let remove_at st j i =
    let arr = st.bidx.(j) in
    let len = st.blen.(j) in
    Array.blit arr (i + 1) arr i (len - 1 - i);
    st.blen.(j) <- len - 1

  let state_of_solution (p : Problem.t) (s : Solution.t) =
    let soa = Problem.soa p in
    let m = Rt_partition.Partition.m s.partition in
    let position_of (it : Task.item) =
      Hashtbl.find soa.Problem.index_of it.item_id
    in
    let bidx =
      Array.init m (fun j ->
          (* bucket lists are newest first; store oldest first *)
          Array.of_list
            (List.rev_map position_of (Rt_partition.Partition.bucket s.partition j)))
    in
    let loads = Rt_partition.Partition.loads s.partition in
    {
      m;
      soa;
      bidx;
      blen = Array.map Array.length bidx;
      loads;
      energies = Array.map soa.Problem.energy loads;
      rejected = s.rejected;
    }

  (* rebuild one bucket's newest-first list representation; the conses are
     the output, not churn *)
  let rec build_bucket_list st j i acc =
    if i >= st.blen.(j) then acc
    else
      let acc =
        (* lint: allow-hot-alloc-in-loop "one cons per item of the final partition" *)
        st.soa.Problem.item_arr.(st.bidx.(j).(i)) :: acc
      in
      build_bucket_list st j (i + 1) acc

  let solution_of_state st =
    let buckets = Array.init st.m (fun j -> build_bucket_list st j 0 []) in
    {
      Solution.partition = Rt_partition.Partition.of_buckets buckets;
      rejected = st.rejected;
    }

  (* newest-first summation, the order [Partition.of_buckets] uses, so a
     renormalized state equals a from-scratch re-evaluation exactly *)
  let rec sum_bucket st j i acc =
    if i < 0 then acc
    else sum_bucket st j (i - 1) (acc +. st.soa.Problem.weights.(st.bidx.(j).(i)))

  let renormalize st =
    for j = 0 to st.m - 1 do
      let l = sum_bucket st j (st.blen.(j) - 1) 0. in
      st.loads.(j) <- l;
      st.energies.(j) <- st.soa.Problem.energy l
    done

  (* one full renormalization per this many applied moves bounds the
     accumulated float drift of the O(1) load updates *)
  let renorm_every = 4096

  (* Move loop on a pre-validated solution; returns the improved solution,
     the number of moves applied, and whether the step budget stopped the
     loop while a scan was still finding improving moves. *)
  let improve_state ~max_moves (p : Problem.t) (s : Solution.t) =
    let cap = Problem.capacity p in
    let st = state_of_solution p s in
    let soa = st.soa in
    let energy l = soa.Problem.energy l in
    let weight pos = soa.Problem.weights.(pos) in
    (* Gain tolerance. Scaled from the energy at full capacity — the upper
       bound of any bucket's energy — rather than from the maximum *initial*
       load: accept moves can grow a bucket well past the starting scale,
       and a tolerance frozen at the smaller scale goes stale (too tight
       relative to the float noise of the grown terms). One capacity-derived
       value is correct for the whole run. *)
    let eps = 1e-9 *. Float.max 1. (energy cap +. 1.) in
    let m = st.m in
    let fits l w = Rt_prelude.Float_cmp.leq (l +. w) cap in

    let apply_remove j i w =
      remove_at st j i;
      st.loads.(j) <- st.loads.(j) -. w
    in
    let apply_add j pos w =
      push st j pos;
      st.loads.(j) <- st.loads.(j) +. w
    in
    let refresh j = st.energies.(j) <- energy st.loads.(j) in

    let try_reject () =
      (* first item (buckets ascending, newest first within) whose
         rejection pays: saved marginal energy beats its penalty *)
      let rec find_bucket j i =
        if i < 0 then if j + 1 >= m then None else find_bucket (j + 1) (st.blen.(j + 1) - 1)
        else begin
          let pos = st.bidx.(j).(i) in
          if
            Fc.exact_gt
              (st.energies.(j)
              -. energy (st.loads.(j) -. weight pos)
              -. soa.Problem.penalties.(pos))
              eps
          then Some (j, i)
          else find_bucket j (i - 1)
        end
      in
      match find_bucket 0 (st.blen.(0) - 1) with
      | Some (j, i) ->
          let pos = st.bidx.(j).(i) in
          apply_remove j i (weight pos);
          refresh j;
          st.rejected <- soa.Problem.item_arr.(pos) :: st.rejected;
          true
      | None -> false
    in

    let min_load_feasible w =
      let rec scan j best_j best_l =
        if j >= m then if best_j < 0 then None else Some best_j
        else
          let l = st.loads.(j) in
          if fits l w && (best_j < 0 || not (Fc.exact_le best_l l)) then
            scan (j + 1) j l
          else scan (j + 1) best_j best_l
      in
      scan 0 (-1) 0.
    in

    let try_accept () =
      let pick =
        List.find_map
          (fun (it : Task.item) ->
            match min_load_feasible it.weight with
            | None -> None
            | Some j ->
                let marginal =
                  energy (st.loads.(j) +. it.weight) -. st.energies.(j)
                in
                if Fc.exact_gt (it.item_penalty -. marginal) eps then
                  Some (it, j)
                else None)
          st.rejected
      in
      match pick with
      | None -> false
      | Some (it, j) ->
          st.rejected <-
            List.filter
              (fun (x : Task.item) -> x.item_id <> it.item_id)
              st.rejected;
          apply_add j (Hashtbl.find soa.Problem.index_of it.item_id) it.weight;
          refresh j;
          true
    in

    (* relocation gain of moving the item at position [pos] from processor
       [j] to [k]; pure in the scan state, so the winning gain can be
       recomputed bit-for-bit instead of carried in a boxed pair *)
    let move_gain j pos k =
      st.energies.(j) +. st.energies.(k)
      -. energy (st.loads.(j) -. weight pos)
      -. energy (st.loads.(k) +. weight pos)
    in

    let try_move () =
      let rec best_dest j pos k best_k best_gain =
        if k >= m then best_k
        else if k <> j && fits st.loads.(k) (weight pos) then begin
          let gain = move_gain j pos k in
          if best_k < 0 || not (Fc.exact_ge best_gain gain) then
            best_dest j pos (k + 1) k gain
          else best_dest j pos (k + 1) best_k best_gain
        end
        else best_dest j pos (k + 1) best_k best_gain
      in
      let rec scan_items j i =
        if i < 0 then
          if j + 1 >= m then None else scan_items (j + 1) (st.blen.(j + 1) - 1)
        else begin
          let pos = st.bidx.(j).(i) in
          let k = best_dest j pos 0 (-1) 0. in
          if k >= 0 && Fc.exact_gt (move_gain j pos k) eps then Some (j, i, k)
          else scan_items j (i - 1)
        end
      in
      match scan_items 0 (st.blen.(0) - 1) with
      | Some (j, i, k) ->
          let pos = st.bidx.(j).(i) in
          let w = weight pos in
          apply_remove j i w;
          apply_add k pos w;
          refresh j;
          refresh k;
          true
      | None -> false
    in

    let try_swap () =
      (* first improving exchange, scanned in the same order as before the
         SoA pass: j < k ascending, [a] newest-first along bucket j, [b]
         newest-first along bucket k *)
      let rec over_j j = if j > m - 2 then None else over_k j (j + 1)
      and over_k j k =
        if k > m - 1 then over_j (j + 1) else scan_a j k (st.blen.(j) - 1)
      and scan_a j k ia =
        if ia < 0 then over_k j (k + 1)
        else
          match scan_b j k ia (st.blen.(k) - 1) with
          | Some _ as found -> found
          | None -> scan_a j k (ia - 1)
      and scan_b j k ia ib =
        if ib < 0 then None
        else begin
          let wa = weight st.bidx.(j).(ia) and wb = weight st.bidx.(k).(ib) in
          let lj = st.loads.(j) -. wa +. wb in
          let lk = st.loads.(k) -. wb +. wa in
          if
            Rt_prelude.Float_cmp.leq lj cap
            && Rt_prelude.Float_cmp.leq lk cap
            && Fc.exact_gt
                 (st.energies.(j) +. st.energies.(k) -. energy lj -. energy lk)
                 eps
          then Some (j, k, ia, ib)
          else scan_b j k ia (ib - 1)
        end
      in
      match over_j 0 with
      | None -> false
      | Some (j, k, ia, ib) ->
          let pa = st.bidx.(j).(ia) and pb = st.bidx.(k).(ib) in
          let wa = weight pa and wb = weight pb in
          apply_remove j ia wa;
          apply_remove k ib wb;
          apply_add j pb wb;
          apply_add k pa wa;
          refresh j;
          refresh k;
          true
    in

    let moves = ref 0 in
    let progress = ref true in
    (* lint: allow-budget-no-poll "the budget is a move count, not wall time: each applied move strictly decreases cost and a scan is O(m x items), so max_moves bounds the work" *)
    while !progress && !moves < max_moves do
      progress := try_reject () || try_accept () || try_move () || try_swap ();
      if !progress then begin
        incr moves;
        if !moves mod renorm_every = 0 then renormalize st
      end
    done;
    (* [!progress] at exit means the loop was cut off by the budget with an
       improving move just applied — convergence is not proven *)
    (solution_of_state st, !moves, !progress)
end

(* The budgeted entry's contract for a solution whose items match the
   problem: cost-check, then run. *)
let reference_improve ~max_moves p s =
  match Solution.cost p s with
  | Error msg -> Error ("Local_search.improve: " ^ msg)
  | Ok _ -> Ok (Reference_search.improve_state ~max_moves p s)

(* [Greedy.density_reject] as it was before it packed through a mask:
   each repair and trim step re-sorts the accepted list, repacks it into
   a [Partition] and prices that with [Solution.cost]. Verbatim, with the
   packing helpers it used. *)
module Reference_density = struct
  let rec feasible_scan loads m cap w j best_j best_l =
    if j >= m then best_j
    else
      let l = loads.(j) in
      if
        Rt_prelude.Float_cmp.leq (l +. w) cap
        && (best_j < 0 || not (Fc.exact_le best_l l))
      then feasible_scan loads m cap w (j + 1) j l
      else feasible_scan loads m cap w (j + 1) best_j best_l

  let pack_positions (p : Problem.t) ~accept (order : int array) =
    let s = Problem.soa p in
    let cap = Problem.capacity p in
    let m = p.m in
    let loads = Array.make m 0. in
    let buckets = Array.make m [] in
    let rejected = ref [] in
    Array.iter
      (fun i ->
        let w = s.Problem.weights.(i) in
        let j = feasible_scan loads m cap w 0 (-1) 0. in
        if j >= 0 && accept loads j i then begin
          (* lint: allow-hot-alloc-in-loop "the bucket lists are the output partition, not churn" *)
          buckets.(j) <- s.Problem.item_arr.(i) :: buckets.(j);
          loads.(j) <- loads.(j) +. w
        end
        else
          (* lint: allow-hot-alloc-in-loop "the rejection list is the output, not churn" *)
          rejected := s.Problem.item_arr.(i) :: !rejected)
      order;
    {
      Solution.partition = Rt_partition.Partition.of_buckets buckets;
      rejected = List.rev !rejected;
    }

  let positions (s : Problem.soa) = Array.init s.Problem.n (fun i -> i)

  let sort_weight_desc (s : Problem.soa) order =
    let w = s.Problem.weights in
    let ids = s.Problem.ids in
    Array.sort
      (fun a b ->
        let wa = w.(a) in
        let wb = w.(b) in
        if Fc.exact_lt wb wa then -1
        else if Fc.exact_lt wa wb then 1
        else Int.compare ids.(a) ids.(b))
      order;
    order

  let always _ _ _ = true

  let total_cost (p : Problem.t) solution =
    match Solution.cost p solution with
    | Ok c -> c.Solution.total
    | Error msg -> invalid_arg ("Greedy: internal solution invalid: " ^ msg)

  let density_asc (s : Problem.soa) a b =
    let c =
      Float.compare
        (s.Problem.penalties.(a) /. s.Problem.weights.(a))
        (s.Problem.penalties.(b) /. s.Problem.weights.(b))
    in
    if c <> 0 then c else Int.compare s.Problem.ids.(a) s.Problem.ids.(b)

  let density_reject (p : Problem.t) =
    let s = Problem.soa p in
    let cap = Problem.capacity p in
    let pack accepted =
      pack_positions p ~accept:always
        (sort_weight_desc s (Array.of_list accepted))
    in
    let items_of positions = List.map (fun i -> s.Problem.item_arr.(i)) positions in
    (* phase 1: repair to feasibility (ltf_reject already force-rejects
       overflow; we instead choose *which* item to drop by density) *)
    let rec repair accepted rejected =
      let trial = pack accepted in
      if trial.Solution.rejected = [] then (trial, rejected)
      else begin
        match List.sort (density_asc s) accepted with
        | [] -> (trial, rejected)
        | cheapest :: _ ->
            repair
              (List.filter (fun i -> i <> cheapest) accepted)
              (cheapest :: rejected)
      end
    in
    let fitting, oversize =
      List.partition
        (fun i -> Rt_prelude.Float_cmp.leq s.Problem.weights.(i) cap)
        (Array.to_list (positions s))
    in
    let packed, dropped = repair fitting oversize in
    let base =
      { packed with Solution.rejected = packed.Solution.rejected @ items_of dropped }
    in
    (* phase 2: trimming — reject any further item that still pays off *)
    let position_of (it : Task.item) =
      Hashtbl.find s.Problem.index_of it.item_id
    in
    let rec trim solution =
      let current = total_cost p solution in
      let accepted =
        List.map position_of
          (Rt_partition.Partition.all_items solution.Solution.partition)
      in
      let try_drop i =
        let remaining = List.filter (fun x -> x <> i) accepted in
        let repacked = pack remaining in
        if repacked.Solution.rejected <> [] then None
        else begin
          let candidate =
            {
              repacked with
              Solution.rejected =
                s.Problem.item_arr.(i) :: solution.Solution.rejected;
            }
          in
          let c = total_cost p candidate in
          (* strict improvement with a relative margin; exact on purpose *)
          if Fc.exact_lt c (current -. (1e-12 *. Float.max 1. current)) then
            Some candidate
          else None
        end
      in
      match List.find_map try_drop (List.sort (density_asc s) accepted) with
      | Some better -> trim better
      | None -> solution
    in
    trim base
end

let bytes x = Marshal.to_string x [ Marshal.No_sharing ]

let search_bytes = function
  | Ok (b : Local_search.budgeted) ->
      bytes (Ok (b.solution, b.moves, b.exhausted))
  | Error e -> bytes (Error e)

let xscale_dormant =
  Rt_power.Processor.xscale
    ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })

let xscale_levels =
  Rt_power.Processor.xscale_levels ~dormancy:Rt_power.Processor.Dormant_disable

let plan_procs =
  [| ("xscale", xscale_dormant); ("xscale_levels", xscale_levels); ("cubic", cubic) |]

(* [Bounds.lower_bound] as it was before its probes took the items
   pre-sorted: each golden-section probe re-sorts them through
   [min_rejected_penalty] *)
let reference_lower_bound (p : Problem.t) =
  let total = Taskset.total_weight p.items in
  let w_max = Float.min total (float_of_int p.m *. Problem.capacity p) in
  if Fc.exact_le w_max 0. then
    Taskset.total_penalty_items p.items
    +. Bounds.balanced_energy p ~accepted_weight:0.
  else begin
    let objective w =
      Bounds.balanced_energy p ~accepted_weight:w
      +. Bounds.min_rejected_penalty p ~accepted_weight:w
    in
    let _, v =
      Rt_prelude.Math_util.golden_section_min ~f:objective ~lo:0. ~hi:w_max ()
    in
    Float.min v (Float.min (objective 0.) (objective w_max))
  end

let prop_lower_bound_matches_reference =
  let procs =
    [|
      ("xscale", xscale_dormant);
      ( "xscale always-on",
        Rt_power.Processor.xscale ~dormancy:Rt_power.Processor.Dormant_disable );
      ("xscale_levels", xscale_levels);
      ("cubic", cubic);
    |]
  in
  let shapes = [| (5, 1); (20, 2); (60, 4); (200, 8) |] in
  qtest ~count:200 "lower bound = the per-probe sort, bit for bit"
    ~print:(fun (k, shape, load, seed) ->
      let n, m = shapes.(shape) in
      Printf.sprintf "%s n %d m %d load %h seed %d" (fst procs.(k)) n m load
        seed)
    QCheck2.Gen.(
      quad (int_range 0 3) (int_range 0 3) (float_range 0.3 2.5)
        (int_range 1 100_000))
    (fun (k, shape, load, seed) ->
      let n, m = shapes.(shape) in
      let p = random_instance ~proc:(snd procs.(k)) ~seed ~n ~m ~load () in
      Int64.equal
        (Int64.bits_of_float (Bounds.lower_bound p))
        (Int64.bits_of_float (reference_lower_bound p)))

let starts =
  [
    ("ltf", Greedy.ltf_reject);
    ("marginal", Greedy.marginal_greedy);
    ("density", Greedy.density_reject);
    ("unsorted", Greedy.unsorted_reject);
  ]

(* [density_reject] and, from every greedy start, [improve_budgeted]
   produce the references' bytes: solution, move count, exhaustion *)
let matches_references ?max_moves p =
  String.equal
    (bytes (Greedy.density_reject p))
    (bytes (Reference_density.density_reject p))
  && List.for_all
       (fun (_, start) ->
         let s = start p in
         String.equal
           (search_bytes (Local_search.improve_budgeted ?max_moves p s))
           (search_bytes
              (Result.map
                 (fun (solution, moves, exhausted) ->
                   { Local_search.solution; moves; exhausted })
                 (reference_improve
                    ~max_moves:(Option.value max_moves ~default:10_000)
                    p s))))
       starts

let prop_planner_matches_references =
  qtest ~count:200 "density_reject and local search match the references"
    ~print:(fun ((proc, n, m, load), (factor, seed, budget)) ->
      Printf.sprintf "%s n %d m %d load %h penalty factor %h seed %d budget %s"
        (fst plan_procs.(proc)) n m load factor seed
        (match budget with Some b -> string_of_int b | None -> "default"))
    QCheck2.Gen.(
      let* proc = int_range 0 2 in
      let* n = int_range 1 60 in
      let* m = int_range 1 8 in
      let* load = float_range 0.5 2.5 in
      (* cheap penalties make trimming and reject moves fire *)
      let* factor = oneofl [ 0.3; 0.6; 1.; 1.5 ] in
      let* seed = int_range 1 100_000 in
      let* budget = oneofl [ Some 0; Some 1; Some 7; None ] in
      pure ((proc, n, m, load), (factor, seed, budget)))
    (fun ((proc, n, m, load), (penalty_factor, seed, max_moves)) ->
      let p =
        random_instance ~proc:(snd plan_procs.(proc)) ~penalty_factor ~seed ~n
          ~m ~load ()
      in
      matches_references ?max_moves p)

(* the shape perfbench's plan workload solves: n = 200 on m = 8 at load
   1.5 on the dormant xscale processor, the first instances of its seed 1 *)
let test_plan_shape_matches_references () =
  for i = 0 to 3 do
    let p =
      Rt_expkit.Instances.frame_instance ~proc:xscale_dormant ~seed:(1000 + i)
        ~n:200 ~m:8 ~load:1.5 ()
    in
    check_bool (Printf.sprintf "instance %d" i) true (matches_references p)
  done

(* Runs past [renorm_every] (4096) applied moves, so stamps are bumped by
   [renormalize] mid-search and every memo entry goes stale at once. *)
let test_long_search_matches_reference () =
  let p =
    Rt_expkit.Instances.frame_instance ~proc:xscale_dormant ~seed:1 ~n:4000
      ~m:16 ~load:1.5 ()
  in
  List.iter
    (fun (name, start) ->
      let s = start p in
      match
        (Local_search.improve_budgeted p s, reference_improve ~max_moves:10_000 p s)
      with
      | Ok b, Ok (solution, moves, exhausted) ->
          check_bool (name ^ ": crosses a renormalization") true (moves > 4096);
          check_int (name ^ ": moves") moves b.Local_search.moves;
          check_bool (name ^ ": solution") true
            (String.equal
               (bytes (b.solution, b.exhausted))
               (bytes (solution, exhausted)))
      | _ -> Alcotest.fail (name ^ ": infeasible start"))
    [ ("ltf", Greedy.ltf_reject); ("unsorted", Greedy.unsorted_reject) ]

(* A solution whose items are not exactly the problem's is a typed
   error, however [Solution.cost] judges it. *)
let test_local_search_foreign_items () =
  let items = items_of [ (0.3, 1.); (0.4, 2.); (0.2, 0.5) ] in
  let p = problem_exn ~proc:cubic ~m:2 ~horizon:1. items in
  let it k = List.nth items k in
  let stranger = Task.item ~penalty:1. ~id:7 ~weight:0.1 () in
  let solution buckets rejected =
    { Solution.partition = Rt_partition.Partition.of_buckets buckets; rejected }
  in
  List.iter
    (fun (name, s) ->
      check_bool (name ^ ": cost is Ok") true (Result.is_ok (Solution.cost p s));
      match Local_search.improve_budgeted p s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: accepted" name
      | exception e ->
          Alcotest.failf "%s: raised %s" name (Printexc.to_string e))
    [
      ("foreign accepted id", solution [| [ it 0; stranger ]; [ it 1 ] |] [ it 2 ]);
      ("foreign rejected id", solution [| [ it 0 ]; [ it 1 ] |] [ it 2; stranger ]);
      ("placed and rejected", solution [| [ it 0 ]; [ it 1; it 2 ] |] [ it 2 ]);
      ("missing item", solution [| [ it 0 ]; [ it 1 ] |] []);
    ]

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
          prop_lower_bound_matches_reference;
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
          Alcotest.test_case "local search rejects foreign items" `Quick
            test_local_search_foreign_items;
          prop_planner_matches_references;
          Alcotest.test_case "plan shape matches the references" `Quick
            test_plan_shape_matches_references;
          Alcotest.test_case "long search matches the reference" `Quick
            test_long_search_matches_reference;
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
