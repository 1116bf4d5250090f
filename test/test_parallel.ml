(* Tests for rt_parallel's domain pool, the determinism contracts of
   the portfolio / work-stealing search / parallel sweeps, and the
   wall-clock (not CPU-time) budget semantics. *)

module Fc = Rt_prelude.Float_cmp
module Pool = Rt_parallel.Pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_int_list = Alcotest.(check (list int))

let proc =
  Rt_power.Processor.xscale
    ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })

let instance ~seed ~n ~m ~load =
  Rt_expkit.Instances.frame_instance ~proc ~seed ~n ~m ~load ()

(* canonical rendering of a solution: rejected ids + per-bucket accepted
   ids — two runs agree iff these (and the cost) agree *)
let fingerprint (s : Rt_core.Solution.t) =
  let m = Rt_partition.Partition.m s.partition in
  List.concat
    (List.init m (fun j ->
         List.map
           (fun (it : Rt_task.Task.item) -> (j, it.Rt_task.Task.item_id))
           (Rt_partition.Partition.bucket s.partition j)))
  @ List.map (fun id -> (-1, id)) (Rt_core.Solution.rejected_ids s)

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_single_domain () =
  Pool.with_pool ~domains:1 (fun pool ->
      let xs = List.init 10 Fun.id in
      check_int_list "submission order"
        (List.map (fun x -> x * x) xs)
        (Pool.map ~pool (fun x -> x * x) xs));
  (* no pool: plain List.map *)
  check_int_list "no pool" [ 2; 4; 6 ] (Pool.map (fun x -> 2 * x) [ 1; 2; 3 ])

let test_pool_many_tasks () =
  (* far more tasks than domains; results must still come back in
     submission order *)
  Pool.with_pool ~domains:4 (fun pool ->
      let xs = List.init 200 Fun.id in
      check_int_list "200 tasks over 4 domains"
        (List.map (fun x -> (x * 7) mod 31) xs)
        (Pool.map ~pool (fun x -> (x * 7) mod 31) xs))

let test_pool_exception_propagates () =
  Pool.with_pool ~domains:3 (fun pool ->
      (* two jobs raise; the lowest-index exception must surface, after
         every job ran *)
      let ran = Array.make 8 false in
      (match
         Pool.run_list pool
           (List.init 8 (fun i () ->
                ran.(i) <- true;
                if i = 3 then failwith "boom3";
                if i = 6 then failwith "boom6";
                i))
       with
      | _ -> Alcotest.fail "expected the job exception to propagate"
      | exception Failure msg -> check_string "lowest index wins" "boom3" msg);
      check_bool "every job still ran" true (Array.for_all Fun.id ran);
      (* the pool survives a failing batch *)
      check_int_list "pool usable after failure" [ 1; 2; 3 ]
        (Pool.map ~pool Fun.id [ 1; 2; 3 ]))

(* A raising task must not leave the pool's mutex (or the batch's
   completion mutex) held: after a failing run, further batches AND a
   clean shutdown must both go through.  This is the regression test
   for the Mutex.protect refactor — with a leaked lock, the shutdown
   below deadlocks instead of returning. *)
let test_pool_raising_task_leaves_pool_usable () =
  let pool = Pool.create ~domains:2 in
  (match Pool.run_list pool [ (fun () -> failwith "kaboom") ] with
  | _ -> Alcotest.fail "expected the job exception to propagate"
  | exception Failure msg -> check_string "job exception surfaced" "kaboom" msg);
  check_int_list "next batch still runs" [ 10; 20 ]
    (Pool.map ~pool (fun x -> x * 10) [ 1; 2 ]);
  Pool.shutdown pool;
  check_bool "shutdown returned (no leaked lock)" true true

let test_jobs_validation () =
  let check_err name r =
    match r with
    | Error msg ->
        check_bool (name ^ " has a message") true (String.length msg > 0)
    | Ok j -> Alcotest.fail (Printf.sprintf "%s: expected Error, got Ok %d" name j)
  in
  (match Pool.parse_jobs "4" with
  | Ok j -> check_int "parse 4" 4 j
  | Error e -> Alcotest.fail e);
  (match Pool.parse_jobs " 2 " with
  | Ok j -> check_int "whitespace tolerated" 2 j
  | Error e -> Alcotest.fail e);
  check_err "parse 0" (Pool.parse_jobs "0");
  check_err "parse -3" (Pool.parse_jobs "-3");
  check_err "parse abc" (Pool.parse_jobs "abc");
  check_err "parse empty" (Pool.parse_jobs "");
  (* the rt_sched path: --jobs 0 must be a clear error, --jobs n wins
     over the environment, and the message names the offending value *)
  check_err "--jobs 0 rejected" (Pool.resolve_jobs ~jobs:0 ());
  (match Pool.resolve_jobs ~jobs:0 () with
  | Error msg ->
      check_bool "message names the bad count" true
        (String.length msg > 0
        && String.index_opt msg '0' <> None)
  | Ok _ -> Alcotest.fail "--jobs 0 accepted");
  match Pool.resolve_jobs ~jobs:3 () with
  | Ok j -> check_int "--jobs 3 accepted" 3 j
  | Error e -> Alcotest.fail e

let test_pool_lifecycle () =
  (match Pool.create ~domains:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "domains=0 must be refused");
  (* shutdown joins cleanly (regression: the workers used to watch a
     stale copy of the pool record and never saw [stopping]) and is
     idempotent; a shut-down pool refuses work *)
  let pool = Pool.create ~domains:2 in
  check_int "size" 2 (Pool.size pool);
  check_int_list "runs" [ 0; 1; 4; 9 ]
    (Pool.map ~pool (fun x -> x * x) [ 0; 1; 2; 3 ]);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (match Pool.run_list pool [ (fun () -> 1) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "run_list after shutdown must be refused");
  (* with_pool shuts down even when the body raises *)
  match Pool.with_pool ~domains:2 (fun _ -> failwith "body") with
  | exception Failure msg -> check_string "body exception" "body" msg
  | _ -> Alcotest.fail "expected the body exception"

(* ------------------------------------------------------------------ *)
(* Clock / wall-clock budgets *)

let test_clock_monotone () =
  let t0 = Rt_prelude.Clock.now () in
  let n0 = Rt_prelude.Clock.now_ns () in
  let acc = ref 0. in
  for i = 1 to 100_000 do
    acc := !acc +. sqrt (float_of_int i)
  done;
  ignore !acc;
  check_bool "ns monotone" true (Int64.compare (Rt_prelude.Clock.now_ns ()) n0 >= 0);
  check_bool "elapsed non-negative" true
    (Fc.exact_ge (Rt_prelude.Clock.elapsed ~since:t0) 0.)

(* THE budget regression this PR fixes: [time_budget] used to be measured
   with [Sys.time], which is process CPU time summed over every domain —
   a busy sibling domain made the budget expire at roughly half the
   wall-clock time it promised. With the monotonic clock, a budgeted
   search next to a spinning sibling still gets (at least) its full
   wall-clock budget. *)
let test_budget_is_wall_clock_under_busy_sibling () =
  let budget = 0.3 in
  (* hard enough that the budget, not completion, ends the search *)
  let p = instance ~seed:21 ~n:18 ~m:4 ~load:1.5 in
  let stop = Atomic.make false in
  let sibling =
    Domain.spawn (fun () ->
        let x = ref 0.0 in
        while not (Atomic.get stop) do
          x := sqrt (!x +. 2.)
        done;
        !x)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      ignore (Domain.join sibling))
    (fun () ->
      let t0 = Rt_prelude.Clock.now () in
      match Rt_core.Exact.branch_and_bound_budgeted ~time_budget:budget p with
      | Error e -> Alcotest.failf "budgeted: %s" e
      | Ok b ->
          let wall = Rt_prelude.Clock.elapsed ~since:t0 in
          check_bool "budget ran out" true b.Rt_core.Exact.exhausted;
          (* CPU-time accounting with one spinning sibling would cut this
             to ~budget/2 of wall time; leave slack for polling jitter *)
          check_bool
            (Printf.sprintf "got the full wall-clock budget (%.3fs >= %.3fs)"
               wall (0.9 *. budget))
            true
            (Fc.exact_ge wall (0.9 *. budget)))

let test_expired_budget_returns_seed () =
  let p = instance ~seed:5 ~n:10 ~m:3 ~load:1.5 in
  match Rt_core.Exact.branch_and_bound_budgeted ~time_budget:0. p with
  | Error e -> Alcotest.failf "budgeted: %s" e
  | Ok b ->
      check_bool "exhausted" true b.Rt_core.Exact.exhausted;
      (* the seed incumbent rejects everything: still a valid solution *)
      check_bool "seed validates" true
        (Result.is_ok (Rt_core.Solution.validate p b.Rt_core.Exact.solution))

let solve ?pool ?time_budget ?node_budget p =
  match
    Rt_core.Exact.branch_and_bound_budgeted ?pool ?time_budget ?node_budget p
  with
  | Ok b -> b
  | Error e -> Alcotest.failf "exact search: %s" e

(* the raw search on a problem's items *)
let search ?pool ?prune p =
  match
    Rt_exact.Search.solve ?pool ?prune ~m:p.Rt_core.Problem.m
      ~capacity:(Rt_core.Problem.capacity p)
      ~bucket_cost:(Rt_core.Problem.bucket_energy p)
      p.Rt_core.Problem.items
  with
  | Ok a -> a
  | Error e -> Alcotest.failf "search: %s" e

let enumerate ?pool p = search ?pool ~prune:false p

(* the whole answer — buckets, rejected list, cost bits — as bytes *)
let best_bytes (a : Rt_exact.Search.anytime) =
  Marshal.to_string a.Rt_exact.Search.best [ Marshal.No_sharing ]

(* ------------------------------------------------------------------ *)
(* Snapshot immunity (regression for the dead double-copy at the
   incumbent snapshot): the solution a search returns was snapshotted
   mid-flight, while the search went on mutating its live bucket arrays
   — a completed branch-and-bound must therefore agree exactly with the
   independent full enumeration (whose strict-improvement fold keeps the
   same depth-first-earliest optimum), for every seed. *)

let test_incumbent_snapshot_immune () =
  List.iter
    (fun seed ->
      let p = instance ~seed ~n:10 ~m:3 ~load:1.6 in
      let all = (enumerate p).Rt_exact.Search.best in
      let reference =
        {
          Rt_core.Solution.partition = all.Rt_exact.Search.partition;
          rejected = all.Rt_exact.Search.rejected;
        }
      in
      let b = solve p in
      check_bool "completed" false b.Rt_core.Exact.exhausted;
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "seed %d matches the full enumeration" seed)
        (fingerprint reference)
        (fingerprint b.Rt_core.Exact.solution))
    (List.init 10 (fun i -> 100 + i))

(* Golden node counts of the pool-less search: no pool must mean one
   whole depth-first search — never a carved tree, never an incumbent
   seeded per subtree. *)
let test_sequential_node_counts () =
  List.iter
    (fun (seed, n, load, nodes) ->
      let p = instance ~seed ~n ~m:3 ~load in
      let b = solve p in
      let tag = Printf.sprintf "seed %d n %d" seed n in
      check_bool (tag ^ ": completed") false b.Rt_core.Exact.exhausted;
      check_int (tag ^ ": nodes") nodes b.Rt_core.Exact.nodes;
      check_int (tag ^ ": no splits") 0
        b.Rt_core.Exact.stats.Rt_exact.Search.splits;
      check_int (tag ^ ": one unit, the root") 1
        b.Rt_core.Exact.stats.Rt_exact.Search.subtrees)
    [ (100, 10, 1.6, 776); (101, 10, 1.6, 981); (102, 10, 1.6, 827);
      (5, 12, 1.4, 20743) ]

(* ------------------------------------------------------------------ *)
(* Determinism: parallel == sequential, byte for byte *)

let seeds20 = List.init 20 (fun i -> 1 + (13 * i))

let test_portfolio_deterministic () =
  let outcomes domains =
    let run pool =
      List.map
        (fun seed ->
          let p = instance ~seed ~n:10 ~m:3 ~load:1.5 in
          match Rt_core.Portfolio.run ?pool p with
          | Error e -> Alcotest.failf "portfolio: %s" e
          | Ok o ->
              ( o.Rt_core.Portfolio.winner,
                o.Rt_core.Portfolio.cost,
                fingerprint o.Rt_core.Portfolio.solution ))
        seeds20
    in
    if domains = 0 then run None
    else Pool.with_pool ~domains (fun pool -> run (Some pool))
  in
  let reference = outcomes 0 in
  List.iter
    (fun domains ->
      List.iter2
        (fun (w, c, f) (w', c', f') ->
          check_string "winner" w w';
          check_bool "cost bit-identical" true (Fc.exact_eq c c');
          Alcotest.(check (list (pair int int))) "solution" f f')
        reference (outcomes domains))
    [ 1; 2; 4 ]

(* -- The work-stealing battery ------------------------------------- *)

(* 20 seeded instances spanning n = 10..16 and m in {2, 3}. The n >= 14
   instances run heavily overloaded (load 2.4): forced rejections keep
   the trees small enough that the full battery — 20 instances x 4 pool
   sizes — completes in seconds on one core, while still exercising
   deep, irregular search trees. *)
let battery_instances =
  List.init 20 (fun i ->
      let n = 10 + (i mod 7) in
      let seed = 40 + (17 * i) in
      let m = 2 + (i mod 2) in
      let load = if n >= 14 then 2.4 else 1.6 in
      (seed, n, m, instance ~seed ~n ~m ~load))

(* The tentpole contract: a completed work-stealing run is byte-identical
   to the sequential branch-and-bound — buckets, rejected list and cost
   bits — at every pool size and steal schedule. Pool sizes 1/2/4/8
   cover no parallelism up to thief-heavy (8 workers on few cores). *)
let test_ws_determinism_battery () =
  let references =
    List.map
      (fun (seed, n, m, p) -> (seed, n, m, p, best_bytes (search p)))
      battery_instances
  in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          List.iter
            (fun (seed, n, m, p, reference) ->
              let a = search ~pool p in
              let tag =
                Printf.sprintf "seed %d n %d m %d domains %d" seed n m domains
              in
              check_bool (tag ^ ": completed") false a.Rt_exact.Search.exhausted;
              check_bool (tag ^ ": best byte-identical") true
                (String.equal reference (best_bytes a)))
            references))
    [ 1; 2; 4; 8 ]

(* No unit lost, none run twice. With pruning disabled the parallel run
   must visit the whole tree: every expansion replaces one counted node
   by its children, so the nodes the run units visit plus the split
   count equal the sequential exhaustive visit count exactly — any lost
   unit undercounts, any duplicated one overcounts. Without a pool the
   root is the one unit. *)
let test_ws_subtree_accounting () =
  List.iter
    (fun (n, m, seed) ->
      let p = instance ~seed ~n ~m ~load:1.6 in
      let seq = enumerate p in
      check_bool "exhaustive completed" false seq.Rt_exact.Search.exhausted;
      check_int "no pool: the root is the one unit" 1
        seq.Rt_exact.Search.stats.Rt_exact.Search.subtrees;
      List.iter
        (fun domains ->
          Pool.with_pool ~domains (fun pool ->
              let a = enumerate ~pool p in
              let tag = Printf.sprintf "n %d m %d domains %d" n m domains in
              check_int
                (tag ^ ": unit nodes + splits = exhaustive nodes")
                seq.Rt_exact.Search.nodes
                (a.Rt_exact.Search.nodes
                + a.Rt_exact.Search.stats.Rt_exact.Search.splits);
              check_bool (tag ^ ": best byte-identical") true
                (String.equal (best_bytes seq) (best_bytes a))))
        [ 2; 4 ])
    [ (10, 3, 40); (11, 2, 57); (12, 2, 74) ]

(* Budget exhaustion on the parallel path: validity without
   reproducibility. Past the deadline every pending unit is dropped
   unrun and the all-reject seed stays the fallback, so even a zero
   budget — and a tiny per-unit node budget on an instance far too big
   to finish — must come back exhausted, feasible, and fast. *)
let test_ws_budget_exhaustion_valid () =
  let p = instance ~seed:21 ~n:18 ~m:4 ~load:1.5 in
  let check_exhausted_valid tag b =
    check_bool (tag ^ ": exhausted") true b.Rt_core.Exact.exhausted;
    check_bool (tag ^ ": solution validates") true
      (Result.is_ok (Rt_core.Solution.validate p b.Rt_core.Exact.solution))
  in
  Pool.with_pool ~domains:4 (fun pool ->
      check_exhausted_valid "zero budget" (solve ~pool ~time_budget:0. p);
      check_exhausted_valid "50ms budget" (solve ~pool ~time_budget:0.05 p);
      (* drain mode: the first exhausted unit stops further expansion,
         so the dynamic frontier cannot outrun a small node budget *)
      let t0 = Rt_prelude.Clock.now () in
      check_exhausted_valid "node budget 200" (solve ~pool ~node_budget:200 p);
      check_bool "drain mode terminates promptly" true
        (Fc.exact_lt (Rt_prelude.Clock.elapsed ~since:t0) 10.))

let test_runner_replicate_pool_identical () =
  let seeds = Rt_expkit.Runner.seeds ~base:7 ~n:24 in
  let f seed = Float.of_int seed *. 1.25 in
  let reference = Rt_expkit.Runner.replicate ~seeds f in
  Pool.with_pool ~domains:3 (fun pool ->
      let par = Rt_expkit.Runner.replicate ~pool ~seeds f in
      check_int "n" reference.Rt_prelude.Stats.n par.Rt_prelude.Stats.n;
      List.iter
        (fun (name, a, b) ->
          check_bool name true (Fc.exact_eq a b))
        [
          ("mean", reference.Rt_prelude.Stats.mean, par.Rt_prelude.Stats.mean);
          ( "stddev",
            reference.Rt_prelude.Stats.stddev,
            par.Rt_prelude.Stats.stddev );
          ("median", reference.Rt_prelude.Stats.median, par.Rt_prelude.Stats.median);
        ])

let test_fault_sweep_parallel_identical () =
  let reference = Rt_expkit.Exp_fault.sweep ~seeds:3 () in
  Pool.with_pool ~domains:4 (fun pool ->
      let par = Rt_expkit.Exp_fault.sweep ~pool ~seeds:3 () in
      check_int "rows" (List.length reference) (List.length par);
      List.iter2
        (fun (a : Rt_expkit.Exp_fault.row) (b : Rt_expkit.Exp_fault.row) ->
          check_string "policy" a.policy b.policy;
          List.iter
            (fun (name, x, y) -> check_bool name true (Fc.exact_eq x y))
            [
              ("fault_rate", a.fault_rate, b.fault_rate);
              ("cost_ratio", a.cost_ratio, b.cost_ratio);
              ("miss_pct", a.miss_pct, b.miss_pct);
              ("shed_pct", a.shed_pct, b.shed_pct);
            ])
        reference par)

let test_fuzz_parallel_identical () =
  let config = { Rt_check.Fuzz.default_config with Rt_check.Fuzz.count = 6 } in
  let reference = Rt_check.Fuzz.run ~config () in
  Pool.with_pool ~domains:3 (fun pool ->
      let par = Rt_check.Fuzz.run ~pool ~config () in
      (* the rendered report covers every counter and every failure's
         minimized instance — byte equality here is the contract *)
      check_string "report byte-identical"
        (Rt_check.Fuzz.summary reference)
        (Rt_check.Fuzz.summary par);
      check_int "instances" reference.Rt_check.Fuzz.instances
        par.Rt_check.Fuzz.instances)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "rt_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "single domain" `Quick test_pool_single_domain;
          Alcotest.test_case "tasks >> domains" `Quick test_pool_many_tasks;
          Alcotest.test_case "exception propagates" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "raising task leaves pool usable" `Quick
            test_pool_raising_task_leaves_pool_usable;
          Alcotest.test_case "lifecycle" `Quick test_pool_lifecycle;
          Alcotest.test_case "jobs validation" `Quick test_jobs_validation;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotone" `Quick test_clock_monotone;
          Alcotest.test_case "wall-clock budget under busy sibling" `Slow
            test_budget_is_wall_clock_under_busy_sibling;
          Alcotest.test_case "expired budget returns seed" `Quick
            test_expired_budget_returns_seed;
        ] );
      ( "search",
        [
          Alcotest.test_case "incumbent snapshot immune" `Quick
            test_incumbent_snapshot_immune;
          Alcotest.test_case "sequential node counts are pinned" `Quick
            test_sequential_node_counts;
          Alcotest.test_case "work stealing: 20-instance determinism battery"
            `Slow test_ws_determinism_battery;
          Alcotest.test_case "work stealing: subtree accounting" `Slow
            test_ws_subtree_accounting;
          Alcotest.test_case "work stealing: budget exhaustion stays valid"
            `Slow test_ws_budget_exhaustion_valid;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "portfolio, 20 seeds x pool sizes" `Slow
            test_portfolio_deterministic;
          Alcotest.test_case "runner replicate" `Quick
            test_runner_replicate_pool_identical;
          Alcotest.test_case "fault sweep" `Slow
            test_fault_sweep_parallel_identical;
          Alcotest.test_case "fuzz report" `Slow test_fuzz_parallel_identical;
        ] );
    ]
