(* Benchmark harness.

   Two sections:

   1. The evaluation tables — one per experiment in the EXPERIMENTS.md
      index (E1..E16), regenerated through the same Rt_expkit registry the
      [experiments] binary uses. Reduced replication counts by default so
      the whole run stays in CI territory; set RT_BENCH_FULL=1 for the
      full-fidelity tables recorded in EXPERIMENTS.md.

   2. Bechamel timing benches — one Test.make per experiment covering the
      workhorse kernel behind that table, plus a size-scaling group for
      the heuristics themselves. *)

open Bechamel
open Toolkit

(* ---------------------------------------------------------------- *)
(* Section 1: experiment tables *)

let print_tables () =
  let quick = Sys.getenv_opt "RT_BENCH_FULL" = None in
  if quick then
    print_endline
      "(tables at reduced replication count; RT_BENCH_FULL=1 for the full \
       EXPERIMENTS.md fidelity)";
  List.iter (Rt_expkit.Registry.print ~quick) Rt_expkit.Registry.all

(* ---------------------------------------------------------------- *)
(* Section 2: timing kernels *)

let proc =
  Rt_power.Processor.xscale
    ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })

let instance ~seed ~n ~m ~load =
  Rt_expkit.Instances.frame_instance ~proc ~seed ~n ~m ~load ()

let kernel_tests =
  let p_small = instance ~seed:1 ~n:8 ~m:2 ~load:1.4 in
  let p_mid = instance ~seed:2 ~n:40 ~m:8 ~load:1.5 in
  let p_big = instance ~seed:3 ~n:120 ~m:16 ~load:1.5 in
  let levels =
    Rt_power.Processor.xscale_levels ~dormancy:Rt_power.Processor.Dormant_disable
  in
  let hetero_items =
    let rng = Rt_prelude.Rng.create ~seed:4 in
    Rt_task.Gen.items rng ~n:12 ~weight_lo:0.02 ~weight_hi:0.07
    |> Rt_task.Gen.heterogeneous_power_factors rng ~lo:0.5 ~hi:3.
  in
  let periodic_part =
    let rng = Rt_prelude.Rng.create ~seed:5 in
    let tasks =
      Rt_task.Gen.periodic_tasks rng ~n:16 ~total_util:1.2
        ~periods:Rt_task.Gen.default_periods
    in
    Rt_partition.Heuristics.ltf ~m:8 (Rt_task.Taskset.items_of_periodics tasks)
  in
  let e8_proc =
    Rt_power.Processor.xscale
      ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 5.; e_sw = 4. })
  in
  let jobs =
    let rng = Rt_prelude.Rng.create ~seed:6 in
    Rt_online.Job.stream rng ~n:40 ~rate:0.02 ~s_max:1. ~mean_cycles:25.
      ~slack_lo:1.5 ~slack_hi:6. ~penalty_factor:1.2
  in
  let mig_items =
    let rng = Rt_prelude.Rng.create ~seed:7 in
    Rt_task.Gen.items rng ~n:20 ~weight_lo:0.05 ~weight_hi:0.4
  in
  let lp_problem =
    {
      Rt_lp.Simplex.minimize = [| -3.; -5.; 1.; 0.5 |];
      constraints =
        [
          ([| 1.; 0.; 2.; 0. |], Rt_lp.Simplex.Le, 4.);
          ([| 0.; 2.; 0.; 1. |], Rt_lp.Simplex.Le, 12.);
          ([| 3.; 2.; 1.; 1. |], Rt_lp.Simplex.Le, 18.);
          ([| 1.; 1.; 1.; 1. |], Rt_lp.Simplex.Ge, 1.);
        ];
    }
  in
  let qos_tasks =
    List.map
      (Rt_core.Qos.graceful ~steps:4 ~curve:2.)
      p_mid.Rt_core.Problem.items
  in
  let qos_problem =
    match
      Rt_core.Problem.make ~proc ~m:8 ~horizon:1000. []
    with
    | Ok p -> p
    | Error e -> invalid_arg e
  in
  [
    Test.make ~name:"e1.kernel: branch&bound n=8 m=2"
      (Staged.stage (fun () ->
           Rt_core.Exact.branch_and_bound_budgeted p_small));
    Test.make ~name:"e2.kernel: lower_bound n=120 m=16"
      (Staged.stage (fun () -> Rt_core.Bounds.lower_bound p_big));
    Test.make ~name:"e3.kernel: ltf-reject + local search n=40 m=8"
      (Staged.stage (fun () ->
           Rt_core.Local_search.with_local_search Rt_core.Greedy.ltf_reject
             p_mid));
    Test.make ~name:"e4.kernel: density_reject n=40 m=8"
      (Staged.stage (fun () -> Rt_core.Greedy.density_reject p_mid));
    Test.make ~name:"e5.kernel: two-level split plan (levels domain)"
      (Staged.stage (fun () -> Rt_speed.Energy_rate.optimal levels ~u:0.55));
    Test.make ~name:"e6.kernel: numeric critical speed (linear term)"
      (Staged.stage
         (let m =
            Rt_power.Power_model.make ~p_ind:0.1 ~linear:0.2 ~coeff:1.52
              ~alpha:3. ()
          in
          fun () -> Rt_power.Power_model.critical_speed m ~s_max:1.));
    Test.make ~name:"e7.kernel: hetero KKT speeds (12 tasks)"
      (Staged.stage (fun () ->
           Rt_partition.Hetero.processor_speeds
             (Rt_power.Processor.xscale
                ~dormancy:Rt_power.Processor.Dormant_disable)
             ~horizon:1000. hetero_items));
    Test.make ~name:"e13.kernel: online admission, 40-job stream"
      (Staged.stage (fun () ->
           Rt_online.Admission.simulate ~proc
             ~policy:Rt_online.Admission.Profitable jobs));
    Test.make ~name:"e13.kernel: YDS decomposition, 40 jobs"
      (Staged.stage (fun () -> Rt_online.Yds.blocks jobs));
    Test.make ~name:"e11.kernel: two-phase simplex, 4 vars x 4 rows"
      (Staged.stage (fun () -> Rt_lp.Simplex.solve lp_problem));
    Test.make ~name:"e15.kernel: migratory optimum n=20 m=4"
      (Staged.stage (fun () ->
           Rt_partition.Migration.optimal ~proc:(Rt_power.Processor.cubic ())
             ~m:4 ~frame:1000. mig_items));
    Test.make ~name:"e16.kernel: greedy degradation n=40 m=8"
      (Staged.stage (fun () ->
           Rt_core.Qos.greedy_degrade qos_problem qos_tasks));
    Test.make ~name:"e8.kernel: consolidate + policy energy m=8"
      (Staged.stage (fun () ->
           Rt_expkit.Exp_leakage.policy_energy ~proc:e8_proc ~horizon:2000.
             ~jobs_on:(fun b -> 10 * List.length b)
             { Rt_expkit.Exp_leakage.ff = true; procrastinate = false }
             periodic_part));
  ]

(* Rows are named by the instance size itself ("ltf-reject:n=1000"), not
   by positional index — a positional "ltf-reject:2" silently changes
   meaning whenever the size list changes, which is exactly what the CI
   regression gates key on. Keep [scaling_sizes] and the group title in
   [run_timings] in sync. *)
let scaling_sizes = [ 10; 100; 1_000; 10_000; 100_000 ]

let scaling_tests =
  let problems =
    List.map (fun n -> (n, instance ~seed:(100 + n) ~n ~m:8 ~load:1.5))
      scaling_sizes
  in
  let family ~name alg =
    List.map
      (fun (n, p) ->
        Test.make ~name:(Printf.sprintf "%s:n=%d" name n)
          (Staged.stage (fun () -> alg p)))
      problems
  in
  family ~name:"ltf-reject" Rt_core.Greedy.ltf_reject
  @ family ~name:"marginal" Rt_core.Greedy.marginal_greedy
  @ family ~name:"unsorted" Rt_core.Greedy.unsorted_reject

(* QoS degradation prices every one-level move exactly as an LTF repack
   would, O(steps · n · n · m): 0.2-0.3 s a run at n=200 on a 2-core
   x86 container, so this family stops there instead of at
   [scaling_sizes]. *)
let qos_scaling_sizes = [ 40; 100; 200 ]

let qos_scaling_tests =
  List.map
    (fun n ->
      let p = instance ~seed:(100 + n) ~n ~m:8 ~load:1.5 in
      let tasks =
        List.map (Rt_core.Qos.graceful ~steps:4 ~curve:2.) p.Rt_core.Problem.items
      in
      let platform =
        match
          Rt_core.Problem.make ~proc ~m:8 ~horizon:p.Rt_core.Problem.horizon []
        with
        | Ok p -> p
        | Error e -> invalid_arg e
      in
      Test.make ~name:(Printf.sprintf "qos-degrade:n=%d" n)
        (Staged.stage (fun () -> Rt_core.Qos.greedy_degrade platform tasks)))
    qos_scaling_sizes

(* Branch-and-bound at the shape perfbench's sweep workload solves
   (n=12, m=3, load 1.4), through the same entry point; CI ratchets this
   row's minor words per run. *)
let bnb_test =
  let p = instance ~seed:(100 + 12) ~n:12 ~m:3 ~load:1.4 in
  Test.make ~name:"branch-and-bound:n=12"
    (Staged.stage (fun () -> Rt_core.Exact.branch_and_bound_budgeted p))

(* YDS on a 250-job stream at load 1.0, in the job shape of the serve
   bench (mean cycles 25, slack 1.2-4); CI ratchets this row's minor
   words per run. *)
let yds_test =
  let jobs =
    let rng = Rt_prelude.Rng.create ~seed:(100 + 250) in
    Rt_online.Job.stream rng ~n:250 ~rate:(1. /. 25.) ~s_max:1. ~mean_cycles:25.
      ~slack_lo:1.2 ~slack_hi:4. ~penalty_factor:1.3
  in
  Test.make ~name:"yds:n=250"
    (Staged.stage (fun () -> Rt_online.Yds.blocks jobs))

(* The offline planner's two kernels at the shape perfbench's plan
   workload runs (n=200, m=8, load 1.5, the dormant xscale processor):
   local search from the LTF start, and density_reject. CI ratchets
   both rows' minor words per run. *)
let plan_tests =
  let p = instance ~seed:(100 + 200) ~n:200 ~m:8 ~load:1.5 in
  let start = Rt_core.Greedy.ltf_reject p in
  [
    Test.make ~name:"local-search:n=200"
      (Staged.stage (fun () -> Rt_core.Local_search.improve p start));
    Test.make ~name:"density-reject:n=200"
      (Staged.stage (fun () -> Rt_core.Greedy.density_reject p));
  ]

(* Bechamel's [Instance.minor_allocated] reads [Gc.quick_stat], whose
   minor_words only advances at a minor collection on OCaml 5.1: a sample
   that allocates less than one minor heap reads 0, so kernels below a few
   hundred thousand words per run recorded 0 words. [Gc.minor_words]
   counts the allocation pointer itself. *)
module Minor_words = struct
  type witness = unit

  let make () = ()
  let load () = ()
  let unload () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "mnw"
end

let minor_words =
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

let run_timings () =
  let tests =
    Test.make_grouped ~name:"rt-reject"
      [
        Test.make_grouped ~name:"kernels" kernel_tests;
        Test.make_grouped ~name:"scaling(n=10..100000)"
          (scaling_tests @ qos_scaling_tests @ [ bnb_test; yds_test ]
          @ plan_tests);
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) () in
  (* minor_words rides along: the Gc.minor_words delta per run is the
     allocation axis the hot-path lint (docs/PERF_LINT.md) optimizes *)
  let raw =
    Benchmark.all cfg [ Instance.monotonic_clock; minor_words ] tests
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let estimate results name =
    match Hashtbl.find_opt results name with
    | None -> None
    | Some ols -> (
        match Analyze.OLS.estimates ols with
        | Some (x :: _) -> Some x
        | Some [] | None -> None)
  in
  let times = Analyze.all ols Instance.monotonic_clock raw in
  let words = Analyze.all ols minor_words raw in
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) times [] in
  let names = List.sort compare names in
  let rows =
    List.map
      (fun name -> (name, estimate times name, estimate words name))
      names
  in
  let fmt_opt = function
    | Some x -> Printf.sprintf "%.1f" x
    | None -> "n/a"
  in
  let table =
    List.fold_left
      (fun t (name, ns, w) ->
        Rt_prelude.Tablefmt.add_row t [ name; fmt_opt ns; fmt_opt w ])
      (Rt_prelude.Tablefmt.create
         ~aligns:
           [
             Rt_prelude.Tablefmt.Left; Rt_prelude.Tablefmt.Right;
             Rt_prelude.Tablefmt.Right;
           ]
         [ "benchmark"; "ns/run"; "minor words/run" ])
      rows
  in
  print_endline
    "\n== timing (bechamel, monotonic clock, OLS ns/run + minor words/run) ==";
  Rt_prelude.Tablefmt.print table;
  rows

(* ---------------------------------------------------------------- *)
(* Section 3: solver races + persisted trajectory (BENCH_core.json) *)

module Json = Rt_prelude.Json

let out_file = "BENCH_core.json"

(* best-of-[reps] monotonic wall-clock seconds plus the last result *)
let time_wall ~reps f =
  let rec go k best last =
    if k = 0 then (best, last)
    else begin
      let t0 = Rt_prelude.Clock.now () in
      let r = f () in
      go (k - 1) (Float.min best (Rt_prelude.Clock.elapsed ~since:t0)) (Some r)
    end
  in
  match go reps infinity None with
  | best, Some r -> (best, r)
  | _, None -> invalid_arg "time_wall: reps < 1"

type race = {
  race_name : string;
  seq_wall : float;
  seq_cost : float;
  seq_nodes : int;
  par_wall : float;
  par_cost : float;
  par_nodes : int;
  race_domains : int;
  speedup : float;
  steals : int option;
      (* work-steal rows: total successful steals across the pool *)
  completed : bool option;
      (* work-steal rows: both sides ran to completion (neither
         exhausted its budget) — the rows the CI wall-clock and
         cost-equality gates apply to *)
  budget : float option;
      (* work-steal rows: the wall-clock budget each side ran under —
         CI's deadline gate holds both walls to it *)
}

(* The portfolio race: plain branch-and-bound from its own all-reject
   seed versus the portfolio, whose heuristic entrants publish their
   costs to the shared incumbent the exact entrant prunes against.
   "Speedup" is time-to-equal-quality — the portfolio must reach a cost
   no worse than the sequential optimum (it does: both complete, and the
   shared bound only prunes strictly worse subtrees). Honest on any
   machine: the gain comes from the collapsed search tree, not from
   core count. *)
let portfolio_race ~pool ~reps ~seed ~n ~m ~load =
  let p = instance ~seed ~n ~m ~load in
  let seq_wall, seq =
    time_wall ~reps (fun () ->
        match Rt_core.Exact.branch_and_bound_budgeted p with
        | Ok b -> b
        | Error e -> invalid_arg e)
  in
  let par_wall, par =
    time_wall ~reps (fun () ->
        match Rt_core.Portfolio.run ?pool p with
        | Ok o -> o
        | Error e -> invalid_arg e)
  in
  let bb_nodes =
    List.fold_left
      (fun acc (st : Rt_core.Portfolio.stat) ->
        acc + st.Rt_core.Portfolio.nodes)
      0 par.Rt_core.Portfolio.stats
  in
  {
    race_name = Printf.sprintf "portfolio n=%d m=%d seed=%d" n m seed;
    seq_wall;
    seq_cost = seq.Rt_core.Exact.cost;
    seq_nodes = seq.Rt_core.Exact.nodes;
    par_wall;
    par_cost = par.Rt_core.Portfolio.cost;
    par_nodes = bb_nodes;
    race_domains = (match pool with None -> 1 | Some pl -> Rt_parallel.Pool.size pl);
    speedup = seq_wall /. Float.max 1e-9 par_wall;
    steals = None;
    completed = None;
    budget = None;
  }

(* The work-stealing race: the same exact search dynamically balanced
   over per-domain deques with a shared incumbent. Both sides get the
   same wall-clock budget, so the larger instances record honest
   exhausted-at-budget rows ([completed] false) rather than nothing.
   On a single hardware core the wall-clock speedup is bounded by ~1x
   (the deque and incumbent traffic is pure overhead there); the CI
   wall-clock gate therefore keys on the recorded core count. Steal
   totals land in the JSON so the trajectory tracks balancing activity
   alongside raw time. *)
let work_steal_race ~pool ~reps ~budget ~seed ~n ~m ~load =
  let p = instance ~seed ~n ~m ~load in
  let seq_wall, seq =
    time_wall ~reps (fun () ->
        match Rt_core.Exact.branch_and_bound_budgeted ~time_budget:budget p with
        | Ok b -> b
        | Error e -> invalid_arg e)
  in
  let par_wall, par =
    time_wall ~reps (fun () ->
        match
          Rt_core.Exact.branch_and_bound_budgeted ?pool ~time_budget:budget p
        with
        | Ok b -> b
        | Error e -> invalid_arg e)
  in
  let domains =
    match pool with None -> 1 | Some pl -> Rt_parallel.Pool.size pl
  in
  {
    race_name =
      Printf.sprintf "work-steal bb n=%d m=%d seed=%d d=%d" n m seed domains;
    seq_wall;
    seq_cost = seq.Rt_core.Exact.cost;
    seq_nodes = seq.Rt_core.Exact.nodes;
    par_wall;
    par_cost = par.Rt_core.Exact.cost;
    par_nodes = par.Rt_core.Exact.nodes;
    race_domains = domains;
    speedup = seq_wall /. Float.max 1e-9 par_wall;
    steals =
      Some
        (List.fold_left ( + ) 0
           par.Rt_core.Exact.stats.Rt_exact.Search.steals);
    completed =
      Some
        ((not seq.Rt_core.Exact.exhausted)
        && not par.Rt_core.Exact.exhausted);
    budget = Some budget;
  }

(* The equal-budget race: on instances past the exact frontier (n >= 18)
   the all-reject-seeded sequential search holds an incumbent well above
   the greedy family for seconds, while the portfolio's incumbent drops
   to the best heuristic cost the moment the heuristics finish (and only
   improves from there). Both sides get a wall-clock budget; the
   portfolio's is a quarter of the sequential one. Recorded speedup is
   seq wall over portfolio wall with the cost comparison alongside —
   time-to-better-quality, the portfolio's actual value proposition. *)
let budget_race ~pool ~seed ~n ~m ~load ~budget =
  let p = instance ~seed ~n ~m ~load in
  let seq_wall, seq =
    time_wall ~reps:1 (fun () ->
        match Rt_core.Exact.branch_and_bound_budgeted ~time_budget:budget p with
        | Ok b -> b
        | Error e -> invalid_arg e)
  in
  let par_wall, par =
    time_wall ~reps:1 (fun () ->
        match
          Rt_core.Portfolio.run ?pool ~time_budget:(budget /. 4.) p
        with
        | Ok o -> o
        | Error e -> invalid_arg e)
  in
  let bb_nodes =
    List.fold_left
      (fun acc (st : Rt_core.Portfolio.stat) ->
        acc + st.Rt_core.Portfolio.nodes)
      0 par.Rt_core.Portfolio.stats
  in
  {
    race_name =
      Printf.sprintf "portfolio-budget n=%d m=%d seed=%d tb=%.1fs" n m seed
        budget;
    seq_wall;
    seq_cost = seq.Rt_core.Exact.cost;
    seq_nodes = seq.Rt_core.Exact.nodes;
    par_wall;
    par_cost = par.Rt_core.Portfolio.cost;
    par_nodes = bb_nodes;
    race_domains = (match pool with None -> 1 | Some pl -> Rt_parallel.Pool.size pl);
    speedup = seq_wall /. Float.max 1e-9 par_wall;
    steals = None;
    completed = None;
    budget = None;
  }

let run_races () =
  let quick = Sys.getenv_opt "RT_BENCH_FULL" = None in
  let reps = if quick then 3 else 7 in
  let budget = if quick then 1.6 else 4.8 in
  let ws_rows pool reps' =
    [
      (* n=14 completes inside the budget; n=18/22 record honest
         exhausted-at-budget rows on most machines *)
      work_steal_race ~pool ~reps:reps' ~budget ~seed:11 ~n:14 ~m:4 ~load:1.5;
      work_steal_race ~pool ~reps:1 ~budget ~seed:21 ~n:18 ~m:4 ~load:1.5;
      work_steal_race ~pool ~reps:1 ~budget ~seed:23 ~n:22 ~m:4 ~load:1.5;
    ]
  in
  let four =
    Rt_parallel.Pool.with_pool ~domains:4 (fun pl ->
        let pool = Some pl in
        [
          portfolio_race ~pool ~reps ~seed:9 ~n:14 ~m:4 ~load:1.6;
          portfolio_race ~pool ~reps ~seed:11 ~n:15 ~m:4 ~load:1.5;
          budget_race ~pool ~seed:21 ~n:18 ~m:4 ~load:1.5 ~budget;
          budget_race ~pool ~seed:22 ~n:20 ~m:4 ~load:1.5 ~budget;
          budget_race ~pool ~seed:24 ~n:24 ~m:6 ~load:1.5 ~budget;
        ]
        @ ws_rows pool reps)
  in
  let eight =
    Rt_parallel.Pool.with_pool ~domains:8 (fun pl -> ws_rows (Some pl) 1)
  in
  four @ eight

(* Lint runtime over the concurrency-critical roots plus the hot-path
   kernels: the analysis is part of the CI gate, so its wall time is a
   perf axis the trajectory should track — a rule whose cost explodes
   would slow every push. lib/core and lib/speed exercise the v4
   hot-path prepass (interface marks, call graph, propagation) on the
   annotated kernels. Measured from the repo root (where dune exec
   runs) so the .cmt files under _build/default are found; skipped
   gracefully elsewhere. *)
let lint_timing () =
  let roots = [ "lib/parallel"; "lib/check"; "lib/core"; "lib/speed" ] in
  if List.for_all Sys.file_exists roots then
    let wall, findings =
      time_wall ~reps:3 (fun () -> Rt_lint_core.Lint_core.lint_paths roots)
    in
    Some (String.concat "+" roots, wall, List.length findings)
  else None

let json_of_lint (roots, wall, n) =
  Json.(
    Obj
      [
        ("kind", Str "lint");
        ("name", Str roots);
        ("wall_s", Float wall);
        ("findings", Int n);
      ])

let json_of_kernel (name, ns, words) =
  let num = function Some x -> Json.Float x | None -> Json.Null in
  Json.(
    Obj
      [
        ("kind", Str "kernel");
        ("name", Str name);
        ("ns_per_run", num ns);
        ("minor_words_per_run", num words);
      ])

(* steals / completed / budget_s are absent, not null, on rows that
   lack them *)
let json_of_race r =
  let opt key f = function Some v -> [ (key, f v) ] | None -> [] in
  Json.(
    Obj
      ([
         ("kind", Str "race");
         ("name", Str r.race_name);
         ("domains", Int r.race_domains);
         ("hw_cores", Int (Domain.recommended_domain_count ()));
         ("seq_wall_s", Float r.seq_wall);
         ("seq_cost", Float r.seq_cost);
         ("seq_nodes", Int r.seq_nodes);
         ("par_wall_s", Float r.par_wall);
         ("par_cost", Float r.par_cost);
         ("par_nodes", Int r.par_nodes);
         ("speedup", Float r.speedup);
       ]
      @ opt "steals" (fun s -> Int s) r.steals
      @ opt "completed" (fun c -> Bool c) r.completed
      @ opt "budget_s" (fun b -> Float b) r.budget))

let write_json ~kernels ~races ~lint =
  let lints = Option.to_list lint in
  let rows =
    List.map json_of_kernel kernels
    @ List.map json_of_race races
    @ List.map json_of_lint lints
  in
  Out_channel.with_open_text out_file (fun oc ->
      output_string oc (Json.to_string (Json.List rows)));
  Printf.printf "\nwrote %s (%d kernel timings, %d races, %d lint timings)\n"
    out_file (List.length kernels) (List.length races) (List.length lints)

let () =
  print_tables ();
  let kernels = run_timings () in
  let races = run_races () in
  print_endline "\n== solver races (best-of wall clock, shared incumbent) ==";
  List.iter
    (fun r ->
      Printf.printf
        "  %-32s seq %8.2f ms / %7d nodes   par(%dd) %8.2f ms / %7d nodes   \
         speedup %5.2fx  cost %s\n"
        r.race_name (1e3 *. r.seq_wall) r.seq_nodes r.race_domains
        (1e3 *. r.par_wall) r.par_nodes r.speedup
        (if Rt_prelude.Float_cmp.approx_eq ~eps:1e-6 r.seq_cost r.par_cost
         then "equal"
         else if Rt_prelude.Float_cmp.exact_lt r.par_cost r.seq_cost then
           Printf.sprintf "BETTER (%.4f vs %.4f)" r.par_cost r.seq_cost
         else Printf.sprintf "worse (%.4f vs %.4f)" r.par_cost r.seq_cost))
    races;
  let lint = lint_timing () in
  (match lint with
  | Some (roots, wall, n) ->
      Printf.printf "\n== lint runtime ==\n  %-32s %8.2f ms   %d findings\n"
        roots (1e3 *. wall) n
  | None -> print_endline "\n== lint runtime == (skipped: not at repo root)");
  write_json ~kernels ~races ~lint;
  (* hard gate: a completed work-stealing row whose cost differs from
     the sequential one is a determinism bug, not a perf regression —
     fail the bench run outright *)
  let cost_bugs =
    List.filter
      (fun r ->
        r.completed = Some true
        && not (Rt_prelude.Float_cmp.exact_eq r.seq_cost r.par_cost))
      races
  in
  if cost_bugs <> [] then begin
    List.iter
      (fun r ->
        Printf.printf
          "BENCH GATE FAILURE: %s completed with par_cost %.9f <> seq_cost \
           %.9f\n"
          r.race_name r.par_cost r.seq_cost)
      cost_bugs;
    exit 1
  end;
  print_endline "\nbench: done"
