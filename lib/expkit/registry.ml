type experiment = {
  id : string;
  title : string;
  expectation : string;
  run : unit -> Rt_prelude.Tablefmt.t;
  run_quick : unit -> Rt_prelude.Tablefmt.t;
}

let all =
  [
    {
      id = "e1";
      title = "E1: total cost vs. exact optimum (small instances)";
      expectation =
        "ltf-ls/marginal-ls within a few percent of 1.0; unsorted clearly \
         worse; gaps shrink as n/m grows";
      run = (fun () -> Exp_homog.e1_vs_optimal ());
      run_quick = (fun () -> Exp_homog.e1_vs_optimal ~seeds:5 ());
    };
    {
      id = "e2";
      title = "E2: total cost vs. lower bound (large instances)";
      expectation =
        "ratios stay modest (the bound itself is loose by the pooling \
         relaxation); polished variants dominate their bases";
      run = (fun () -> Exp_homog.e2_vs_lower_bound ());
      run_quick = (fun () -> Exp_homog.e2_vs_lower_bound ~seeds:4 ());
    };
    {
      id = "e3";
      title = "E3: load sweep across the forced-rejection threshold";
      expectation =
        "acceptance ~100% below load 1.0 then falls; above 1.0 the \
         rejection-aware algorithms hold their ratio while unsorted \
         degrades";
      run = (fun () -> Exp_homog.e3_load_sweep ());
      run_quick = (fun () -> Exp_homog.e3_load_sweep ~seeds:4 ());
    };
    {
      id = "e4";
      title = "E4: sensitivity to the penalty model";
      expectation =
        "ranking stable; inverse penalties favour density ordering, \
         uniform penalties favour marginal ordering";
      run = (fun () -> Exp_homog.e4_penalty_models ());
      run_quick = (fun () -> Exp_homog.e4_penalty_models ~seeds:4 ());
    };
    {
      id = "e5";
      title = "E5: discrete speed grids vs. ideal spectrum";
      expectation =
        "ratios >= 1, shrinking monotonically as the grid refines; the \
         2-level grid is worst at light load";
      run = (fun () -> Exp_proc.e5_discrete_levels ());
      run_quick = (fun () -> Exp_proc.e5_discrete_levels ~seeds:5 ());
    };
    {
      id = "e6";
      title = "E6: the critical-speed clamp under growing leakage";
      expectation =
        "ratio 1.0 at p_ind = 0, growing with leakage (stretching to the \
         deadline wastes leakage-dominated energy)";
      run = (fun () -> Exp_proc.e6_leakage ());
      run_quick = (fun () -> Exp_proc.e6_leakage ~seeds:5 ());
    };
    {
      id = "e7";
      title = "E7: substrate validation - LTF/RAND vs optimal (Fig. 4 shape)";
      expectation =
        "LTF close to 1.0 (<= 1.13 analytically), RAND worse; both improve \
         with more tasks per core";
      run = (fun () -> Exp_substrate.e7_ltf_vs_rand ());
      run_quick = (fun () -> Exp_substrate.e7_ltf_vs_rand ~seeds:4 ());
    };
    {
      id = "e7b";
      title = "E7b: heterogeneous power - LEUF/RAND vs optimal (Fig. 5 shape)";
      expectation = "LEUF close to optimal (<= 1.412 analytically), RAND worse";
      run = (fun () -> Exp_substrate.e7_hetero_leuf ());
      run_quick = (fun () -> Exp_substrate.e7_hetero_leuf ~seeds:3 ());
    };
    {
      id = "e8";
      title = "E8: leakage-aware family ordering under sleep overheads (Fig. 6 shape)";
      expectation =
        "LA+LTF+FF+PROC best everywhere; PROC helps more at E_sw = 4 than \
         at E_sw = 12";
      run = (fun () -> Exp_leakage.e8_leakage_aware ());
      run_quick = (fun () -> Exp_leakage.e8_leakage_aware ~seeds:4 ());
    };
    {
      id = "e9";
      title = "E9: two-PE system, workload-independent non-DVS PE (Fig. 7 shape)";
      expectation =
        "DP ~= 1.0 everywhere; E-GREEDY <= GREEDY; both greedy variants \
         degrade as U2* grows";
      run = (fun () -> Exp_twope.e9_workload_independent ());
      run_quick = (fun () -> Exp_twope.e9_workload_independent ~seeds:4 ());
    };
    {
      id = "e10";
      title = "E10: two-PE system, workload-dependent non-DVS PE (Fig. 8 shape)";
      expectation =
        "S-GREEDY close to optimal; GREEDY much worse, worst at small U2* \
         under the inverse coupling (it over-offloads)";
      run = (fun () -> Exp_twope.e10_workload_dependent ());
      run_quick = (fun () -> Exp_twope.e10_workload_dependent ~seeds:4 ());
    };
    {
      id = "e11";
      title = "E11: allocation cost - ROUNDING vs E-ROUNDING (Fig. 9a/9b shape)";
      expectation =
        "both close to the LP bound; E-ROUNDING never worse; gap widens \
         with more processor types";
      run = (fun () -> Exp_alloc.e11_rounding ());
      run_quick = (fun () -> Exp_alloc.e11_rounding ~seeds:3 ());
    };
    {
      id = "e12";
      title = "E12: allocation cost - First-Fit vs RS-LEUF, one ideal type (Fig. 9c shape)";
      expectation =
        "RS-LEUF at or below First-Fit everywhere; biggest wins at large \
         gamma and small n";
      run = (fun () -> Exp_alloc.e12_rs_leuf ());
      run_quick = (fun () -> Exp_alloc.e12_rs_leuf ~seeds:4 ());
    };
    {
      id = "e13";
      title = "E13: online admission policies under a load sweep (extension)";
      expectation =
        "ratios grow with load (the clairvoyant bound ignores \
         interference); profitable is consistently best; admit-all's \
         acceptance rate collapses under overload; profitable's energy \
         stays a few percent above YDS on the same admitted jobs";
      run = (fun () -> Exp_online.e13_online_admission ());
      run_quick = (fun () -> Exp_online.e13_online_admission ~seeds:5 ());
    };
    {
      id = "e14";
      title = "E14 (ablation): synchronized voltage rail vs independent rails";
      expectation =
        "ratio 1.0 for balanced loads, growing with imbalance and with \
         core count (more cores forced off their individually best speed)";
      run = (fun () -> Exp_sync.e14_sync_rails ());
      run_quick = (fun () -> Exp_sync.e14_sync_rails ~seeds:8 ());
    };
    {
      id = "e15";
      title = "E15 (ablation): partitioned scheduling vs the migratory optimum";
      expectation =
        "converges to 1.0 as task granularity rises (coarse tasks carry \
         the intrinsic partition-vs-migration gap, up to 4/3); the \
         unsorted baseline converges slower";
      run = (fun () -> Exp_migration.e15_partition_vs_migration ());
      run_quick = (fun () -> Exp_migration.e15_partition_vs_migration ~seeds:8 ());
    };
    {
      id = "e16";
      title = "E16 (extension): graceful degradation vs binary rejection";
      expectation =
        "exact ratio <= 1 everywhere and well below 1 under overload \
         (concave losses make partial service cheap); greedy tracks it; \
         the degraded-task share grows with load";
      run = (fun () -> Exp_qos.e16_graceful_degradation ());
      run_quick = (fun () -> Exp_qos.e16_graceful_degradation ~seeds:5 ());
    };
    {
      id = "e17";
      title = "E17 (ablation): the uniprocessor DP accuracy/speed dial";
      expectation =
        "measured: the density-greedy guard keeps the cost ratio at 1.0 \
         across the sweep while the DP table shrinks ~60x - the dial buys \
         speed nearly free on this workload family";
      run = (fun () -> Exp_dp_dial.e17_dp_dial ());
      run_quick = (fun () -> Exp_dp_dial.e17_dp_dial ~seeds:8 ());
    };
    {
      id = "e18";
      title = "E18 (analysis): the penalty-calibration Pareto frontier";
      expectation =
        "acceptance and energy rise monotonically with lambda while the \
         unscaled penalty paid falls - the frontier an integrator tunes \
         along";
      run = (fun () -> Exp_pareto.e18_penalty_frontier ());
      run_quick = (fun () -> Exp_pareto.e18_penalty_frontier ~seeds:5 ());
    };
    {
      id = "e19";
      title = "E19 (robustness): fault sweep - degradation policies vs no-op";
      expectation =
        "at rate 0 every policy matches the baseline (cost 1.0, no \
         misses); as the rate grows, no-op's misses and cost climb while \
         the shed/repartition policies hold zero misses, paying a modest \
         shed/penalty premium instead";
      run = (fun () -> Exp_fault.e19_fault_sweep ());
      run_quick = (fun () -> Exp_fault.e19_fault_sweep ~seeds:4 ());
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let print ?(quick = false) e =
  (* lint: allow-no-print "registry runner is the sanctioned experiment output sink" *)
  Printf.printf "\n== %s ==\n" e.title;
  Rt_prelude.Tablefmt.print (if quick then e.run_quick () else e.run ());
  (* lint: allow-no-print "registry runner is the sanctioned experiment output sink" *)
  Printf.printf "expected shape: %s\n" e.expectation
