(* Fault-sweep benchmark: runs the E19 robustness sweep and emits
   BENCH_fault.json — one record per (fault rate x degradation policy)
   with the normalized cost, deadline-miss percentage and shed
   percentage. Fault rates 0 / 5 / 15% by default.

     dune exec bench/fault_bench.exe            # 12 seeds
     RT_BENCH_FULL=1 dune exec bench/fault_bench.exe  # 48 seeds *)

let out_file = "BENCH_fault.json"

let json_of_row (r : Rt_expkit.Exp_fault.row) =
  Rt_prelude.Json.(
    Obj
      [
        ("fault_rate", Float r.fault_rate);
        ("policy", Str r.policy);
        ("cost_ratio", Float r.cost_ratio);
        ("miss_pct", Float r.miss_pct);
        ("shed_pct", Float r.shed_pct);
      ])

let () =
  let seeds = if Sys.getenv_opt "RT_BENCH_FULL" = None then 12 else 48 in
  (* RT_JOBS > 1 fans the replications out over a domain pool; rows are
     byte-identical either way (Exp_fault.sweep's determinism contract) *)
  let domains = Rt_parallel.Pool.default_domains () in
  let rows =
    if domains > 1 then
      Rt_parallel.Pool.with_pool ~domains (fun pool ->
          Rt_expkit.Exp_fault.sweep ~pool ~seeds ())
    else Rt_expkit.Exp_fault.sweep ~seeds ()
  in
  Out_channel.with_open_text out_file (fun oc ->
      output_string oc
        Rt_prelude.Json.(to_string (List (List.map json_of_row rows))));
  Printf.printf "wrote %s (%d records, %d seeds)\n" out_file
    (List.length rows) seeds;
  (* echo the sweep so the run is self-describing *)
  List.iter
    (fun (r : Rt_expkit.Exp_fault.row) ->
      Printf.printf "  rate %.2f  %-16s cost %.4f  miss %6.2f%%  shed %6.2f%%\n"
        r.Rt_expkit.Exp_fault.fault_rate r.policy r.cost_ratio r.miss_pct
        r.shed_pct)
    rows
