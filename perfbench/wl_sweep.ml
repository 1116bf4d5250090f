(* Workload [sweep]: the inner loop of the experiment suite, closed loop.

   One op is one seed's experiment battery, in the style of E1, E13 and
   E16: on an n=12, m=3 instance, each greedy plus local search against
   the branch-and-bound optimum; [Qos.greedy_degrade] on a 40-task graceful
   menu set on 8 processors; and online admission on an 80-job stream
   priced against the YDS offline optimum of the admitted jobs.  Setup
   generates a pool of batteries from the seed; ops cycle over the pool,
   and every repeat must reproduce its first result exactly. *)

open Rt_core
module M = Metric
module Adm = Rt_online.Admission

let proc = Wl_plan.proc

type size = {
  pool : int;
  bb_n : int;
  qos_n : int;
  jobs : int;
  setup_reps : int;
}

let full = { pool = 32; bb_n = 12; qos_n = 40; jobs = 80; setup_reps = 9 }
let tiny = { pool = 2; bb_n = 6; qos_n = 8; jobs = 12; setup_reps = 1 }

let layers =
  [
    "problem.make";
    "greedy.ltf_reject";
    "greedy.marginal_greedy";
    "greedy.density_reject";
    "solution.cost";
    "local_search.improve";
    "exact.branch_and_bound";
    "qos.greedy_degrade";
    "qos.validate";
    "admission.simulate";
    "yds.energy";
  ]

type battery = {
  bb : Wl_plan.inst;
  qp : Problem.t;  (** platform context for the QoS menus *)
  menus : Qos.qtask list;
  jobs : Rt_online.Job.t list;
}

let build size ~seed =
  Array.init size.pool (fun j ->
      let s = (seed * 1000) + j in
      let bb =
        Rt_expkit.Instances.frame_instance ~proc ~seed:s ~n:size.bb_n ~m:3
          ~load:1.4 ()
      in
      let q =
        Rt_expkit.Instances.frame_instance ~proc ~seed:(s + 500) ~n:size.qos_n
          ~m:8 ~load:1.4 ()
      in
      let qp =
        match Problem.make ~proc ~m:8 ~horizon:q.horizon [] with
        | Ok p -> p
        | Error e -> invalid_arg e
      in
      let jobs =
        Rt_online.Job.stream (Rt_prelude.Rng.create ~seed:s) ~n:size.jobs
          ~rate:(1.2 /. 25.) ~s_max:1. ~mean_cycles:25. ~slack_lo:1.2
          ~slack_hi:4. ~penalty_factor:1.3
      in
      {
        bb = { m = bb.m; horizon = bb.horizon; items = bb.items; lb = 0. };
        qp;
        menus = List.map (Qos.graceful ~steps:4 ~curve:2.) q.items;
        jobs;
      })

type result = {
  heuristic : float array;  (** cost of each greedy + local search *)
  opt : float;
  nodes : int;
  digest : string;
}

let ( let* ) = Result.bind
let traced = Wl_plan.traced
let tol x = 1e-9 *. Float.max 1. (Float.abs x)

let battery_op tr (b : battery) =
  let inst = b.bb in
  let* p =
    traced tr "problem.make" (fun () ->
        Problem.make ~proc ~m:inst.m ~horizon:inst.horizon inst.items)
  in
  let* heuristic =
    Array.fold_left
      (fun acc (name, greedy) ->
        let* acc = acc in
        let s = traced tr ("greedy." ^ name) (fun () -> greedy p) in
        let* ls =
          traced tr "local_search.improve" (fun () ->
              Local_search.improve_budgeted p s)
        in
        let* c =
          traced tr "solution.cost" (fun () ->
              Solution.cost p ls.Local_search.solution)
        in
        Ok (c.Solution.total :: acc))
      (Ok []) Wl_plan.greedies
  in
  let heuristic = Array.of_list (List.rev heuristic) in
  let* bb =
    traced tr "exact.branch_and_bound" (fun () ->
        Exact.branch_and_bound_budgeted p)
  in
  let* opt =
    traced tr "solution.cost" (fun () -> Solution.cost p bb.Exact.solution)
  in
  let opt = opt.Solution.total in
  let* () =
    if Array.for_all (fun h -> opt <= h +. tol h) heuristic then Ok ()
    else Error (Printf.sprintf "B&B optimum %.17g above a heuristic" opt)
  in
  let q = traced tr "qos.greedy_degrade" (fun () -> Qos.greedy_degrade b.qp b.menus) in
  let* () = traced tr "qos.validate" (fun () -> Qos.validate b.qp b.menus q) in
  let* o =
    traced tr "admission.simulate" (fun () ->
        Adm.simulate ~proc ~policy:Adm.Profitable b.jobs)
    |> Result.map_error Adm.error_to_string
  in
  let admitted =
    List.filter
      (fun (j : Rt_online.Job.t) -> List.mem j.id o.Adm.admitted)
      b.jobs
  in
  let* yds = traced tr "yds.energy" (fun () -> Rt_online.Yds.energy ~proc admitted) in
  let* () =
    if yds <= o.energy +. tol o.energy then Ok ()
    else
      Error
        (Printf.sprintf "online energy %.17g below the YDS optimum %.17g"
           o.energy yds)
  in
  let digest =
    Digest.string (Marshal.to_string (heuristic, opt, bb.nodes, q.Qos.choices, o, yds) [])
  in
  Ok { heuristic; opt; nodes = bb.nodes; digest }

(* Run ops for [seconds]; returns the phase and the B&B nodes summed
   over its batteries. *)
let phase ?tr ~seconds ~min_ops book first pool =
  let nodes = ref 0 in
  let ph =
    M.closed_phase ?tr ~seconds ~min_ops book ~first
      ~digest:(fun r -> r.digest)
      ~on_ok:(fun r -> nodes := !nodes + r.nodes)
      (fun slot -> battery_op tr pool.(slot))
  in
  (ph, !nodes)

let run ?(size = full) ~seed ~seconds ~trace () =
  (* the warm-up runs the same batteries for every seed, so set-up does
     the same work in every run *)
  let warm = build { size with pool = 3 } ~seed:Wl_plan.warm_seed in
  let pool, setup_s =
    M.setup ~reps:size.setup_reps (fun () ->
        let pool = build size ~seed in
        Array.iter (fun w -> ignore (battery_op None w)) warm;
        pool)
  in
  let book = M.book () in
  let first = Array.make size.pool None in
  (* every battery runs at least once, so [cost_ratio] covers the pool *)
  let min_ops = size.pool in
  (* every run's timed phase starts from the same compact heap *)
  Gc.compact ();
  let gc0 = M.gc_counts () in
  let ph, _ = phase ~seconds ~min_ops book first pool in
  let gc1 = M.gc_counts () in
  let heap = M.heap_peak_mb () in
  let cost_ratio =
    let num = ref 0. and den = ref 0. in
    Array.iter
      (Option.iter (fun r ->
           let k = float_of_int (Array.length r.heuristic) in
           num := !num +. (Array.fold_left ( +. ) 0. r.heuristic /. k);
           den := !den +. r.opt))
      first;
    !num /. !den
  in
  let digest =
    let b = Buffer.create 256 in
    Array.iter (Option.iter (fun r -> Buffer.add_string b r.digest)) first;
    M.digest b
  in
  let e2e =
    [
      M.v "setup_s" "s" setup_s;
      M.v "throughput_ops_s" "ops/s" (M.fastest_rate ph.fast);
      M.v "cost_ratio" "1" cost_ratio;
      M.v "heap_peak_mb" "MB" heap;
      M.v "gc.minor_collections" "count" (float_of_int (fst gc1 - fst gc0));
      M.v "gc.major_collections" "count" (float_of_int (snd gc1 - snd gc0));
    ]
    @ M.latency_metrics ~p50:(Pct.median (M.ran ph.fast)) ph.lat
  in
  let tr = if trace then Some (Span.create ()) else None in
  let layer =
    match tr with
    | None -> []
    | Some tr ->
        let tph, nodes = phase ~tr ~seconds:(seconds /. 2.) ~min_ops book first pool in
        let bb_s = Span.self_s tr "exact.branch_and_bound" in
        let op_s = Span.self_s tr "op" in
        let total_s =
          op_s +. List.fold_left (fun a l -> a +. Span.self_s tr l) 0. layers
        in
        M.layer_metrics tr ~ops:tph.ops layers
        @ [
            M.v "exact.branch_and_bound.nodes" "count"
              (float_of_int nodes /. float_of_int tph.M.ops);
            M.v "exact.branch_and_bound.nodes_per_s" "1/s"
              (float_of_int nodes /. bb_s);
            M.v "trace.overhead_s" "s" (Pct.median tph.lat -. Pct.median ph.lat);
            M.v "trace.unattributed_frac" "1" (op_s /. total_s);
          ]
  in
  {
    M.attempted = book.attempted;
    failed = book.failed;
    failures = List.rev book.msgs;
    metrics = e2e @ layer;
    spans = tr;
    meta =
      [
        ("pool", string_of_int size.pool);
        ("bb_n", string_of_int size.bb_n);
        ("bb_m", "3");
        ("qos_n", string_of_int size.qos_n);
        ("qos_m", "8");
        ("jobs", string_of_int size.jobs);
        ("ops", string_of_int ph.ops);
        ("digest", M.json_string digest);
      ]
      @ M.sample_meta ph.lat;
  }
