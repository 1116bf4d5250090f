(* Workload [plan]: the paper's offline planner, closed loop, one caller.

   Setup builds a pool of frame instances (n items on m processors at
   load 1.5) and their lower bounds.  One op plans one instance: the item
   list goes through [Problem.make], then each greedy (ltf-reject,
   marginal, density) is polished by [Local_search.improve_budgeted],
   costed and checked by [Solution.validate], and the cheapest plan is
   the answer.  Ops walk the pool in order, so every instance comes round
   several times in a run: the run reports each instance's fastest op
   ([Metric.fastest]), and a repeat must reproduce its first plans
   exactly. *)

open Rt_core
module M = Metric

let proc =
  Rt_power.Processor.xscale
    ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })

type size = {
  n : int;
  m : int;
  load : float;
  instances : int;
  setup_reps : int;
  ratio_ops : int;  (** every run does at least these ops; [cost_ratio] is over them *)
}

let full = { n = 200; m = 8; load = 1.5; instances = 64; setup_reps = 9; ratio_ops = 16 }
let tiny = { n = 30; m = 3; load = 1.5; instances = 2; setup_reps = 1; ratio_ops = 2 }

(* the warm-up plans the same instances for every seed, so set-up does
   the same work in every run *)
let warm_seed = 7_777

let greedies =
  [|
    ("ltf_reject", Greedy.ltf_reject);
    ("marginal_greedy", Greedy.marginal_greedy);
    ("density_reject", Greedy.density_reject);
  |]

let layers =
  [
    "problem.make";
    "greedy.ltf_reject";
    "greedy.marginal_greedy";
    "greedy.density_reject";
    "solution.cost";
    "local_search.improve";
    "solution.validate";
  ]

type inst = {
  m : int;
  horizon : float;
  items : Rt_task.Task.item list;
  lb : float;
}

let traced tr name f =
  match tr with None -> f () | Some t -> Span.within t (Span.id t name) f

let build tr size ~seed =
  Array.init size.instances (fun i ->
      let p =
        Rt_expkit.Instances.frame_instance ~proc ~seed:((seed * 1000) + i)
          ~n:size.n ~m:size.m ~load:size.load ()
      in
      let lb = traced tr "bounds.lower_bound" (fun () -> Bounds.lower_bound p) in
      { m = p.Problem.m; horizon = p.horizon; items = p.items; lb })

type plan = {
  costs : float array;  (** per greedy, after local search *)
  moves : int;
  gain : float;  (** Σ over greedies of the relative drop local search made *)
  digest : string;
}

let ( let* ) = Result.bind

(* One op: item list -> the cheapest of three validated plans. *)
let plan_op tr (inst : inst) =
  let* p =
    traced tr "problem.make" (fun () ->
        Problem.make ~proc ~m:inst.m ~horizon:inst.horizon inst.items)
  in
  let polish (name, greedy) =
    let s = traced tr ("greedy." ^ name) (fun () -> greedy p) in
    let* c0 = traced tr "solution.cost" (fun () -> Solution.cost p s) in
    let* b =
      traced tr "local_search.improve" (fun () ->
          Local_search.improve_budgeted p s)
    in
    let sol = b.Local_search.solution in
    let* c1 = traced tr "solution.cost" (fun () -> Solution.cost p sol) in
    let* () = traced tr "solution.validate" (fun () -> Solution.validate p sol) in
    let c0 = c0.Solution.total and c1 = c1.Solution.total in
    if c1 < inst.lb *. (1. -. 1e-9) then
      Error (Printf.sprintf "%s: cost %.17g below the lower bound %.17g" name c1 inst.lb)
    else if c1 > c0 *. (1. +. 1e-9) then
      Error (Printf.sprintf "%s: local search worsened %.17g to %.17g" name c0 c1)
    else Ok (c1, b.moves, (c0 -. c1) /. c0, Solution.accepted_ids sol)
  in
  let* plans =
    Array.fold_left
      (fun acc g ->
        let* acc = acc in
        let* pl = polish g in
        Ok (pl :: acc))
      (Ok []) greedies
  in
  let plans = Array.of_list (List.rev plans) in
  Ok
    {
      costs = Array.map (fun (c, _, _, _) -> c) plans;
      moves = Array.fold_left (fun a (_, mv, _, _) -> a + mv) 0 plans;
      gain = Array.fold_left (fun a (_, _, g, _) -> a +. g) 0. plans;
      digest =
        Digest.string
          (Marshal.to_string (Array.map (fun (c, _, _, ids) -> (c, ids)) plans) []);
    }

(* Run ops for [seconds]; returns the phase and the local-search moves
   and gain summed over its plans. *)
let phase ?tr ~seconds ~min_ops book first insts =
  let moves = ref 0 and gain = ref 0. in
  let ph =
    M.closed_phase ?tr ~seconds ~min_ops book ~first
      ~digest:(fun pl -> pl.digest)
      ~on_ok:(fun pl ->
        moves := !moves + pl.moves;
        gain := !gain +. pl.gain)
      (fun slot -> plan_op tr insts.(slot))
  in
  (ph, !moves, !gain)

let run ?(size = full) ~seed ~seconds ~trace () =
  let warm = build None { size with instances = 3 } ~seed:warm_seed in
  let insts, setup_s =
    M.setup ~reps:size.setup_reps (fun () ->
        let insts = build None size ~seed in
        Array.iter (fun w -> ignore (plan_op None w)) warm;
        insts)
  in
  let book = M.book () in
  let first = Array.make size.instances None in
  (* every run's timed phase starts from the same compact heap *)
  Gc.compact ();
  let gc0 = M.gc_counts () in
  let ph, _, _ = phase ~seconds ~min_ops:size.ratio_ops book first insts in
  let gc1 = M.gc_counts () in
  let heap = M.heap_peak_mb () in
  let ratio_slots = Array.sub first 0 size.ratio_ops in
  let cost_ratio =
    let num = ref 0. and den = ref 0. in
    Array.iteri
      (fun slot pl ->
        Option.iter
          (fun pl ->
            let k = float_of_int (Array.length pl.costs) in
            num := !num +. (Array.fold_left ( +. ) 0. pl.costs /. k);
            den := !den +. insts.(slot).lb)
          pl)
      ratio_slots;
    !num /. !den
  in
  let digest =
    let b = Buffer.create 256 in
    Array.iter (Option.iter (fun pl -> Buffer.add_string b pl.digest)) ratio_slots;
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
        ignore (build (Some tr) size ~seed);
        let bounds_s = Span.self_s tr "bounds.lower_bound" in
        let tph, moves, gain =
          phase ~tr ~seconds:(seconds /. 2.) ~min_ops:size.ratio_ops book first insts
        in
        let per x = x /. float_of_int tph.M.ops in
        let op_s = Span.self_s tr "op" in
        let total_s =
          op_s +. List.fold_left (fun a l -> a +. Span.self_s tr l) 0. layers
        in
        M.layer_metrics tr ~ops:tph.ops layers
        @ [
            M.v "local_search.improve.moves" "count" (per (float_of_int moves));
            M.v "local_search.improve.gain_frac" "1"
              (per gain /. float_of_int (Array.length greedies));
            M.v "bounds.lower_bound.self_s" "s" bounds_s;
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
        ("n", string_of_int size.n);
        ("m", string_of_int size.m);
        ("load", Printf.sprintf "%g" size.load);
        ("instances", string_of_int size.instances);
        ("ops", string_of_int ph.ops);
        ("digest", M.json_string digest);
      ]
      @ M.sample_meta ph.lat;
  }
