module Rng = Rt_prelude.Rng

type config = {
  seed : int;
  count : int;
  time_budget : float option;
  exact_cap : int;
  params : Instance.params;
}

let default_config =
  {
    seed = 20260807;
    count = 500;
    time_budget = None;
    exact_cap = 10;
    params = Instance.default_params;
  }

type failure = {
  algorithm : string;
  oracle : string;
  detail : string;
  minimized : Instance.t;
  original : Instance.t;
}

type report = {
  instances : int;
  oracle_checks : int;
  law_checks : int;
  skipped : int;
  failures : failure list;
}

let algorithms =
  Rt_core.Greedy.named
  @ List.map
      (fun (name, alg) ->
        (name ^ "+ls", Rt_core.Local_search.with_local_search alg))
      Rt_core.Greedy.named

(* property closures for the minimizer: "does this exact failure still
   fire on the candidate instance?" *)

let oracle_still_fails ~exact_cap alg (oracle : Oracle.t) inst =
  match Oracle.context ~exact_cap inst with
  | Error _ -> None (* a candidate that no longer builds is not smaller *)
  | Ok ctx -> (
      match oracle.Oracle.run ctx (alg (Oracle.problem ctx)) with
      | Oracle.Fail d -> Some d
      | Oracle.Pass | Oracle.Skip _ -> None)

let law_still_fails (law : Laws.t) inst =
  match law.Laws.run inst with
  | Laws.Fail d -> Some d
  | Laws.Pass | Laws.Skip _ -> None

(* Everything one instance contributes to the report: counters plus its
   already-minimized failures, in discovery order. Pure in the instance
   index, so instances can be evaluated on any domain in any order —
   cross-instance state (dedup) lives in the sequential merge. *)
type inst_eval = {
  oracle_evals : int;
  law_evals : int;
  skips : int;
  fails : failure list;
}

let eval_instance ~config i =
  let rng = Rng.create ~seed:((config.seed * 1_000_003) + i) in
  let inst = Instance.generate rng config.params in
  let oracle_checks = ref 0 in
  let law_checks = ref 0 in
  let skipped = ref 0 in
  let fails = ref [] in
  let record ~algorithm ~oracle ~still_fails inst =
    let minimized, detail = Instance.minimize ~still_fails inst in
    let detail = Option.value detail ~default:"(failure did not reproduce)" in
    fails := { algorithm; oracle; detail; minimized; original = inst } :: !fails
  in
  (match Oracle.context ~exact_cap:config.exact_cap inst with
  | Error e ->
      record ~algorithm:"-" ~oracle:"generator"
        ~still_fails:(fun c ->
          match Oracle.context ~exact_cap:config.exact_cap c with
          | Error e -> Some e
          | Ok _ -> None)
        inst;
      ignore e
  | Ok ctx ->
      List.iter
        (fun (name, alg) ->
          let s = alg (Oracle.problem ctx) in
          List.iter
            (fun (oracle_name, outcome) ->
              match outcome with
              | Oracle.Pass -> incr oracle_checks
              | Oracle.Skip _ -> incr skipped
              | Oracle.Fail _ ->
                  incr oracle_checks;
                  let oracle =
                    match Oracle.find oracle_name with
                    | Some o -> o
                    | None -> invalid_arg "unknown oracle in registry"
                  in
                  record ~algorithm:name ~oracle:oracle_name
                    ~still_fails:
                      (oracle_still_fails ~exact_cap:config.exact_cap alg
                         oracle)
                    inst)
            (Oracle.run_all ctx s))
        algorithms);
  List.iter
    (fun (law_name, outcome) ->
      match outcome with
      | Laws.Pass -> incr law_checks
      | Laws.Skip _ -> incr skipped
      | Laws.Fail _ ->
          incr law_checks;
          let law =
            match Laws.find law_name with
            | Some l -> l
            | None -> invalid_arg "unknown law in registry"
          in
          record ~algorithm:"-" ~oracle:law_name
            ~still_fails:(law_still_fails law) inst)
    (Laws.run_all inst);
  {
    oracle_evals = !oracle_checks;
    law_evals = !law_checks;
    skips = !skipped;
    fails = List.rev !fails;
  }

let run ?pool ?(config = default_config) () =
  (* the budget is monotonic wall-clock time (Rt_prelude.Clock): Sys.time
     would sum CPU over every domain and expire the budget early under a
     parallel pool *)
  let started = Rt_prelude.Clock.now () in
  let out_of_time () =
    match config.time_budget with
    | None -> false
    | Some budget ->
        Rt_prelude.Float_cmp.exact_gt
          (Rt_prelude.Clock.elapsed ~since:started)
          budget
  in
  let instances = ref 0 in
  let oracle_checks = ref 0 in
  let law_checks = ref 0 in
  let skipped = ref 0 in
  let failures = ref [] in
  let seen = Hashtbl.create 16 in
  (* sequential, index-ordered merge: parallel evaluation feeds the very
     same fold the sequential loop does, so the report is byte-identical
     at any domain count (cross-instance dedup is order-sensitive) *)
  let merge r =
    incr instances;
    oracle_checks := !oracle_checks + r.oracle_evals;
    law_checks := !law_checks + r.law_evals;
    skipped := !skipped + r.skips;
    List.iter
      (fun f ->
        let key =
          ( f.algorithm,
            f.oracle,
            Rt_prelude.Json.to_string (Instance.to_json f.minimized) )
        in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          failures := f :: !failures
        end)
      r.fails
  in
  (match pool with
  | None ->
      let i = ref 0 in
      while !i < config.count && not (out_of_time ()) do
        incr i;
        merge (eval_instance ~config !i)
      done
  | Some pool ->
      (* chunked fan-out: the wall-clock budget is polled between chunks,
         so a budgeted parallel run stops at a chunk boundary *)
      let chunk = max 1 (4 * Rt_parallel.Pool.size pool) in
      let i = ref 0 in
      while !i < config.count && not (out_of_time ()) do
        let hi = min config.count (!i + chunk) in
        let batch = Rt_prelude.Math_util.range (!i + 1) hi in
        i := hi;
        List.iter merge
          (Rt_parallel.Pool.run_list pool
             (List.map (fun j () -> eval_instance ~config j) batch))
      done);
  {
    instances = !instances;
    oracle_checks = !oracle_checks;
    law_checks = !law_checks;
    skipped = !skipped;
    failures = List.rev !failures;
  }

let failure_entry ~name f =
  let opt_cost =
    match Oracle.context f.minimized with
    | Error _ -> None
    | Ok ctx -> Oracle.optimal_cost ctx
  in
  {
    Corpus.name;
    algorithm = f.algorithm;
    oracle = f.oracle;
    detail = f.detail;
    opt_cost;
    instance = f.minimized;
  }

let summary r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "fuzz: %d instances, %d oracle checks, %d law checks, %d skipped, %d \
        failure(s)\n"
       r.instances r.oracle_checks r.law_checks r.skipped
       (List.length r.failures));
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "  FAIL [%s/%s] %s\n    minimized: %s\n    %s\n"
           f.algorithm f.oracle
           (Instance.label f.original)
           (Instance.label f.minimized)
           f.detail))
    r.failures;
  Buffer.contents buf
