(* Tests for rt_check: the shared instance generators and shrinker, the
   differential-oracle registry, the metamorphic laws, the fuzz driver,
   and corpus replay. *)

module Instance = Rt_check.Instance
module Oracle = Rt_check.Oracle
module Laws = Rt_check.Laws
module Corpus = Rt_check.Corpus
module Fuzz = Rt_check.Fuzz
module Fc = Rt_prelude.Float_cmp

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let instance_exn ?(proc = Instance.Cubic) ?(m = 1) ?(frame_ticks = 100) items
    =
  match Instance.make ~proc ~m ~frame_ticks items with
  | Ok t -> t
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Instance: serialization *)

let test_instance_json_roundtrip () =
  let t =
    instance_exn ~proc:Instance.Xscale_levels ~m:2
      [
        { Instance.id = 3; wcec = 17; penalty = 0.25 };
        { Instance.id = 0; wcec = 101; penalty = 0. };
      ]
  in
  match Instance.of_json (Instance.to_json t) with
  | Error e -> Alcotest.fail e
  | Ok t' -> check_bool "of_json inverts to_json" true (Instance.equal t t')

let prop_instance_json_roundtrip =
  qtest "every generated instance round-trips through JSON"
    (Instance.qcheck_gen ())
    (fun t ->
      match Instance.of_json (Instance.to_json t) with
      | Ok t' -> Instance.equal t t'
      | Error _ -> false)

let test_instance_rejects_malformed () =
  let bad items =
    Result.is_error
      (Instance.make ~proc:Instance.Cubic ~m:1 ~frame_ticks:100 items)
  in
  check_bool "duplicate ids" true
    (bad
       [
         { Instance.id = 1; wcec = 5; penalty = 0. };
         { Instance.id = 1; wcec = 6; penalty = 0. };
       ]);
  check_bool "zero cycles" true
    (bad [ { Instance.id = 1; wcec = 0; penalty = 0. } ]);
  check_bool "negative penalty" true
    (bad [ { Instance.id = 1; wcec = 5; penalty = -1. } ]);
  check_bool "nan penalty" true
    (bad [ { Instance.id = 1; wcec = 5; penalty = Float.nan } ])

(* ------------------------------------------------------------------ *)
(* Instance: generation and shrinking *)

let test_generate_deterministic () =
  let gen seed =
    Instance.generate
      (Rt_prelude.Rng.create ~seed)
      Instance.default_params
  in
  check_bool "same seed, same instance" true (Instance.equal (gen 11) (gen 11));
  check_bool "different seeds differ somewhere" true
    (List.exists
       (fun s -> not (Instance.equal (gen 11) (gen s)))
       [ 12; 13; 14 ])

let prop_generate_well_formed =
  qtest "seeded generator only produces instances make accepts"
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let t =
        Instance.generate
          (Rt_prelude.Rng.create ~seed)
          Instance.default_params
      in
      Result.is_ok
        (Instance.make ~proc:t.Instance.proc ~m:t.Instance.m
           ~frame_ticks:t.Instance.frame_ticks t.Instance.items))

(* lexicographic measure that every shrink step must strictly decrease *)
let measure (t : Instance.t) =
  let sum f = List.fold_left (fun acc it -> acc +. f it) 0. t.Instance.items in
  ( Instance.n t,
    t.Instance.m,
    (match t.Instance.proc with Instance.Cubic -> 0 | _ -> 1),
    sum (fun it -> float_of_int it.Instance.wcec),
    sum (fun it -> it.Instance.penalty) )

let prop_shrink_well_founded =
  qtest "every shrink candidate is well-formed and strictly smaller"
    (Instance.qcheck_gen ())
    (fun t ->
      Seq.for_all
        (fun (c : Instance.t) ->
          Result.is_ok
            (Instance.make ~proc:c.Instance.proc ~m:c.Instance.m
               ~frame_ticks:c.Instance.frame_ticks c.Instance.items)
          && measure c < measure t)
        (Instance.shrink t))

let test_minimize_converges () =
  (* failure = "some item needs more than half the frame"; greedy descent
     must land on a single offending item with everything else stripped *)
  let t =
    instance_exn ~proc:Instance.Xscale ~m:3
      [
        { Instance.id = 0; wcec = 20; penalty = 1.5 };
        { Instance.id = 1; wcec = 97; penalty = 2.0 };
        { Instance.id = 2; wcec = 55; penalty = 0.75 };
        { Instance.id = 3; wcec = 31; penalty = 0.1 };
      ]
  in
  let still_fails (c : Instance.t) =
    if List.exists (fun it -> it.Instance.wcec > 50) c.Instance.items then
      Some "has a heavy item"
    else None
  in
  let m, detail = Instance.minimize ~still_fails t in
  check_bool "failure reproduced" true (detail <> None);
  check_int "one item left" 1 (Instance.n m);
  check_int "m reduced" 1 m.Instance.m;
  check_bool "proc canonicalized" true (m.Instance.proc = Instance.Cubic);
  let it = List.hd m.Instance.items in
  check_bool "wcec locally minimal" true
    (it.Instance.wcec > 50 && it.Instance.wcec / 2 <= 50);
  check_bool "penalty zeroed" true (Fc.exact_eq it.Instance.penalty 0.)

(* ------------------------------------------------------------------ *)
(* Oracles *)

let ctx_exn inst =
  match Oracle.context inst with
  | Ok ctx -> ctx
  | Error e -> Alcotest.fail e

let prop_heuristics_pass_all_oracles =
  qtest ~count:60 "every heuristic passes every oracle on seeded instances"
    QCheck2.Gen.(int_range 1 5_000)
    (fun seed ->
      let inst =
        Instance.generate
          (Rt_prelude.Rng.create ~seed)
          Instance.default_params
      in
      match Oracle.context inst with
      | Error _ -> false
      | Ok ctx ->
          List.for_all
            (fun (_, alg) ->
              Oracle.first_failure
                (Oracle.run_all ctx (alg (Oracle.problem ctx)))
              = None)
            Fuzz.algorithms)

let test_oracle_catches_invalid_solution () =
  (* drop one rejected item from a legitimate solution: the structural
     audit must flag the mismatch *)
  let inst =
    instance_exn
      [
        { Instance.id = 0; wcec = 90; penalty = 0.9 };
        { Instance.id = 1; wcec = 80; penalty = 0.2 };
      ]
  in
  let ctx = ctx_exn inst in
  let s = Rt_core.Greedy.ltf_reject (Oracle.problem ctx) in
  check_bool "baseline valid" true
    (Oracle.first_failure (Oracle.run_all ctx s) = None);
  check_bool "one task had to be rejected" true
    (s.Rt_core.Solution.rejected <> []);
  let broken = { s with Rt_core.Solution.rejected = [] } in
  match Oracle.first_failure (Oracle.run_all ctx broken) with
  | Some ("validate", _) -> ()
  | Some (other, d) ->
      Alcotest.fail (Printf.sprintf "wrong oracle fired: %s (%s)" other d)
  | None -> Alcotest.fail "invalid solution passed every oracle"

let test_oracle_exact_cap_skips () =
  let items =
    List.init 12 (fun id -> { Instance.id; wcec = 5; penalty = 0.1 })
  in
  let inst = instance_exn ~m:2 items in
  match Oracle.context ~exact_cap:4 inst with
  | Error e -> Alcotest.fail e
  | Ok ctx -> (
      check_bool "no optimum above the cap" true
        (Oracle.optimal_cost ctx = None);
      let s = Rt_core.Greedy.ltf_reject (Oracle.problem ctx) in
      match List.assoc "exact" (Oracle.run_all ctx s) with
      | Oracle.Skip _ -> ()
      | Oracle.Pass -> Alcotest.fail "exact oracle ran above its cap"
      | Oracle.Fail d -> Alcotest.fail d)

let test_oracle_registry_names () =
  check_int "four oracles" 4 (List.length Oracle.all);
  List.iter
    (fun name ->
      check_bool name true (Oracle.find name <> None))
    [ "validate"; "lower-bound"; "exact"; "replay" ]

(* ------------------------------------------------------------------ *)
(* Laws *)

let prop_laws_hold =
  qtest ~count:60 "every metamorphic law holds on seeded instances"
    QCheck2.Gen.(int_range 5_001 10_000)
    (fun seed ->
      let inst =
        Instance.generate
          (Rt_prelude.Rng.create ~seed)
          Instance.default_params
      in
      Laws.first_failure (Laws.run_all inst) = None)

let test_laws_registry_names () =
  check_int "four laws" 4 (List.length Laws.all);
  List.iter
    (fun name -> check_bool name true (Laws.find name <> None))
    [ "penalty-scaling"; "extra-processor"; "smax-relief"; "cheap-reject" ]

(* ------------------------------------------------------------------ *)
(* Fuzz driver *)

let small_config = { Fuzz.default_config with Fuzz.count = 40 }

let test_fuzz_clean_run () =
  let r = Fuzz.run ~config:small_config () in
  check_int "all instances generated" 40 r.Fuzz.instances;
  check_bool "no failures on the real heuristics" true (r.Fuzz.failures = []);
  check_bool "oracle checks ran" true (r.Fuzz.oracle_checks > 0);
  check_bool "law checks ran" true (r.Fuzz.law_checks > 0)

let test_fuzz_deterministic () =
  let s1 = Fuzz.summary (Fuzz.run ~config:small_config ()) in
  let s2 = Fuzz.summary (Fuzz.run ~config:small_config ()) in
  check_string "same config, same report" s1 s2

(* ------------------------------------------------------------------ *)
(* Corpus *)

let corpus_dir = "corpus"

let entries =
  lazy
    (match Corpus.load_dir corpus_dir with
    | Ok es -> es
    | Error e -> Alcotest.fail e)

let test_corpus_nonempty () =
  check_bool "corpus has entries" true (List.length (Lazy.force entries) >= 3)

let test_corpus_canonical () =
  List.iter
    (fun (path, e) ->
      let ic = open_in_bin path in
      let raw = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check_string
        (Filename.basename path ^ " is canonical")
        raw (Corpus.to_string e);
      check_string
        (Filename.basename path ^ " name matches file stem")
        (Filename.remove_extension (Filename.basename path))
        e.Corpus.name)
    (Lazy.force entries)

let test_corpus_replays () =
  List.iter
    (fun (path, e) ->
      match Corpus.replay ~algorithms:Fuzz.algorithms e with
      | Ok () -> ()
      | Error msg ->
          Alcotest.fail (Printf.sprintf "%s: %s" (Filename.basename path) msg))
    (Lazy.force entries)

(* Corpus replay for the delta-cost machinery: drive the local search's
   incremental loads/energies with random accepted moves on every corpus
   instance, then renormalize — the result must agree *exactly* (no eps)
   with a from-scratch Solution.cost re-evaluation. The corpus instances
   are minimized past failures, so any incremental-bookkeeping bug that
   once slipped through replays here forever. *)
let test_corpus_drift_exact () =
  List.iter
    (fun (path, e) ->
      match Instance.to_problem e.Corpus.instance with
      | Error msg ->
          Alcotest.fail (Printf.sprintf "%s: %s" (Filename.basename path) msg)
      | Ok p ->
          let s = Rt_core.Greedy.ltf_reject p in
          let d = Rt_core.Local_search.Drift_test.init p s in
          let rng = Rt_prelude.Rng.create ~seed:7 in
          for _ = 1 to 10_000 do
            ignore (Rt_core.Local_search.Drift_test.random_step rng d)
          done;
          Rt_core.Local_search.Drift_test.renormalize d;
          let sol = Rt_core.Local_search.Drift_test.solution d in
          (match Rt_core.Solution.cost p sol with
          | Error msg ->
              Alcotest.fail
                (Printf.sprintf "%s: %s" (Filename.basename path) msg)
          | Ok fresh ->
              let fresh_loads =
                Rt_partition.Partition.loads sol.Rt_core.Solution.partition
              in
              let inc_loads = Rt_core.Local_search.Drift_test.loads d in
              check_bool
                (Filename.basename path ^ " loads renormalize exactly")
                true
                (Array.for_all2 Rt_prelude.Float_cmp.exact_eq inc_loads
                   fresh_loads);
              check_bool
                (Filename.basename path ^ " cost renormalizes exactly")
                true
                (Rt_prelude.Float_cmp.exact_eq
                   (Rt_core.Local_search.Drift_test.cost d)
                   fresh.Rt_core.Solution.total)))
    (Lazy.force entries)

let test_corpus_minimized () =
  List.iter
    (fun (path, e) ->
      check_bool
        (Filename.basename path ^ " is <= 4 tasks")
        true
        (Instance.n e.Corpus.instance <= 4))
    (Lazy.force entries)

let test_corpus_save_load () =
  let e = List.nth (Lazy.force entries) 0 |> snd in
  let dir = Filename.temp_file "rt_check_corpus" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let renamed = { e with Corpus.name = "saved-copy" } in
  (match Corpus.save ~dir renamed with
  | Error msg -> Alcotest.fail msg
  | Ok path -> (
      match Corpus.load_file path with
      | Error msg -> Alcotest.fail msg
      | Ok e' ->
          check_string "round-trips through disk" (Corpus.to_string renamed)
            (Corpus.to_string e');
          Sys.remove path));
  Sys.rmdir dir

let () =
  Alcotest.run "rt_check"
    [
      ( "instance",
        [
          Alcotest.test_case "json roundtrip" `Quick
            test_instance_json_roundtrip;
          prop_instance_json_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick
            test_instance_rejects_malformed;
          Alcotest.test_case "generator deterministic" `Quick
            test_generate_deterministic;
          prop_generate_well_formed;
          prop_shrink_well_founded;
          Alcotest.test_case "minimize converges" `Quick
            test_minimize_converges;
        ] );
      ( "oracle",
        [
          prop_heuristics_pass_all_oracles;
          Alcotest.test_case "catches invalid solution" `Quick
            test_oracle_catches_invalid_solution;
          Alcotest.test_case "exact cap skips" `Quick
            test_oracle_exact_cap_skips;
          Alcotest.test_case "registry names" `Quick
            test_oracle_registry_names;
        ] );
      ( "laws",
        [
          prop_laws_hold;
          Alcotest.test_case "registry names" `Quick test_laws_registry_names;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "clean run" `Slow test_fuzz_clean_run;
          Alcotest.test_case "deterministic" `Slow test_fuzz_deterministic;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "non-empty" `Quick test_corpus_nonempty;
          Alcotest.test_case "canonical files" `Quick test_corpus_canonical;
          Alcotest.test_case "entries replay" `Quick test_corpus_replays;
          Alcotest.test_case "delta-cost drift replay" `Quick
            test_corpus_drift_exact;
          Alcotest.test_case "entries minimized" `Quick test_corpus_minimized;
          Alcotest.test_case "save/load" `Quick test_corpus_save_load;
        ] );
    ]
