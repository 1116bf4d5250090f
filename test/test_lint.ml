(* Tests for the rt-lint engine: every rule gets must-flag fixtures and a
   must-pass fixture, plus suppression-pragma behavior.  Fixtures live in
   test/lint_fixtures/ and are deliberately excluded from the build and
   from the repo-wide lint walk. *)

open Rt_lint_core

let fixture name = Filename.concat "lint_fixtures" name

let rules_of path =
  Lint_core.lint_file ~as_lib:true (fixture path)
  |> List.map (fun (f : Lint_core.finding) -> f.Lint_core.rule)

let count rule rules = List.length (List.filter (String.equal rule) rules)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let flags path rule n () =
  check_int (path ^ " flags " ^ rule) n (count rule (rules_of path))

let clean path () =
  check_int (path ^ " is clean") 0 (List.length (rules_of path))

(* ------------------------------------------------------------------ *)
(* R4: missing-mli works on paths, not parsed sources *)

let test_missing_mli () =
  let bad name = fixture (Filename.concat "lib/r4_bad" name) in
  let good = fixture "lib/r4_good/paired.ml" in
  check_bool "lonely.ml flagged" true
    (Option.is_some (Lint_core.missing_mli (bad "lonely.ml")));
  check_bool "orphan.ml flagged" true
    (Option.is_some (Lint_core.missing_mli (bad "orphan.ml")));
  check_bool "paired.ml clean" true
    (Option.is_none (Lint_core.missing_mli good));
  check_bool "mli files never flagged" true
    (Option.is_none (Lint_core.missing_mli (good ^ "i")));
  match Lint_core.missing_mli (bad "lonely.ml") with
  | Some f -> Alcotest.(check string) "rule id" "missing-mli" f.Lint_core.rule
  | None -> Alcotest.fail "expected a finding"

(* ------------------------------------------------------------------ *)
(* the walk includes interface coverage and sorts deterministically *)

let test_lint_paths () =
  let findings = Lint_core.lint_paths [ fixture "lib" ] in
  let missing =
    List.filter
      (fun (f : Lint_core.finding) -> f.Lint_core.rule = "missing-mli")
      findings
  in
  check_int "two lonely modules" 2 (List.length missing);
  let sorted = List.sort Lint_core.compare_finding findings in
  check_bool "walk output already sorted" true (findings = sorted)

let test_diagnostic_format () =
  match Lint_core.lint_file ~as_lib:true (fixture "r5_bad_phys_eq.ml") with
  | [ f ] ->
      let s = Lint_core.to_string f in
      let prefix = fixture "r5_bad_phys_eq.ml" ^ ":2:" in
      check_bool "file:line:col prefix" true
        (String.length s > String.length prefix
        && String.sub s 0 (String.length prefix) = prefix);
      check_bool "bracketed rule id" true
        (String.length s > 0
        &&
        let re = "[phys-cmp]" in
        let rec contains i =
          i + String.length re <= String.length s
          && (String.sub s i (String.length re) = re || contains (i + 1))
        in
        contains 0)
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_as_lib_scoping () =
  (* no-print and no-raise only apply to library code *)
  check_int "printf ignored outside lib" 0
    (count "no-print"
       (Lint_core.lint_file ~as_lib:false (fixture "r2_bad_printf.ml")
       |> List.map (fun (f : Lint_core.finding) -> f.Lint_core.rule)));
  check_int "failwith ignored outside lib" 0
    (count "no-raise"
       (Lint_core.lint_file ~as_lib:false (fixture "r3_bad_failwith.ml")
       |> List.map (fun (f : Lint_core.finding) -> f.Lint_core.rule)));
  (* float-cmp applies everywhere *)
  check_int "float-cmp still on outside lib" 2
    (count "float-cmp"
       (Lint_core.lint_file ~as_lib:false (fixture "r1_bad_literal.ml")
       |> List.map (fun (f : Lint_core.finding) -> f.Lint_core.rule)))

let test_suppression () =
  clean "suppress_good.ml" ();
  let rules = rules_of "suppress_bad.ml" in
  check_int "malformed pragma reported" 1 (count "suppression" rules);
  check_int "reasonless pragma does not suppress" 1 (count "phys-cmp" rules)

(* ------------------------------------------------------------------ *)
(* typed rules: findings with exact locations *)

let findings_of path = Lint_core.lint_file ~as_lib:true (fixture path)

let locations rule path =
  findings_of path
  |> List.filter_map (fun (f : Lint_core.finding) ->
         if f.Lint_core.rule = rule then Some f.Lint_core.line else None)

let test_local_float () =
  (* the old Sig_table pass could not see locally-bound floats *)
  check_int "both local comparisons flagged" 2
    (count "float-cmp" (rules_of "typed_local_float.ml"));
  Alcotest.(check (list int))
    "at the comparison sites" [ 6; 10 ]
    (locations "float-cmp" "typed_local_float.ml")

let test_typed_poly_cmp () =
  let rules = rules_of "typed_poly_cmp.ml" in
  check_int "sort/hash/equality at float-bearing types" 3
    (count "poly-cmp" rules);
  check_int "nothing else flagged" 3 (List.length rules)

let test_typed_random () =
  let rules = rules_of "typed_random.ml" in
  check_int "self_init + ambient draw flagged" 2 (count "ambient-random" rules);
  check_int "explicit Random.State passes" 2 (List.length rules)

let test_typed_wallclock () =
  Alcotest.(check (list int))
    "Sys.time flagged at its site" [ 2 ]
    (locations "wallclock" "typed_wallclock.ml")

let test_attr_suppress () =
  (* three bad comparisons; exactly one is suppressed (the one whose
     attribute names the right rule) *)
  Alcotest.(check (list int))
    "suppression silences exactly one finding" [ 3; 8 ]
    (locations "float-cmp" "attr_suppress.ml")

(* ------------------------------------------------------------------ *)
(* units of measure *)

let test_dim_planted () =
  (* the frozen regression: seconds + joules must be rejected, at the
     addition's exact location *)
  Alcotest.(check (list int))
    "seconds+joules rejected where it happens" [ 6; 8 ]
    (locations "dim-mismatch" "dim_bad_add.ml");
  let msgs =
    findings_of "dim_bad_add.ml"
    |> List.map (fun (f : Lint_core.finding) -> f.Lint_core.msg)
  in
  check_bool "message names both dimensions" true
    (List.exists
       (fun m ->
         let has s =
           let n = String.length s in
           let rec go i =
             i + n <= String.length m && (String.sub m i n = s || go (i + 1))
           in
           go 0
         in
         has "seconds" && has "joules")
       msgs)

let test_dim_combination () = clean "dim_good.ml" ()

let test_dim_fields () =
  Alcotest.(check (list int))
    "mixed-dimension field addition rejected" [ 5 ]
    (locations "dim-mismatch" "dim_rec.ml")

(* ------------------------------------------------------------------ *)
(* concurrency: domain-safety and lock discipline *)

let test_conc_guarded_good () = clean "conc_guarded_good.ml" ()

let test_conc_unguarded_ref () =
  (* both the write and the read of the captured ref, at the spawn
     closure's line *)
  Alcotest.(check (list int))
    "unguarded cross-domain ref flagged" [ 8; 8 ]
    (locations "domain-unsafe" "conc_unguarded_ref.ml")

let test_conc_unbalanced () =
  (* one finding at each bad Mutex.lock: the raise-path section and the
     never-released lock *)
  Alcotest.(check (list int))
    "unbalanced critical sections flagged" [ 9; 13 ]
    (locations "lock-unbalanced" "conc_unbalanced_lock.ml")

let test_conc_lock_order () =
  Alcotest.(check (list int))
    "opposite nesting orders flagged at both inner locks" [ 7; 8 ]
    (locations "lock-order" "conc_lock_order.ml")

let test_conc_blocking () =
  Alcotest.(check (list int))
    "Domain.join under a lock flagged" [ 6 ]
    (locations "lock-blocking" "conc_blocking.ml")

let test_conc_cross_domain () =
  (* no visible spawn site: the [@rt.cross_domain] annotation makes the
     queued closure a crossing entry point *)
  Alcotest.(check (list int))
    "annotated queued closure analysed" [ 10 ]
    (locations "domain-unsafe" "conc_cross_domain.ml")

let test_conc_deque_race () =
  (* the seeded work-stealing bug: a lock-free [len] peek in [steal]
     racing every [push] — one finding, at the peek, nothing on the
     properly locked slow path *)
  Alcotest.(check (list int))
    "racy deque peek flagged at its exact line" [ 21 ]
    (locations "domain-unsafe" "conc_deque_race.ml");
  check_int "locked slow path stays clean" 1
    (List.length (findings_of "conc_deque_race.ml"))

let test_conc_suppress () = clean "conc_suppress.ml" ()

(* ------------------------------------------------------------------ *)
(* hot paths: allocation/boxing with call-graph hotness propagation *)

let severity_of rule path =
  match
    findings_of path
    |> List.filter (fun (f : Lint_core.finding) -> f.Lint_core.rule = rule)
  with
  | f :: _ -> f.Lint_core.severity
  | [] -> Alcotest.fail ("no " ^ rule ^ " finding in " ^ path)

let test_hot_boxed_float () =
  Alcotest.(check (list int))
    "float ref flagged at its allocation" [ 4 ]
    (locations "hot-boxed-float" "hot_boxed_float.ml");
  check_bool "boxing is a warning" true
    (severity_of "hot-boxed-float" "hot_boxed_float.ml" = Finding.Warning)

let test_hot_alloc_loop () =
  (* the annotated entry is two calls above the kernel: hotness reaches
     the allocating loop through an unannotated intermediate *)
  Alcotest.(check (list int))
    "per-iteration allocation flagged inside the loop" [ 8 ]
    (locations "hot-alloc-in-loop" "hot_alloc_loop.ml");
  check_bool "loop churn is a warning" true
    (severity_of "hot-alloc-in-loop" "hot_alloc_loop.ml" = Finding.Warning)

let test_hot_list_traversal () =
  Alcotest.(check (list int))
    "traversal noted at its call" [ 3 ]
    (locations "hot-list-traversal" "hot_list_traversal.ml");
  match findings_of "hot_list_traversal.ml" with
  | [ f ] ->
      check_bool "advisory severity" true (f.Lint_core.severity = Finding.Note);
      check_bool "notes do not gate" false (Finding.gates f)
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_hot_budget_no_poll () =
  (* [drain_budgeted] never consults the clock: one error at its driver
     loop; [poll_budgeted] reads Clock in its condition and stays clean *)
  Alcotest.(check (list int))
    "witness at the clockless driver loop only" [ 18 ]
    (locations "budget-no-poll" "hot_budget_no_poll.ml");
  check_bool "missing poll is an error" true
    (severity_of "budget-no-poll" "hot_budget_no_poll.ml" = Finding.Error)

let test_hot_float_recursion () =
  (* the self-recursive scan with a float parameter is noted at its
     binding; the for-loop form of the same scan is clean *)
  Alcotest.(check (list int))
    "float recursion noted at its binding" [ 4 ]
    (locations "hot-float-recursion" "hot_float_recursion.ml");
  match findings_of "hot_float_recursion.ml" with
  | [ f ] ->
      check_bool "advisory severity" true (f.Lint_core.severity = Finding.Note);
      check_bool "notes do not gate" false (Finding.gates f)
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_hot_good () = clean "hot_good.ml" ()
let test_hot_cold_cut () = clean "hot_cold_cut.ml" ()

let test_conc_severity () =
  let sev rule path =
    match
      findings_of path
      |> List.filter (fun (f : Lint_core.finding) -> f.Lint_core.rule = rule)
    with
    | f :: _ -> f.Lint_core.severity
    | [] -> Alcotest.fail ("no " ^ rule ^ " finding in " ^ path)
  in
  check_bool "domain-unsafe is an error" true
    (sev "domain-unsafe" "conc_unguarded_ref.ml" = Finding.Error);
  check_bool "lock-unbalanced is a warning" true
    (sev "lock-unbalanced" "conc_unbalanced_lock.ml" = Finding.Warning);
  check_bool "errors and warnings gate" true
    (List.for_all Finding.gates (findings_of "conc_unbalanced_lock.ml"));
  check_bool "notes do not gate" false
    (Finding.gates
       (Finding.of_location ~severity:Finding.Note ~file:"x" ~rule:"r"
          ~msg:"m" Location.none))

(* ------------------------------------------------------------------ *)
(* Report: the JSON and SARIF renderings parse back *)

let test_report_renderers () =
  let module J = Rt_prelude.Json in
  (* a hot-boxed-float message carries UTF-8 (an em dash) *)
  let msg =
    "local function 'f' returns a boxed float; every call allocates \
     \xe2\x80\x94 flatten it into unboxed float results or accumulators"
  in
  let f =
    {
      Finding.file = "lib/core/x.ml";
      line = 3;
      col = 4;
      rule = "hot-boxed-float";
      severity = Finding.Warning;
      msg;
    }
  in
  let parse fmt =
    match J.parse (Report.render fmt [ f ]) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  let field k j =
    match J.member k j with
    | Some v -> v
    | None -> Alcotest.failf "missing %s" k
  in
  let only j =
    match ok (J.to_list j) with [ x ] -> x | _ -> Alcotest.fail "length"
  in
  let str k j = ok (J.to_str (field k j)) in
  let check_string = Alcotest.(check string) in
  let json = parse Report.Json in
  check_int "count" 1 (ok (J.to_int (field "count" json)));
  let finding = only (field "findings" json) in
  check_string "message" msg (str "message" finding);
  check_string "rule" "hot-boxed-float" (str "rule" finding);
  check_string "severity" "warning" (str "severity" finding);
  let sarif = parse Report.Sarif in
  check_string "version" "2.1.0" (str "version" sarif);
  let result = only (field "results" (only (field "runs" sarif))) in
  check_string "sarif message" msg (str "text" (field "message" result));
  check_string "ruleId" "hot-boxed-float" (str "ruleId" result);
  check_string "level" "warning" (str "level" result)

(* ------------------------------------------------------------------ *)
(* unused-export: a fixture project with a library, a program and a test *)

let export_findings ?require_cmts roots =
  Lint_core.lint_paths ?require_cmts (List.map fixture roots)
  |> List.filter (fun (f : Lint_core.finding) -> f.rule = "unused-export")

let exports = lazy (export_findings [ "export/lib"; "export/bin" ])

(* the finding naming [value], whose messages print it qualified *)
let export_finding value =
  let names (f : Lint_core.finding) =
    String.split_on_char ' ' f.msg
    |> List.exists (fun w ->
           String.equal value
             (String.trim (String.map (function ';' | ',' -> ' ' | c -> c) w)))
  in
  List.find_opt names (Lazy.force exports)

let export_clean value () =
  check_bool (value ^ " not reported") true (export_finding value = None)

let export_flagged value prefix () =
  match export_finding value with
  | None -> Alcotest.failf "%s not reported" value
  | Some f ->
      check_bool (value ^ ": " ^ f.msg) true (String.starts_with ~prefix f.msg);
      check_bool "a note" false (Finding.gates f)

let test_export_count () =
  check_int "five findings" 5 (List.length (Lazy.force exports))

let test_export_missing_cmts () =
  let only ?require_cmts () =
    match export_findings ?require_cmts [ "export_nocmt/lib" ] with
    | [ f ] -> f
    | fs -> Alcotest.failf "%d findings, want one" (List.length fs)
  in
  check_bool "a note by default" false (Finding.gates (only ()));
  check_bool "an error under --require-cmts" true
    (Finding.gates (only ~require_cmts:true ()))

let () =
  Alcotest.run "rt_lint"
    [
      ( "float-cmp",
        [
          Alcotest.test_case "literals flagged" `Quick
            (flags "r1_bad_literal.ml" "float-cmp" 2);
          Alcotest.test_case "arith + compare flagged" `Quick
            (flags "r1_bad_arith.ml" "float-cmp" 2);
          Alcotest.test_case "Float_cmp usage clean" `Quick (clean "r1_good.ml");
        ] );
      ( "no-print",
        [
          Alcotest.test_case "printf flagged" `Quick
            (flags "r2_bad_printf.ml" "no-print" 2);
          Alcotest.test_case "print_/prerr_ flagged" `Quick
            (flags "r2_bad_print.ml" "no-print" 2);
          Alcotest.test_case "sprintf + Buffer clean" `Quick
            (clean "r2_good.ml");
          Alcotest.test_case "lib-only scoping" `Quick test_as_lib_scoping;
        ] );
      ( "no-raise",
        [
          Alcotest.test_case "failwith flagged" `Quick
            (flags "r3_bad_failwith.ml" "no-raise" 1);
          Alcotest.test_case "assert false flagged" `Quick
            (flags "r3_bad_assert.ml" "no-raise" 1);
          Alcotest.test_case "@raise doc clean" `Quick (clean "r3_good.ml");
        ] );
      ( "missing-mli",
        [
          Alcotest.test_case "path rule" `Quick test_missing_mli;
          Alcotest.test_case "walk integration" `Quick test_lint_paths;
        ] );
      ( "open-stdlib+phys-cmp",
        [
          Alcotest.test_case "top-level open flagged" `Quick
            (flags "r5_bad_open_stdlib.ml" "open-stdlib" 1);
          Alcotest.test_case "local open flagged" `Quick
            (flags "r5_bad_local_open.ml" "open-stdlib" 1);
          Alcotest.test_case "(==) flagged" `Quick
            (flags "r5_bad_phys_eq.ml" "phys-cmp" 1);
          Alcotest.test_case "(!=) flagged" `Quick
            (flags "r5_bad_phys_neq.ml" "phys-cmp" 1);
          Alcotest.test_case "structural compare clean" `Quick
            (clean "r5_good.ml");
        ] );
      ( "suppression",
        [
          Alcotest.test_case "reasoned pragmas suppress" `Quick
            test_suppression;
          Alcotest.test_case "attributes silence exactly one" `Quick
            test_attr_suppress;
          Alcotest.test_case "diagnostic format" `Quick test_diagnostic_format;
        ] );
      ( "typed",
        [
          Alcotest.test_case "locally-bound floats flagged" `Quick
            test_local_float;
          Alcotest.test_case "poly compare at float-bearing types" `Quick
            test_typed_poly_cmp;
          Alcotest.test_case "ambient randomness flagged" `Quick
            test_typed_random;
          Alcotest.test_case "wall-clock reads flagged" `Quick
            test_typed_wallclock;
        ] );
      ( "dims",
        [
          Alcotest.test_case "planted seconds+joules rejected" `Quick
            test_dim_planted;
          Alcotest.test_case "products/quotients combine" `Quick
            test_dim_combination;
          Alcotest.test_case "record fields carry dims" `Quick test_dim_fields;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "guarded module clean" `Quick
            test_conc_guarded_good;
          Alcotest.test_case "unguarded cross-domain ref" `Quick
            test_conc_unguarded_ref;
          Alcotest.test_case "unbalanced lock on raise path" `Quick
            test_conc_unbalanced;
          Alcotest.test_case "inconsistent lock order" `Quick
            test_conc_lock_order;
          Alcotest.test_case "blocking call under lock" `Quick
            test_conc_blocking;
          Alcotest.test_case "[@rt.cross_domain] entry point" `Quick
            test_conc_cross_domain;
          Alcotest.test_case "racy deque fast path" `Quick
            test_conc_deque_race;
          Alcotest.test_case "pragma suppresses the race" `Quick
            test_conc_suppress;
          Alcotest.test_case "severities and gating" `Quick
            test_conc_severity;
        ] );
      ( "hot",
        [
          Alcotest.test_case "boxed float ref" `Quick test_hot_boxed_float;
          Alcotest.test_case "allocation under a propagated-hot loop" `Quick
            test_hot_alloc_loop;
          Alcotest.test_case "list traversal is advisory" `Quick
            test_hot_list_traversal;
          Alcotest.test_case "budgeted loop without a poll" `Quick
            test_hot_budget_no_poll;
          Alcotest.test_case "float recursion is advisory" `Quick
            test_hot_float_recursion;
          Alcotest.test_case "allocation-free kernel clean" `Quick
            test_hot_good;
          Alcotest.test_case "[@rt.cold] cuts propagation" `Quick
            test_hot_cold_cut;
        ] );
      ( "unused-export",
        [
          Alcotest.test_case "used export clean" `Quick
            (export_clean "Shapes.used");
          Alcotest.test_case "export nothing reaches" `Quick
            (export_flagged "Shapes.dead" "nothing reaches");
          Alcotest.test_case "test-only export" `Quick
            (export_flagged "Shapes.test_only" "no program reaches");
          Alcotest.test_case "[@@rt.test_api] export clean" `Quick
            (export_clean "Shapes.seam");
          Alcotest.test_case "cross-unit alias" `Quick
            (export_clean "Shapes.via_alias");
          Alcotest.test_case "let module alias" `Quick
            (export_clean "Shapes.via_let_module");
          Alcotest.test_case "nested-module export" `Quick (fun () ->
              export_clean "Shapes.Nested.inner" ();
              export_flagged "Shapes.Nested.inner_dead" "nothing reaches" ());
          Alcotest.test_case "named only in its unit" `Quick (fun () ->
              export_flagged "Shapes.private_helper" "nothing outside" ();
              export_flagged "Facade.dead_end" "nothing outside" ());
          Alcotest.test_case "nothing else reported" `Quick test_export_count;
          Alcotest.test_case "missing .cmt files" `Quick
            test_export_missing_cmts;
        ] );
      ( "unknown-attribute",
        [
          Alcotest.test_case "unregistered rt. names flagged" `Quick
            (flags "attr_unknown.ml" "unknown-attribute" 2);
        ] );
      ( "report",
        [
          Alcotest.test_case "json and sarif parse back" `Quick
            test_report_renderers;
        ] );
    ]
