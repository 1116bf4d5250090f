(* rt-lint command line: lint the given files/directories (default: the
   four source roots) and exit non-zero when any finding survives the
   suppressions.  See docs/LINT.md for the rule set and docs/UNITS.md for
   the dimension analysis. *)

open Rt_lint_core

let default_roots = [ "lib"; "bin"; "bench"; "examples" ]

let usage oc =
  output_string oc
    "usage: rt_lint [OPTION...] [PATH...]\n\n\
     Lints every .ml/.mli under each PATH (directories are walked\n\
     recursively; default roots: lib bin bench examples).  Exits 1 when\n\
     any finding is reported.\n\n\
     Options:\n\
     \  --format=text|json|sarif   output format (default: text)\n\
     \  --rule=ID                  only report findings of rule ID\n\
     \                             (repeatable)\n\
     \  --require-cmts             report sources whose typed pass could\n\
     \                             not run instead of skipping them\n\
     \  --dim-coverage=P1,P2:MIN   check that at least MIN (a fraction,\n\
     \                             e.g. 0.9) of float-valued interface\n\
     \                             declarations under the given path\n\
     \                             prefixes carry [@rt.dim] annotations\n\
     \  -o FILE                    write the report to FILE\n"

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "rt-lint: %s\n" msg;
      usage stderr;
      exit 2)
    fmt

let split_flag a =
  match String.index_opt a '=' with
  | Some i ->
      ( String.sub a 0 i,
        Some (String.sub a (i + 1) (String.length a - i - 1)) )
  | None -> (a, None)

type config = {
  mutable format : Report.format;
  mutable rules : string list;
  mutable require_cmts : bool;
  mutable coverage : (string list * float) option;
  mutable out : string option;
  mutable roots : string list;
}

let parse_coverage spec =
  match String.index_opt spec ':' with
  | None -> fail "--dim-coverage expects PREFIX,...:MIN (got %s)" spec
  | Some i ->
      let prefixes =
        String.sub spec 0 i |> String.split_on_char ','
        |> List.filter (fun s -> s <> "")
      in
      let min_s = String.sub spec (i + 1) (String.length spec - i - 1) in
      let min =
        match float_of_string_opt min_s with
        | Some f when f >= 0.0 && f <= 1.0 -> f
        | _ -> fail "--dim-coverage threshold must be in [0,1] (got %s)" min_s
      in
      (prefixes, min)

let parse_args argv =
  let cfg =
    {
      format = Report.Text;
      rules = [];
      require_cmts = false;
      coverage = None;
      out = None;
      roots = [];
    }
  in
  let rec go = function
    | [] -> ()
    | ("--help" | "-help") :: _ ->
        usage stdout;
        exit 0
    | "-o" :: file :: rest ->
        cfg.out <- Some file;
        go rest
    | "-o" :: [] -> fail "-o expects a file name"
    | a :: rest when String.length a > 0 && a.[0] = '-' -> (
        match split_flag a with
        | "--format", Some f -> (
            match Report.format_of_string f with
            | Some fmt ->
                cfg.format <- fmt;
                go rest
            | None -> fail "unknown format %s (want text, json or sarif)" f)
        | "--rule", Some r ->
            cfg.rules <- r :: cfg.rules;
            go rest
        | "--require-cmts", None ->
            cfg.require_cmts <- true;
            go rest
        | "--dim-coverage", Some spec ->
            cfg.coverage <- Some (parse_coverage spec);
            go rest
        | _ -> fail "unknown option %s" a)
    | a :: rest ->
        cfg.roots <- a :: cfg.roots;
        go rest
  in
  go (List.tl (Array.to_list argv));
  cfg.roots <- List.rev cfg.roots;
  cfg.rules <- List.rev cfg.rules;
  cfg

let () =
  let cfg = parse_args Sys.argv in
  let roots = if cfg.roots = [] then default_roots else cfg.roots in
  List.iter
    (fun r ->
      if not (Sys.file_exists r) then begin
        Printf.eprintf "rt-lint: no such file or directory: %s\n" r;
        exit 2
      end)
    roots;
  let findings = Lint_core.lint_paths ~require_cmts:cfg.require_cmts roots in
  let findings =
    match cfg.rules with
    | [] -> findings
    | rules ->
        List.filter (fun (f : Finding.t) -> List.mem f.rule rules)
          findings
  in
  let report = Report.render cfg.format findings in
  (match cfg.out with
  | None -> print_string report
  | Some file ->
      let oc = open_out file in
      output_string oc report;
      close_out oc);
  let coverage_failed =
    match cfg.coverage with
    | None -> false
    | Some (prefixes, min) ->
        let c = Lint_core.dim_coverage roots ~under:prefixes in
        let ratio =
          if c.Dim_table.total = 0 then 1.0
          else float_of_int c.Dim_table.annotated /. float_of_int c.Dim_table.total
        in
        Printf.eprintf
          "rt-lint: dimension coverage under %s: %d/%d (%.0f%%, need %.0f%%)\n"
          (String.concat "," prefixes)
          c.Dim_table.annotated c.Dim_table.total (100.0 *. ratio)
          (100.0 *. min);
        if ratio >= min then false
        else begin
          List.iter
            (fun (file, line, name) ->
              Printf.eprintf "  %s:%d: %s has no [@rt.dim] annotation\n" file
                line name)
            c.Dim_table.missing;
          true
        end
  in
  (* Note-level findings are rendered but never fail the gate; errors
     and warnings do. *)
  match List.length (List.filter Finding.gates findings) with
  | 0 when not coverage_failed -> ()
  | 0 -> exit 1
  | n ->
      Printf.eprintf "rt-lint: %d issue%s found\n" n (if n = 1 then "" else "s");
      exit 1
