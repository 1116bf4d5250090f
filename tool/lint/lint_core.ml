(* rt-lint engine, v2: a syntactic pass over the parsetree for the purity
   rules plus a typed pass over the typedtree (see Typed_lint) for
   everything that needs real type information.  PR 1's Sig_table name
   heuristics are gone: float detection and the dimension analysis use the
   compiler's own inference, via the .cmt files dune produces (repo walk)
   or a standalone typing run (self-contained fixtures). *)

type finding = Finding.t = {
  file : string;
  line : int;
  col : int;
  rule : string;
  severity : Finding.severity;
  msg : string;
}

let to_string = Finding.to_string
let compare_finding = Finding.compare

(* ------------------------------------------------------------------ *)
(* Suppression pragmas (comment-based, line-scoped)                     *)
(* ------------------------------------------------------------------ *)

(* A suppression is a comment of the form

     (* lint: allow-<rule> "reason" *)

   on the finding's own line or the line directly above it.  The reason
   string is mandatory; a pragma without one is itself a finding. *)

type pragmas = {
  allows : (int * string) list; (* (line, rule) *)
  raise_docs : int list;        (* lines whose text mentions @raise *)
  malformed : (int * int) list; (* (line, col) of a reason-less pragma *)
}

let is_rule_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-'

(* Parse one [lint:] pragma starting at [start] (the index of the 'l' of
   "lint:").  Returns [Ok rule] or [Error ()] for a malformed pragma. *)
let parse_pragma line start =
  let n = String.length line in
  let i = ref (start + 5) in
  while !i < n && line.[!i] = ' ' do incr i done;
  let prefix = "allow-" in
  let plen = String.length prefix in
  if !i + plen > n || String.sub line !i plen <> prefix then Error ()
  else begin
    i := !i + plen;
    let rule_start = !i in
    while !i < n && is_rule_char line.[!i] do incr i done;
    if !i = rule_start then Error ()
    else begin
      let rule = String.sub line rule_start (!i - rule_start) in
      while !i < n && line.[!i] = ' ' do incr i done;
      if !i >= n || line.[!i] <> '"' then Error ()
      else begin
        let reason_start = !i + 1 in
        i := reason_start;
        while !i < n && line.[!i] <> '"' do incr i done;
        if !i >= n || !i = reason_start then Error () else Ok rule
      end
    end
  end

let contains_at line i sub =
  let n = String.length sub in
  i + n <= String.length line && String.sub line i n = sub

let scan_pragmas path =
  let allows = ref [] and raise_docs = ref [] and malformed = ref [] in
  match open_in path with
  | exception Sys_error _ ->
      { allows = []; raise_docs = []; malformed = [] }
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let lnum = ref 0 in
          try
            while true do
              let line = input_line ic in
              incr lnum;
              String.iteri
                (fun i c ->
                  if c = '@' && contains_at line i "@raise" then
                    raise_docs := !lnum :: !raise_docs
                  else if c = 'l' && contains_at line i "lint:" then
                    match parse_pragma line i with
                    | Ok rule -> allows := (!lnum, rule) :: !allows
                    | Error () -> malformed := (!lnum, i) :: !malformed)
                line
            done;
            assert false (* lint: allow-no-raise "input_line loop exits via End_of_file" *)
          with End_of_file ->
            {
              allows = !allows;
              raise_docs = !raise_docs;
              malformed = !malformed;
            })

(* ------------------------------------------------------------------ *)
(* Suppression attributes: [@rt.lint.ignore "rule"]                     *)
(* ------------------------------------------------------------------ *)

(* The in-source alternative to pragmas: an attribute on an expression,
   let-binding, val declaration, or the whole module ([@@@rt.lint.ignore])
   silences the named rule inside the attributed node's span.  The payload
   must name exactly one rule, so a suppression never blankets more than
   one class of finding. *)

type span = { rule : string; from_line : int; to_line : int }

let span_of_attr (loc : Location.t) rule =
  {
    rule;
    from_line = loc.loc_start.Lexing.pos_lnum;
    to_line = loc.loc_end.Lexing.pos_lnum;
  }

open Parsetree

let ignore_spans_of_attrs ~host_loc attrs (spans, bad) =
  List.fold_left
    (fun (spans, bad) (a : attribute) ->
      if a.attr_name.txt <> Rt_prelude.Annot.lint_ignore then (spans, bad)
      else
        match Dim_table.string_payload a.attr_payload with
        | Some rule -> (span_of_attr host_loc rule :: spans, bad)
        | None -> (spans, a.attr_loc :: bad))
    (spans, bad) attrs

(* ------------------------------------------------------------------ *)
(* Syntactic rule predicates                                            *)
(* ------------------------------------------------------------------ *)

(* [Longident.flatten]/[last] raise on functor applications ([F(X).f]);
   those paths never name a print or failure function, so fold them to
   harmless values. *)
let flatten lid = try Longident.flatten lid with _ -> []

let is_print path =
  match path with
  | [ "Printf"; ("printf" | "eprintf") ] -> true
  | [ "Format"; ("printf" | "eprintf" | "print_string" | "print_newline"
                | "print_float" | "print_int") ] ->
      true
  | [ n ] | [ "Stdlib"; n ] ->
      String.length n > 6
      && (String.sub n 0 6 = "print_" || String.sub n 0 6 = "prerr_")
  | _ -> false

let is_failwith path =
  match path with [ "failwith" ] | [ "Stdlib"; "failwith" ] -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* The syntactic per-file pass                                          *)
(* ------------------------------------------------------------------ *)

type ctx = {
  path : string;
  in_lib : bool; (* no-print / no-raise only bind inside lib/ *)
  mutable found : Finding.t list;
  mutable spans : span list;
  mutable bad_attrs : Location.t list;
}

let report ctx (loc : Location.t) rule msg =
  ctx.found <- Finding.of_location ~file:ctx.path ~rule ~msg loc :: ctx.found

let check_open ctx (loc : Location.t) (lid : Longident.t) =
  match lid with
  | Longident.Lident "Stdlib" ->
      report ctx loc "open-stdlib"
        "open Stdlib shadows the whole standard library namespace; qualify \
         instead"
  | _ -> ()

let check_expr ctx (e : expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      let path = flatten txt in
      if ctx.in_lib && is_failwith path then
        report ctx e.pexp_loc "no-raise"
          "failwith in lib/ needs an @raise doc or an allow-no-raise pragma"
  | Pexp_ident { txt; _ } when ctx.in_lib ->
      let path = flatten txt in
      if is_print path then
        report ctx e.pexp_loc "no-print"
          (Printf.sprintf
             "%s in lib/; all output must go through Prelude.Tablefmt or the \
              expkit runner"
             (String.concat "." path))
  | Pexp_assert
      { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None);
        _ }
    when ctx.in_lib ->
      report ctx e.pexp_loc "no-raise"
        "assert false in lib/ needs an @raise doc or an allow-no-raise pragma"
  | _ -> ()

let check_attribute ctx (a : attribute) =
  let name = a.attr_name.txt in
  if String.starts_with ~prefix:"rt." name
     && not (List.mem name Rt_prelude.Annot.all)
  then
    report ctx a.attr_loc "unknown-attribute"
      (Printf.sprintf
         "[@%s] is not an rt-lint attribute, so no analysis reads it; the \
          registered names (Rt_prelude.Annot.all) are %s"
         name
         (String.concat ", " Rt_prelude.Annot.all))

let whole_file_span rule = { rule; from_line = 1; to_line = max_int }

let iterator ctx =
  let open Ast_iterator in
  let add_spans ~host_loc attrs =
    let spans, bad =
      ignore_spans_of_attrs ~host_loc attrs (ctx.spans, ctx.bad_attrs)
    in
    ctx.spans <- spans;
    ctx.bad_attrs <- bad
  in
  {
    default_iterator with
    attribute =
      (fun it a ->
        check_attribute ctx a;
        default_iterator.attribute it a);
    expr =
      (fun it e ->
        check_expr ctx e;
        add_spans ~host_loc:e.pexp_loc e.pexp_attributes;
        default_iterator.expr it e);
    value_binding =
      (fun it vb ->
        add_spans ~host_loc:vb.pvb_loc vb.pvb_attributes;
        default_iterator.value_binding it vb);
    value_description =
      (fun it vd ->
        add_spans ~host_loc:vd.pval_loc vd.pval_attributes;
        default_iterator.value_description it vd);
    structure_item =
      (fun it item ->
        (match item.pstr_desc with
        | Pstr_attribute a when a.attr_name.txt = Rt_prelude.Annot.lint_ignore -> (
            match Dim_table.string_payload a.attr_payload with
            | Some rule -> ctx.spans <- whole_file_span rule :: ctx.spans
            | None -> ctx.bad_attrs <- a.attr_loc :: ctx.bad_attrs)
        | _ -> ());
        default_iterator.structure_item it item);
    signature_item =
      (fun it item ->
        (match item.psig_desc with
        | Psig_attribute a when a.attr_name.txt = Rt_prelude.Annot.lint_ignore -> (
            match Dim_table.string_payload a.attr_payload with
            | Some rule -> ctx.spans <- whole_file_span rule :: ctx.spans
            | None -> ctx.bad_attrs <- a.attr_loc :: ctx.bad_attrs)
        | _ -> ());
        default_iterator.signature_item it item);
    open_declaration =
      (fun it od ->
        (match od.popen_expr.pmod_desc with
        | Pmod_ident { txt; _ } -> check_open ctx od.popen_loc txt
        | _ -> ());
        default_iterator.open_declaration it od);
    open_description =
      (fun it od ->
        check_open ctx od.popen_loc od.popen_expr.txt;
        default_iterator.open_description it od);
  }

(* ------------------------------------------------------------------ *)
(* Suppression filtering                                                *)
(* ------------------------------------------------------------------ *)

let suppressed pragmas spans (f : Finding.t) =
  List.exists
    (fun (l, r) -> r = f.rule && (l = f.line || l = f.line - 1))
    pragmas.allows
  || (f.rule = "no-raise"
     && List.exists
          (fun l -> l = f.line || l = f.line - 1 || l = f.line - 2)
          pragmas.raise_docs)
  || List.exists
       (fun s ->
         s.rule = f.rule && s.from_line <= f.line && f.line <= s.to_line)
       spans

(* ------------------------------------------------------------------ *)
(* Per-file driver                                                      *)
(* ------------------------------------------------------------------ *)

let has_suffix s suf =
  let n = String.length s and m = String.length suf in
  n >= m && String.sub s (n - m) m = suf

let path_components path = String.split_on_char '/' path

let under_lib path = List.mem "lib" (path_components path)

let is_float_cmp_module path =
  match Filename.basename path with
  | "float_cmp.ml" | "float_cmp.mli" -> true
  | _ -> false

(* How the typed pass obtains a typedtree for a [.ml] file. *)
type typed_source =
  | From_cmt of string  (** read this .cmt file *)
  | Standalone  (** type against the stdlib; failures are findings *)
  | Best_effort  (** try standalone; skip the typed pass on failure *)
  | Untyped  (** syntactic pass only *)

let typed_findings ~dims ~hot ~unit_name ~source ~in_lib ~check_floats path
    parsetree =
  let modname = Dim_table.modname_of_path path in
  (* with no repo-wide hotset (the standalone fixture path), hotness is
     resolved from this unit alone: its sibling interface's marks, its
     own [@rt.hot] let bindings, and its intra-unit call edges *)
  let hot_findings str =
    match hot with
    | Some hotset -> Hot_lint.check ~hot:hotset ~file:path ~unit_name str
    | None ->
        let marks = Hot_lint.create_marks () in
        let mli = path ^ "i" in
        let mark_errs =
          if Sys.file_exists mli then
            Hot_lint.add_interface marks ~unit_name ~export:false mli
          else []
        in
        let graph = Hot_lint.create_graph () in
        Hot_lint.scan_unit graph ~unit_name ~file:path ~role:Hot_lint.Lib str;
        let hotset = Hot_lint.resolve marks graph in
        mark_errs @ Hot_lint.check ~hot:hotset ~file:path ~unit_name str
  in
  let run str =
    Typed_lint.check ~dims ~file:path ~modname ~in_lib ~check_floats str
    @ Conc_lint.check ~file:path ~modname str
    @ hot_findings str
  in
  match source with
  | Untyped -> []
  | From_cmt cmt -> (
      match Typed_lint.read_cmt cmt with
      | Ok str -> run str
      | Error msg -> [ { file = path; line = 1; col = 0; rule = "no-cmt"; severity = Finding.Error; msg } ])
  | Standalone | Best_effort -> (
      match parsetree with
      | None -> []
      | Some pt -> (
          match Typed_lint.type_standalone pt with
          | Ok str -> run str
          | Error msg ->
              if source = Standalone then
                [ { file = path; line = 1; col = 0; rule = "typecheck"; severity = Finding.Error; msg } ]
              else []))

let lint_file_with ~dims ?hot ?unit_name ~source ?as_lib path =
  let unit_name =
    match unit_name with
    | Some u -> u
    | None -> Dim_table.modname_of_path path
  in
  let in_lib = match as_lib with Some b -> b | None -> under_lib path in
  let pragmas = scan_pragmas path in
  let ctx = { path; in_lib; found = []; spans = []; bad_attrs = [] } in
  let parsetree = ref None in
  (try
     let it = iterator ctx in
     if has_suffix path ".mli" then
       it.Ast_iterator.signature it
         (Pparse.parse_interface ~tool_name:"rt-lint" path)
     else begin
       let pt = Pparse.parse_implementation ~tool_name:"rt-lint" path in
       parsetree := Some pt;
       it.Ast_iterator.structure it pt
     end
   with exn ->
     let msg =
       match exn with
       | Syntaxerr.Error _ -> "syntax error"
       | exn -> Printexc.to_string exn
     in
     ctx.found <-
       { file = path; line = 1; col = 0; rule = "parse"; severity = Finding.Error; msg } :: ctx.found);
  let typed =
    if has_suffix path ".mli" then []
    else
      typed_findings ~dims ~hot ~unit_name ~source ~in_lib
        ~check_floats:(not (is_float_cmp_module path))
        path !parsetree
  in
  let bad =
    List.map
      (fun (loc : Location.t) ->
        Finding.of_location ~file:path ~rule:"suppression"
          ~msg:
            "malformed suppression: [@rt.lint.ignore] expects a string \
             naming exactly one rule"
          loc)
      ctx.bad_attrs
    @ List.map
        (fun (line, col) ->
          {
            file = path;
            line;
            col;
            rule = "suppression";
            severity = Finding.Error;
            msg =
              "malformed lint pragma: expected (* lint: allow-<rule> \
               \"reason\" *) with a non-empty reason";
          })
        pragmas.malformed
  in
  let keep f = not (suppressed pragmas ctx.spans f) in
  List.sort Finding.compare (bad @ List.filter keep (ctx.found @ typed))

let sibling_dims path =
  let dims = Dim_table.create () in
  let mli = if has_suffix path ".ml" then path ^ "i" else path in
  let errs = if Sys.file_exists mli then Dim_table.add_interface dims mli else [] in
  (dims, errs)

let lint_file ?as_lib path =
  (* the standalone entry point used by the tests: dimension annotations
     come from the file's own [@@rt.dim] bindings plus a sibling .mli *)
  let dims, dim_errs = sibling_dims path in
  List.sort Finding.compare
    (dim_errs @ lint_file_with ~dims ~source:Standalone ?as_lib path)

(* ------------------------------------------------------------------ *)
(* Interface coverage                                                   *)
(* ------------------------------------------------------------------ *)

let missing_mli path =
  if
    has_suffix path ".ml"
    && under_lib path
    && not (Sys.file_exists (path ^ "i"))
  then
    Some
      {
        file = path;
        line = 1;
        col = 0;
        rule = "missing-mli";
        severity = Finding.Error;
        msg = "every module under lib/ must ship an interface (.mli)";
      }
  else None

(* ------------------------------------------------------------------ *)
(* Walking                                                              *)
(* ------------------------------------------------------------------ *)

let skip_dirs = [ "_build"; ".git"; "lint_fixtures" ]

let rec walk_suffixes sufs acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.fold_left
         (fun acc name ->
           if List.mem name skip_dirs then acc
           else walk_suffixes sufs acc (Filename.concat path name))
         acc
  else if List.exists (has_suffix path) sufs then path :: acc
  else acc

let walk acc path = walk_suffixes [ ".ml"; ".mli" ] acc path

(* Index the .cmt files dune produced for the given source roots: the
   roots themselves (when linting from inside _build, where the .objs
   directories sit next to the copied sources) and _build/default/<root>
   (when linting a source checkout).  Keys are the source paths recorded
   by the compiler, which dune passes relative to the build root — the
   same spelling the walk produces; values are the .cmt and the unit's
   name in the call graph. *)
let cmt_index roots =
  let tbl = Hashtbl.create 64 in
  let add_root root =
    List.iter
      (fun cmt ->
        match Cmt_format.read_cmt cmt with
        | { Cmt_format.cmt_annots = Cmt_format.Implementation _;
            cmt_sourcefile = Some src;
            cmt_modname;
            _;
          } ->
            if not (Hashtbl.mem tbl src) then
              Hashtbl.add tbl src
                (cmt, Hot_lint.unit_name ~dir:(Filename.dirname src) cmt_modname)
        | _ -> ()
        | exception _ -> ())
      (walk_suffixes [ ".cmt" ] [] root)
  in
  List.iter
    (fun root ->
      (* a single-file root carries no .cmt itself; its directory does *)
      let root =
        if Sys.file_exists root && not (Sys.is_directory root) then
          Filename.dirname root
        else root
      in
      if Sys.file_exists root then add_root root;
      let built = Filename.concat "_build/default" root in
      if Sys.file_exists built then add_root built)
    roots;
  tbl

(* ------------------------------------------------------------------ *)
(* The repo walk                                                        *)
(* ------------------------------------------------------------------ *)

(* when invoked on individual .ml files, their sibling interfaces still
   carry the annotations — harvest them even though they are not linted *)
let interfaces_of files =
  List.filter_map
    (fun f ->
      if has_suffix f ".mli" then Some f
      else
        let mli = f ^ "i" in
        if (not (List.mem mli files)) && Sys.file_exists mli then Some mli
        else None)
    files
  |> List.sort_uniq compare

let build_dim_table files =
  let dims = Dim_table.create () in
  let errors =
    List.concat_map
      (fun f -> Dim_table.add_interface dims f)
      (interfaces_of files)
  in
  (dims, errors)

(* The source trees of a project.  Every unit under them joins the call
   graph, linted or not: what bin, bench, examples, tool and perfbench
   name is live, and what test names is reached by tests only. *)
let trees = [ "lib"; "bin"; "bench"; "examples"; "tool"; "perfbench"; "test" ]

let role_of path =
  let parts = path_components path in
  let has d = List.mem d parts in
  if has "lib" then Hot_lint.Lib
  else if List.exists has [ "bin"; "bench"; "examples"; "tool"; "perfbench" ]
  then Hot_lint.Program
  else if has "test" then Hot_lint.Test
  else Hot_lint.Program

(* the trees beside each path's last source-tree component *)
let sibling_trees paths =
  let root path =
    List.fold_left
      (fun (above, dir) c -> (above @ [ c ], if List.mem c trees then above else dir))
      ([], []) (path_components path)
    |> snd
  in
  List.sort_uniq compare (List.map root paths)
  |> List.concat_map (fun dir ->
         List.map (fun t -> String.concat "/" (dir @ [ t ])) trees)
  |> List.filter (fun d -> Sys.file_exists d && Sys.is_directory d)

(* Type every source and hand it to [scan], one at a time: from the .cmt
   where dune left one, else standalone, where each unit that types joins
   the environment of the rest, so a small multi-unit tree (a lint
   fixture) types in dependency order.  Returns the sources that did not
   type. *)
let type_units ~scan cmts files =
  let type_one sigs f =
    match Hashtbl.find_opt cmts f with
    | Some (cmt, u) ->
        Typed_lint.read_cmt cmt |> Result.map (fun str -> scan f u str; [])
    | None -> (
        match Pparse.parse_implementation ~tool_name:"rt-lint" f with
        | exception _ -> Error f
        | pt ->
            let u = Dim_table.modname_of_path f in
            Typed_lint.type_standalone ~units:sigs pt
            |> Result.map (fun str ->
                   scan f u str;
                   [ (u, str.Typedtree.str_type) ]))
  in
  let rec in_order sigs pending =
    match
      List.partition_map
        (fun f -> match type_one sigs f with Ok s -> Left s | Error _ -> Right f)
        pending
    with
    | [], still -> still
    | newly, still -> in_order (sigs @ List.concat newly) still
  in
  in_order [] files

(* The whole-repo prepass behind the hot rules and unused-export: harvest
   the interfaces' marks and exports, build the call graph from the
   linted units and every other unit of the project's source trees, and
   resolve hotness once so it propagates across compilation units.  The
   typedtrees are re-read by the per-file pass afterwards; the walk is
   cheap next to the typing they both rely on.  unused-export needs every
   unit: when one has no typedtree it is off, and says so. *)
let build_graph ~require_cmts ~unit_of files others cmts =
  let marks = Hot_lint.create_marks () in
  let linted = interfaces_of files in
  let errors =
    List.concat_map
      (fun f ->
        let ml = Filename.remove_extension f ^ ".ml" in
        let export = List.mem f linted in
        let errs =
          Hot_lint.add_interface marks ~unit_name:(unit_of ml)
            ~export:(export && under_lib f) f
        in
        if export then errs else [])
      (interfaces_of (files @ others))
  in
  let graph = Hot_lint.create_graph () in
  let sources = List.filter (fun f -> has_suffix f ".ml") (files @ others) in
  let untyped =
    type_units cmts sources ~scan:(fun f unit_name str ->
        Hot_lint.scan_unit graph ~unit_name ~file:f ~role:(role_of f) str)
  in
  let exports =
    match untyped with
    | [] -> Hot_lint.unused_exports marks graph
    | first :: _ ->
        let severity = if require_cmts then Finding.Error else Finding.Note in
        let msg =
          Printf.sprintf
            "%d source(s) have no .cmt and do not type alone, so what they \
             name is unknown and no export is judged; build with `dune \
             build @check` first"
            (List.length untyped)
        in
        [ { file = first; line = 1; col = 0; rule = "unused-export"; severity; msg } ]
  in
  (Hot_lint.resolve marks graph, errors @ exports)

let lint_paths ?(require_cmts = false) paths =
  let files = List.fold_left walk [] paths in
  let others =
    List.fold_left walk [] (sibling_trees paths)
    |> List.filter (fun f -> not (List.mem f files))
  in
  let dims, dim_errors = build_dim_table files in
  let cmts = cmt_index (paths @ sibling_trees paths) in
  let unit_of f =
    match Hashtbl.find_opt cmts f with
    | Some (_, u) -> u
    | None -> Dim_table.modname_of_path f
  in
  let hotset, graph_findings =
    build_graph ~require_cmts ~unit_of files others cmts
  in
  let findings =
    List.concat_map
      (fun f ->
        let source =
          if has_suffix f ".mli" then Untyped
          else
            match Hashtbl.find_opt cmts f with
            | Some (cmt, _) -> From_cmt cmt
            | None when require_cmts ->
                (* a source no build rule covers would silently lose the
                   typed rules; make that visible *)
                Standalone
            | None -> Best_effort
        in
        let mli = match missing_mli f with Some x -> [ x ] | None -> [] in
        mli
        @ lint_file_with ~dims ~hot:hotset ~unit_name:(unit_of f) ~source f)
      files
  in
  List.sort Finding.compare (dim_errors @ graph_findings @ findings)

let dim_coverage paths ~under =
  let files = List.fold_left walk [] paths in
  let dims, _ = build_dim_table files in
  Dim_table.coverage dims ~under
