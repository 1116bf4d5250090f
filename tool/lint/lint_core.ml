(* rt-lint engine: a syntactic pass over the parsetree for the purity
   rules plus a typed pass over the typedtree (see Typed_lint) for
   everything that needs real type information.  Float detection and the
   dimension analysis use the compiler's own inference, via the .cmt files
   dune produces or a standalone typing run where a source has none (the
   self-contained fixtures). *)

(* ------------------------------------------------------------------ *)
(* Suppression pragmas (comment-based, line-scoped)                     *)
(* ------------------------------------------------------------------ *)

(* The one suppression form is a comment

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

open Parsetree

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
}

let report ctx (loc : Location.t) rule msg =
  ctx.found <- Finding.of_location ~file:ctx.path ~rule ~msg loc :: ctx.found

(* a finding about a whole file, or at a line the pass computed itself *)
let at ?(severity = Finding.Error) ?(line = 1) ?(col = 0) file rule msg =
  { Finding.file; line; col; rule; severity; msg }

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

let iterator ctx =
  let open Ast_iterator in
  {
    default_iterator with
    attribute =
      (fun it a ->
        check_attribute ctx a;
        default_iterator.attribute it a);
    expr =
      (fun it e ->
        check_expr ctx e;
        default_iterator.expr it e);
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

let suppressed pragmas (f : Finding.t) =
  List.exists
    (fun (l, r) -> r = f.rule && (l = f.line || l = f.line - 1))
    pragmas.allows
  || (f.rule = "no-raise"
     && List.exists
          (fun l -> l = f.line || l = f.line - 1 || l = f.line - 2)
          pragmas.raise_docs)

(* ------------------------------------------------------------------ *)
(* Per-file rules                                                       *)
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

(* The syntactic pass over [path], and the typed rules over [typed]: the
   unit's typedtree, the finding that says why it has none, or nothing
   (an interface, or a source that did not type outside --require-cmts). *)
let lint_source ~dims ~hot ~unit_name ~typed ~in_lib path =
  let pragmas = scan_pragmas path in
  let ctx = { path; in_lib; found = [] } in
  (try
     let it = iterator ctx in
     if has_suffix path ".mli" then
       it.Ast_iterator.signature it
         (Pparse.parse_interface ~tool_name:"rt-lint" path)
     else
       it.Ast_iterator.structure it
         (Pparse.parse_implementation ~tool_name:"rt-lint" path)
   with exn ->
     let msg =
       match exn with
       | Syntaxerr.Error _ -> "syntax error"
       | exn -> Printexc.to_string exn
     in
     ctx.found <- at path "parse" msg :: ctx.found);
  let typed =
    match typed with
    | None -> []
    | Some (Error f) -> [ f ]
    | Some (Ok str) ->
        let modname = Dim_table.modname_of_path path in
        Typed_lint.check ~dims ~file:path ~modname ~in_lib
          ~check_floats:(not (is_float_cmp_module path))
          str
        @ Conc_lint.check ~file:path ~modname str
        @ Hot_lint.check ~hot ~file:path ~unit_name str
  in
  let malformed =
    List.map
      (fun (line, col) ->
        at ~line ~col path "suppression"
          "malformed lint pragma: expected (* lint: allow-<rule> \"reason\" \
           *) with a non-empty reason")
      pragmas.malformed
  in
  malformed
  @ List.filter (fun f -> not (suppressed pragmas f)) (ctx.found @ typed)

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
      (at path "missing-mli"
         "every module under lib/ must ship an interface (.mli)")
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

(* ------------------------------------------------------------------ *)
(* Loading every unit into the call graph                               *)
(* ------------------------------------------------------------------ *)

(* Where dune leaves the .cmt files of the given roots: under the root
   itself when linting from inside _build, where the .objs directories
   sit next to the copied sources, and under _build/default/<root> when
   linting a source checkout.  A file root's are in its directory, and a
   directory inside another one listed is not walked again. *)
let cmt_dirs roots =
  let dirs =
    List.concat_map
      (fun root ->
        let root =
          if Sys.is_directory root then root else Filename.dirname root
        in
        [ root; Filename.concat "_build/default" root ])
      roots
    |> List.filter Sys.file_exists |> List.sort_uniq compare
  in
  let inside d d' = String.starts_with ~prefix:(d' ^ "/") d in
  List.filter (fun d -> not (List.exists (inside d) dirs)) dirs

(* Read each .cmt under [roots] once; those that compile one of
   [sources] are scanned into the graph and indexed by source, with the
   unit's name in the graph.  Keys are the source paths the compiler
   recorded, which dune passes relative to the build root, the same
   spelling the walk produces.  A .cmt is opened only when its name can
   be a source's unit ([rt_core__Greedy.cmt] for [greedy.ml]), so the
   alias modules dune generates for each library ([rt_core.cmt], or
   [rt_check__.cmt] beside a main module [rt_check.ml]) are never
   read. *)
let load_cmts ~scan sources roots =
  let wanted = Hashtbl.create 256 and modnames = Hashtbl.create 256 in
  List.iter
    (fun f ->
      Hashtbl.replace wanted f ();
      Hashtbl.replace modnames (Dim_table.modname_of_path f) ())
    sources;
  let compiles_a_source cmt =
    let name = Dim_table.modname_of_path cmt in
    (not (String.ends_with ~suffix:"__" name))
    &&
    match List.rev (Typed_lint.split_wrapped name) with
    | m :: _ -> Hashtbl.mem modnames m
    | [] -> false
  in
  let index = Hashtbl.create 256 in
  let load cmt =
    match Cmt_format.read_cmt cmt with
    | { Cmt_format.cmt_annots = Cmt_format.Implementation str;
        cmt_sourcefile = Some src;
        cmt_modname;
        _;
      }
      when Hashtbl.mem wanted src && not (Hashtbl.mem index src) ->
        let unit_name =
          Hot_lint.unit_name ~dir:(Filename.dirname src) cmt_modname
        in
        Hashtbl.add index src (cmt, unit_name);
        scan src unit_name str
    | _ -> ()
    | exception _ -> ()
  in
  List.iter
    (fun dir ->
      List.iter load
        (List.filter compiles_a_source (walk_suffixes [ ".cmt" ] [] dir)))
    (cmt_dirs roots);
  index

(* Type the sources that have no .cmt standalone, scanning each into the
   graph: each unit that types joins the environment of the rest, so a
   small multi-unit tree (a lint fixture) types in dependency order.
   Maps every source that parses to its typedtree or its last typing
   error. *)
let load_standalone ~scan sources =
  let typed = Hashtbl.create 16 in
  let rec in_order units pending =
    let newly, still =
      List.partition_map
        (fun (f, pt) ->
          let u = Dim_table.modname_of_path f in
          let r = Typed_lint.type_standalone ~units pt in
          Hashtbl.replace typed f r;
          match r with
          | Ok str ->
              scan f u str;
              Left (u, str.Typedtree.str_type)
          | Error _ -> Right (f, pt))
        pending
    in
    match newly with [] -> () | _ -> in_order (units @ newly) still
  in
  in_order []
    (List.filter_map
       (fun f ->
         match Pparse.parse_implementation ~tool_name:"rt-lint" f with
         | pt -> Some (f, pt)
         | exception _ -> None)
       sources);
  typed

(* ------------------------------------------------------------------ *)
(* The driver                                                           *)
(* ------------------------------------------------------------------ *)

(* Lint [paths] against every unit of the project's source trees beside
   them.  One load builds the call graph behind the hot rules and
   unused-export: each .cmt is read once, and the sources without one are
   typed standalone once.  The interfaces' marks and exports join it, and
   hotness is resolved once so it propagates across compilation units.
   The per-file rules then re-read the .cmt of each unit they lint.
   unused-export needs every unit: when one has no typedtree it is off,
   and says so. *)
let lint ?as_lib ~require_cmts paths =
  let files = List.fold_left walk [] paths in
  let trees = sibling_trees paths in
  let others =
    List.fold_left walk [] trees
    |> List.filter (fun f -> not (List.mem f files))
  in
  let dims, dim_errors = build_dim_table files in
  let graph = Hot_lint.create_graph () in
  let scan f unit_name str =
    Hot_lint.scan_unit graph ~unit_name ~file:f ~role:(role_of f) str
  in
  let sources = List.filter (fun f -> has_suffix f ".ml") (files @ others) in
  let cmts = load_cmts ~scan sources (paths @ trees) in
  let standalone =
    load_standalone ~scan
      (List.filter (fun f -> not (Hashtbl.mem cmts f)) sources)
  in
  let unit_of f =
    match Hashtbl.find_opt cmts f with
    | Some (_, u) -> u
    | None -> Dim_table.modname_of_path f
  in
  let marks = Hot_lint.create_marks () in
  let linted = interfaces_of files in
  let mark_errors =
    List.concat_map
      (fun f ->
        let export = List.mem f linted in
        let errs =
          Hot_lint.add_interface marks
            ~unit_name:(unit_of (Filename.remove_extension f ^ ".ml"))
            ~export:(export && under_lib f) f
        in
        if export then errs else [])
      (interfaces_of (files @ others))
  in
  let exports =
    match
      List.filter
        (fun f ->
          match Hashtbl.find_opt standalone f with
          | Some (Ok _) -> false
          | _ -> not (Hashtbl.mem cmts f))
        sources
    with
    | [] -> Hot_lint.unused_exports marks graph
    | first :: _ as untyped ->
        let severity = if require_cmts then Finding.Error else Finding.Note in
        [
          at ~severity first "unused-export"
            (Printf.sprintf
               "%d source(s) have no .cmt and do not type alone, so what they \
                name is unknown and no export is judged; build with `dune \
                build @check` first"
               (List.length untyped));
        ]
  in
  let hot = Hot_lint.resolve marks graph in
  let typed f =
    match Hashtbl.find_opt cmts f with
    | Some (cmt, _) ->
        Some (Result.map_error (at f "no-cmt") (Typed_lint.read_cmt cmt))
    | None -> (
        match Hashtbl.find_opt standalone f with
        | Some (Error _) when not require_cmts -> None
        | r -> Option.map (Result.map_error (at f "typecheck")) r)
  in
  let findings =
    List.concat_map
      (fun f ->
        let in_lib = Option.value as_lib ~default:(under_lib f) in
        Option.to_list (missing_mli f)
        @ lint_source ~dims ~hot ~unit_name:(unit_of f) ~typed:(typed f)
            ~in_lib f)
      files
  in
  List.sort Finding.compare (dim_errors @ mark_errors @ exports @ findings)

let lint_paths ?(require_cmts = false) paths = lint ~require_cmts paths

let lint_file ?as_lib path = lint ?as_lib ~require_cmts:true [ path ]

let dim_coverage paths ~under =
  let files = List.fold_left walk [] paths in
  let dims, _ = build_dim_table files in
  Dim_table.coverage dims ~under
