(* Hot-path allocation/boxing analysis and the unused-export rule
   (rt-lint v4).  See hot_lint.mli for the rule contracts, and
   docs/PERF_LINT.md and docs/LINT.md for the user-facing grammar.

   Both rules stand on one whole-repo call graph (Phase 1).  Every
   unit's top-level definitions, nested modules included, become nodes,
   and the value paths named in their bodies become edges; paths named
   outside any definition (a [let () = ...], a module initialiser) are
   kept per unit.  One worklist ([reach]) closes a seed set over the
   edges.  The hot rules seed it with [@rt.hot] marks and stop it at
   [@rt.cold]; Phase 2 ([check]) then walks each hot definition's body
   with a lexical per-iteration flag and flags the allocation/boxing
   rules, and runs the budget-poll analysis from the unit's
   [*_budgeted] entry points.  The unused-export rule seeds it with
   everything the programs name and compares the closure with the
   [val]s of the lib interfaces.

   A key is a compilation unit and the dotted path of a definition
   inside it: [("Rt_online.Admission", "Exec.decide")].  Unit names undo
   dune's library wrapping; executables, which dune names [Dune__exe__M]
   in every directory, are named by directory instead ([bench/Main]), so
   bench and perfbench stay apart.  Paths resolve through module aliases
   within a unit ([module Fc = Rt_prelude.Float_cmp], [let module J =
   ... in]) and across units ([Rt_check.Json] is [Rt_prelude.Json]). *)

open Typedtree
module ISet = Set.Make (Ident)

let attr_hot = Rt_prelude.Annot.hot
let attr_cold = Rt_prelude.Annot.cold
let attr_test_api = Rt_prelude.Annot.test_api

let has_suffix s suf =
  let n = String.length s and m = String.length suf in
  n >= m && String.sub s (n - m) m = suf

let norm p =
  match Typed_lint.path_parts p with
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | parts -> parts

type key = string * string

let unit_name ~dir modname =
  match Typed_lint.split_wrapped modname with
  | "Dune" :: "exe" :: rest -> dir ^ "/" ^ String.concat "." rest
  | parts -> String.concat "." parts

let key_at unit path name = (unit, String.concat "." (path @ [ name ]))

(* ------------------------------------------------------------------ *)
(* Phase 1a: interface marks                                            *)
(* ------------------------------------------------------------------ *)

type export = {
  x_key : key;
  x_file : string;
  x_loc : Location.t;
  x_test_api : bool;
}

type marks = {
  m_hot : (key, unit) Hashtbl.t;
  m_cold : (key, unit) Hashtbl.t;
  mutable exports : export list;
}

let create_marks () =
  { m_hot = Hashtbl.create 64; m_cold = Hashtbl.create 64; exports = [] }

let rec result_type (t : Parsetree.core_type) =
  match t.ptyp_desc with
  | Ptyp_arrow (_, _, r) -> result_type r
  | Ptyp_poly (_, r) -> result_type r
  | _ -> t

(* a hot/cold payload is either empty or a string documenting the why *)
let payload_ok = function
  | Parsetree.PStr [] -> true
  | p -> Dim_table.string_payload p <> None

let find_attr name attrs =
  List.find_opt (fun (a : Parsetree.attribute) -> a.attr_name.txt = name) attrs

(* a [[@@rt.test_api]] mark must say why the value stays exported *)
let test_api_mark ~file attrs errors =
  match find_attr attr_test_api attrs with
  | None -> (false, errors)
  | Some a when Dim_table.string_payload a.attr_payload <> None -> (true, errors)
  | Some a ->
      ( true,
        Finding.of_location ~file ~rule:"unused-export"
          ~msg:"[@@rt.test_api] needs a string literal saying why the value \
                stays exported"
          a.attr_loc
        :: errors )

let harvest_value marks ~file ~unit ~path ~export ~test_api
    (vd : Parsetree.value_description) errors =
  let result = result_type vd.pval_type in
  let attrs =
    vd.pval_attributes @ vd.pval_type.ptyp_attributes @ result.ptyp_attributes
  in
  let hot = find_attr attr_hot attrs and cold = find_attr attr_cold attrs in
  let name = vd.pval_name.txt in
  let key = key_at unit path name in
  let bad (a : Parsetree.attribute) msg =
    Finding.of_location ~file ~rule:"hot-annotation" ~msg a.attr_loc
  in
  let errors =
    match (hot, cold) with
    | Some h, Some _ ->
        bad h
          (Printf.sprintf "'%s' is marked both [@rt.hot] and [@rt.cold]" name)
        :: errors
    | _ -> errors
  in
  let errors =
    List.fold_left
      (fun errors (which, ao) ->
        match ao with
        | Some (a : Parsetree.attribute) when not (payload_ok a.attr_payload)
          ->
            bad a
              (Printf.sprintf
                 "[@%s] payload must be empty or a string literal" which)
            :: errors
        | _ -> errors)
      errors
      [ (attr_hot, hot); (attr_cold, cold) ]
  in
  (match (hot, cold) with
  | Some _, None -> Hashtbl.replace marks.m_hot key ()
  | None, Some _ | Some _, Some _ ->
      (* on conflict, cold wins: never silently widen the hot region *)
      Hashtbl.replace marks.m_cold key ()
  | None, None -> ());
  let marked, errors = test_api_mark ~file vd.pval_attributes errors in
  if export then
    marks.exports <-
      {
        x_key = key;
        x_file = file;
        x_loc = vd.pval_loc;
        x_test_api = test_api || marked;
      }
      :: marks.exports;
  errors

(* a [[@@rt.test_api]] on a nested module covers every value in it *)
let rec harvest_signature marks ~file ~unit ~path ~export ~test_api
    (sg : Parsetree.signature) errors =
  List.fold_left
    (fun errors (item : Parsetree.signature_item) ->
      match item.psig_desc with
      | Psig_value vd ->
          harvest_value marks ~file ~unit ~path ~export ~test_api vd errors
      | Psig_module
          {
            pmd_type = { pmty_desc = Pmty_signature sg; _ };
            pmd_name = { txt = Some name; _ };
            pmd_attributes;
            _;
          } ->
          let marked, errors = test_api_mark ~file pmd_attributes errors in
          harvest_signature marks ~file ~unit ~path:(path @ [ name ]) ~export
            ~test_api:(test_api || marked) sg errors
      | _ -> errors)
    errors sg

let add_interface marks ~unit_name ~export path =
  match Pparse.parse_interface ~tool_name:"rt-lint" path with
  | exception _ -> [] (* unparseable files are reported by the main pass *)
  | sg ->
      List.rev
        (harvest_signature marks ~file:path ~unit:unit_name ~path:[] ~export
           ~test_api:false sg [])

(* ------------------------------------------------------------------ *)
(* Phase 1b: call graph                                                 *)
(* ------------------------------------------------------------------ *)

type role = Lib | Program | Test

(* A unit's initialisers ([let () = ...], bare expressions) are one
   definition with the empty name. *)
type graph = {
  roles : (string, role) Hashtbl.t; (* every scanned unit *)
  aliases : (key, string list) Hashtbl.t; (* module M = P, keyed like a value *)
  defs : (key, string list list) Hashtbl.t; (* definition -> paths it names *)
  g_hot : (key, unit) Hashtbl.t; (* in-file [@rt.hot] lets *)
  g_cold : (key, unit) Hashtbl.t;
}

let create_graph () =
  {
    roles = Hashtbl.create 128;
    aliases = Hashtbl.create 64;
    defs = Hashtbl.create 512;
    g_hot = Hashtbl.create 16;
    g_cold = Hashtbl.create 16;
  }

let add_def g key callees =
  let prev = Option.value ~default:[] (Hashtbl.find_opt g.defs key) in
  Hashtbl.replace g.defs key (callees @ prev)

(* What a unit-local identifier stands for, as an absolute path whose head
   is a unit name: a top-level value or module, or a module alias. *)
type scope = {
  s_unit : string;
  s_dir : string;
  locals : (Ident.t, string list) Hashtbl.t;
}

let rec raw_path sc (p : Path.t) =
  match p with
  | Path.Pident id when Ident.persistent id ->
      Some (Typed_lint.split_wrapped (Ident.name id))
  | Path.Pident id -> Hashtbl.find_opt sc.locals id
  | Path.Pdot (q, s) -> Option.map (fun q -> q @ [ s ]) (raw_path sc q)
  | _ -> None

let abs_path sc p =
  match raw_path sc p with
  | Some ("Dune" :: "exe" :: m :: rest) -> Some ((sc.s_dir ^ "/" ^ m) :: rest)
  | r -> r

let alias_target sc (me : module_expr) =
  match me.mod_desc with
  | Tmod_ident (p, _)
  | Tmod_constraint ({ mod_desc = Tmod_ident (p, _); _ }, _, _, _) ->
      abs_path sc p
  | _ -> None

(* the absolute value paths [e] names; a [let module M = P in] on the way
   is recorded as an alias first *)
let paths_of sc (e : expression) =
  let acc = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub x ->
          (match x.exp_desc with
          | Texp_ident (p, _, _) ->
              Option.iter (fun r -> acc := r :: !acc) (abs_path sc p)
          | Texp_letmodule (Some id, _, _, me, _) ->
              Option.iter (Hashtbl.replace sc.locals id) (alias_target sc me)
          | _ -> ());
          Tast_iterator.default_iterator.expr sub x);
    }
  in
  it.expr it e;
  List.sort_uniq compare !acc

let vb_mark_attrs (vb : value_binding) =
  vb.vb_attributes @ vb.vb_pat.pat_attributes @ vb.vb_expr.exp_attributes

let scan_vb g sc path (vb : value_binding) =
  let callees = paths_of sc vb.vb_expr in
  match pat_bound_idents vb.vb_pat with
  | [] -> add_def g (sc.s_unit, "") callees
  | ids ->
      let attrs = vb_mark_attrs vb in
      let has a =
        List.exists (fun (x : Parsetree.attribute) -> x.attr_name.txt = a) attrs
      in
      List.iter
        (fun id ->
          let key = key_at sc.s_unit path (Ident.name id) in
          add_def g key callees;
          if has attr_hot then Hashtbl.replace g.g_hot key ();
          if has attr_cold then Hashtbl.replace g.g_cold key ())
        ids

(* Every structure item of a unit with the module path it sits under,
   each item before its contents: nested structures, includes and functor
   bodies are entered, so a definition's path is the one its interface
   declares it under. *)
let rec iter_items f path (items : structure_item list) =
  let module_path (mb : module_binding) =
    match mb.mb_id with Some id -> path @ [ Ident.name id ] | None -> path
  in
  List.iter
    (fun (si : structure_item) ->
      f path si;
      match si.str_desc with
      | Tstr_module mb -> iter_module f (module_path mb) mb.mb_expr
      | Tstr_recmodule mbs ->
          List.iter (fun mb -> iter_module f (module_path mb) mb.mb_expr) mbs
      | Tstr_include incl -> iter_module f path incl.incl_mod
      | _ -> ())
    items

and iter_module f path (me : module_expr) =
  match me.mod_desc with
  | Tmod_structure str -> iter_items f path str.str_items
  | Tmod_constraint (me, _, _, _) | Tmod_functor (_, me) ->
      iter_module f path me
  | _ -> ()

let bind_module g sc path (mb : module_binding) =
  match mb.mb_id with
  | None -> ()
  | Some id -> (
      let inner = path @ [ Ident.name id ] in
      match alias_target sc mb.mb_expr with
      | Some target ->
          Hashtbl.replace sc.locals id target;
          Hashtbl.replace g.aliases (sc.s_unit, String.concat "." inner) target
      | None -> Hashtbl.replace sc.locals id (sc.s_unit :: inner))

let scan_item g sc path (si : structure_item) =
  match si.str_desc with
  | Tstr_value (_, vbs) ->
      List.iter
        (fun (vb : value_binding) ->
          List.iter
            (fun id ->
              Hashtbl.replace sc.locals id ((sc.s_unit :: path) @ [ Ident.name id ]))
            (pat_bound_idents vb.vb_pat))
        vbs;
      List.iter (scan_vb g sc path) vbs
  | Tstr_eval (e, _) -> add_def g (sc.s_unit, "") (paths_of sc e)
  | Tstr_module mb -> bind_module g sc path mb
  | Tstr_recmodule mbs -> List.iter (bind_module g sc path) mbs
  | _ -> ()

let scan_unit g ~unit_name ~file ~role str =
  Hashtbl.replace g.roles unit_name role;
  let sc =
    { s_unit = unit_name; s_dir = Filename.dirname file; locals = Hashtbl.create 64 }
  in
  iter_items (scan_item g sc) [] str.str_items

(* ------------------------------------------------------------------ *)
(* Phase 1c: resolution and the worklist                                *)
(* ------------------------------------------------------------------ *)

let rec take n = function x :: r when n > 0 -> x :: take (n - 1) r | _ -> []
let rec drop n l = match l with _ :: r when n > 0 -> drop (n - 1) r | _ -> l

(* The definition an absolute path names: its longest prefix that is a
   unit, then the rest inside that unit, re-rooted at any module alias
   on the way.  [None] for paths outside the graph (the stdlib, other
   libraries). *)
let rec key_of ?(hops = 0) g parts =
  let rec unit_prefix i =
    if i = 0 then None
    else
      let u = String.concat "." (take i parts) in
      if Hashtbl.mem g.roles u then Some (u, drop i parts)
      else unit_prefix (i - 1)
  in
  match unit_prefix (List.length parts - 1) with
  | None -> None
  | Some (u, rest) ->
      let rec via j =
        if j >= List.length rest then Some (u, String.concat "." rest)
        else
          match Hashtbl.find_opt g.aliases (u, String.concat "." (take j rest)) with
          | Some target when hops < 8 ->
              key_of ~hops:(hops + 1) g (target @ drop j rest)
          | _ -> via (j + 1)
      in
      via 1

(* every key reachable from [seeds] over the definitions' edges, never
   entering [stop] *)
let reach g ~stop seeds =
  let seen = Hashtbl.create 256 and queue = Queue.create () in
  let visit k =
    if not (Hashtbl.mem seen k || Hashtbl.mem stop k) then begin
      Hashtbl.replace seen k ();
      Queue.add k queue
    end
  in
  List.iter visit seeds;
  while not (Queue.is_empty queue) do
    match Hashtbl.find_opt g.defs (Queue.pop queue) with
    | Some callees -> List.iter (fun p -> Option.iter visit (key_of g p)) callees
    | None -> ()
  done;
  seen

type hotset = {
  h_hot : (key, unit) Hashtbl.t;
  h_cold : (key, unit) Hashtbl.t;
}

let resolve marks g =
  let cold = Hashtbl.copy marks.m_cold in
  Hashtbl.iter (fun k () -> Hashtbl.replace cold k ()) g.g_cold;
  let seeds tbl = List.of_seq (Hashtbl.to_seq_keys tbl) in
  { h_hot = reach g ~stop:cold (seeds marks.m_hot @ seeds g.g_hot); h_cold = cold }

(* ------------------------------------------------------------------ *)
(* The unused-export rule                                               *)
(* ------------------------------------------------------------------ *)

let unused_exports marks g =
  let role_in roles u =
    match Hashtbl.find_opt g.roles u with
    | Some r -> List.mem r roles
    | None -> false
  in
  (* programs' and tests' own definitions are live; lib initialisers run
     whenever a program links the unit *)
  let seeds roles =
    Hashtbl.fold
      (fun ((u, v) as k) _ acc ->
        if role_in roles u || (v = "" && role_in [ Lib ] u) then k :: acc
        else acc)
      g.defs []
  in
  let none = Hashtbl.create 1 in
  let by_programs = reach g ~stop:none (seeds [ Program ]) in
  let by_tests = reach g ~stop:none (seeds [ Program; Test ]) in
  let named_outside = Hashtbl.create 512 in
  let name_from u p =
    match key_of g p with
    | Some ((u', _) as k) when u' <> u -> Hashtbl.replace named_outside k ()
    | _ -> ()
  in
  Hashtbl.iter (fun (u, _) -> List.iter (name_from u)) g.defs;
  List.filter_map
    (fun x ->
      let u, v = x.x_key in
      let msg =
        if not (Hashtbl.mem named_outside x.x_key) then
          Some
            (Printf.sprintf
               "nothing outside %s names %s.%s; drop it from the interface" u
               u v)
        else if x.x_test_api || Hashtbl.mem by_programs x.x_key then None
        else if Hashtbl.mem by_tests x.x_key then
          Some
            (Printf.sprintf
               "no program reaches %s.%s, only tests do; delete it with its \
                tests, or mark it [@@rt.test_api \"why\"]"
               u v)
        else Some (Printf.sprintf "nothing reaches %s.%s; delete it" u v)
      in
      Option.map
        (fun msg ->
          Finding.of_location ~severity:Finding.Note ~file:x.x_file
            ~rule:"unused-export" ~msg x.x_loc)
        msg)
    marks.exports

(* ------------------------------------------------------------------ *)
(* Phase 2: the rule walker                                             *)
(* ------------------------------------------------------------------ *)

type ctx = {
  file : string;
  bindings : (Ident.t, expression) Hashtbl.t; (* every let-bound rhs *)
  mutable found : Finding.t list;
}

let report ctx ?severity (loc : Location.t) rule msg =
  ctx.found <-
    Finding.of_location ?severity ~file:ctx.file ~rule ~msg loc :: ctx.found

let report_alloc ctx (loc : Location.t) what =
  report ctx ~severity:Finding.Warning loc "hot-alloc-in-loop"
    (Printf.sprintf
       "%s allocation on every iteration of a hot loop; hoist it or \
        restructure into an allocation-free scan"
       what)

(* immediate sub-expressions, for constructs with no special handling *)
let children (e : expression) =
  let acc = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr = (fun _ c -> acc := c :: !acc);
    }
  in
  Tast_iterator.default_iterator.expr it e;
  List.rev !acc

let has_ident_of ids (e : expression) =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub x ->
          (match x.exp_desc with
          | Texp_ident (Path.Pident id, _, _)
            when List.exists (Ident.same id) ids ->
              found := true
          | _ -> ());
          if not !found then Tast_iterator.default_iterator.expr sub x);
    }
  in
  it.expr it e;
  !found

(* --- type shapes ------------------------------------------------- *)

let rec strip_arrows ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, _, b, _) -> strip_arrows b
  | Types.Tlink t | Types.Tsubst (t, _) -> strip_arrows t
  | _ -> ty

let rec tuple_boxes_float ty =
  match Types.get_desc ty with
  | Types.Ttuple ts ->
      List.exists (fun t -> Typed_lint.is_float t || tuple_boxes_float t) ts
  | Types.Tlink t | Types.Tsubst (t, _) -> tuple_boxes_float t
  | _ -> false

(* does returning a value of this type box a float per call?  Tuples and
   options *directly* around floats do; an option around an existing
   structure (list, record) only allocates the option cell *)
let boxed_float_result ty =
  match Types.get_desc ty with
  | Types.Ttuple _ -> if tuple_boxes_float ty then Some "a float-carrying tuple" else None
  | Types.Tconstr (p, [ a ], _) when Path.same p Predef.path_option ->
      if Typed_lint.is_float a then Some "a float option"
      else if tuple_boxes_float a then Some "an option of a float-carrying tuple"
      else None
  | _ -> None

let rec is_arrow ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Types.Tlink t | Types.Tsubst (t, _) -> is_arrow t
  | _ -> false

(* --- rule tables -------------------------------------------------- *)

(* List.* callees whose cost is a full traversal of a list the SoA
   refactor (ROADMAP item 3) will turn into an array *)
let list_traversal_fns =
  [
    "iter"; "iteri"; "map"; "mapi"; "rev_map"; "fold_left"; "fold_right";
    "filter"; "filteri"; "filter_map"; "partition"; "find"; "find_opt";
    "find_map"; "exists"; "for_all"; "mem"; "memq"; "assoc"; "assoc_opt";
    "sort"; "stable_sort"; "sort_uniq"; "fast_sort"; "concat"; "concat_map";
    "flatten"; "length"; "nth"; "nth_opt"; "rev"; "append"; "rev_append";
    "split"; "combine"; "iter2"; "map2"; "fold_left2"; "for_all2"; "exists2";
  ]

(* higher-order combinators whose function argument runs once per element *)
let iterating_mods = [ "List"; "Array"; "Seq" ]

let iterating_fns =
  [
    "iter"; "iteri"; "map"; "mapi"; "rev_map"; "fold_left"; "fold_right";
    "filter"; "filteri"; "filter_map"; "partition"; "find"; "find_opt";
    "find_map"; "exists"; "for_all"; "init"; "concat_map"; "sort";
    "stable_sort"; "sort_uniq"; "fast_sort"; "iter2"; "map2"; "fold_left2";
    "for_all2"; "exists2";
  ]

(* callbacks whose tail value is produced at most once per combinator
   call (the search family): a tail allocation there is not churn *)
let once_result_fns = [ "find"; "find_opt"; "find_map" ]

(* polymorphic accessors whose generic return is boxed when instantiated
   at float.  Array.get is deliberately absent: float arrays are flat. *)
let boxing_poly_heads =
  [
    [ "fst" ]; [ "snd" ]; [ "List"; "hd" ]; [ "List"; "nth" ];
    [ "List"; "assoc" ]; [ "Hashtbl"; "find" ]; [ "Hashtbl"; "find_opt" ];
    [ "Option"; "get" ]; [ "Option"; "value" ];
  ]

(* --- float recursion -------------------------------------------------- *)

(* the float-typed parameters along a curried [fun a b c -> ...] spine,
   labelled ones included; a [function] with several cases counts each
   case's pattern once *)
let rec float_params (e : expression) =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      List.concat_map
        (fun c ->
          let here =
            if Typed_lint.is_float c.c_lhs.pat_type then
              match c.c_lhs.pat_desc with
              | Tpat_var (_, name) -> [ name.txt ]
              | _ -> [ "_" ]
            else []
          in
          here @ float_params c.c_rhs)
        cases
  | _ -> []

(* a self-recursive function on a hot path that takes a float: without
   flambda, ocamlopt passes it boxed, so every fresh value allocates at
   each call *)
let report_float_recursion ctx (loc : Location.t) name (fn : expression) =
  match float_params fn with
  | [] -> ()
  | params ->
      report ctx ~severity:Finding.Note loc "hot-float-recursion"
        (Printf.sprintf
           "self-recursive '%s' takes float parameter%s %s on a hot path; \
            without flambda each call boxes a fresh float argument, so a \
            scan written this way allocates per step. A for/while loop over \
            an int index, with exact comparisons via Float.compare, boxes \
            nothing"
           name
           (if List.length params > 1 then "s" else "")
           (String.concat ", " params))

(* --- the walker ---------------------------------------------------- *)

(* [loop] is lexical: are we inside a region that executes once per
   iteration of some hot loop?  Bound closures reset it (their bodies run
   when called, not where defined); iteration-combinator callbacks and
   the non-tail region of self-recursive functions set it. *)
let rec rules ctx ~loop (e : expression) =
  match e.exp_desc with
  | Texp_while (c, b) ->
      rules ctx ~loop c;
      rules ctx ~loop:true b
  | Texp_for (_, _, lo, hi, _, b) ->
      rules ctx ~loop lo;
      rules ctx ~loop hi;
      rules ctx ~loop:true b
  | Texp_let (rf, vbs, body) ->
      walk_bindings ctx ~loop rf vbs;
      rules ctx ~loop body
  | Texp_function { cases; _ } ->
      if loop then report_alloc ctx e.exp_loc "closure";
      (* the body runs when the closure is called, not per iteration *)
      List.iter
        (fun c ->
          Option.iter (rules ctx ~loop:false) c.c_guard;
          rules ctx ~loop:false c.c_rhs)
        cases
  | Texp_tuple es ->
      if loop then report_alloc ctx e.exp_loc "tuple";
      List.iter (rules ctx ~loop) es
  | Texp_record { fields; extended_expression; _ } ->
      if loop then report_alloc ctx e.exp_loc "record";
      Option.iter (rules ctx ~loop) extended_expression;
      Array.iter
        (fun (_, def) ->
          match def with
          | Overridden (_, ex) -> rules ctx ~loop ex
          | Kept _ -> ())
        fields
  | Texp_construct (_, cd, args) ->
      if loop && cd.Types.cstr_name = "::" then
        report_alloc ctx e.exp_loc "list cons";
      List.iter (rules ctx ~loop) args
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
      rules_apply ctx ~loop e (norm p) args
  | _ -> List.iter (rules ctx ~loop) (children e)

and rules_apply ctx ~loop e comps args =
  let pos =
    List.filter_map
      (fun (lbl, a) ->
        match (lbl, a) with Asttypes.Nolabel, Some a -> Some a | _ -> None)
      args
  in
  (match (comps, pos) with
  | [ "ref" ], a :: _ when Typed_lint.contains_float a.exp_type ->
      report ctx ~severity:Finding.Warning e.exp_loc "hot-boxed-float"
        "float-bearing ref boxes every update when a closure captures it \
         or it escapes; keep it local to one function's loop, where \
         ocamlopt unboxes it, or hold the value in a float array. A \
         self-recursive scan is no fix: it boxes its float arguments on \
         every call"
  | _ -> ());
  if List.mem comps boxing_poly_heads && Typed_lint.is_float e.exp_type then
    report ctx ~severity:Finding.Warning e.exp_loc "hot-boxed-float"
      (Printf.sprintf
         "%s instantiated at float returns a boxed float; use a \
          float-specialized access"
         (String.concat "." comps));
  (match comps with
  | [ "List"; fn ] when List.mem fn list_traversal_fns ->
      report ctx ~severity:Finding.Note e.exp_loc "hot-list-traversal"
        (Printf.sprintf
           "List.%s traversal on a hot path; the SoA refactor (ROADMAP item \
            3) wants this data in unboxed arrays"
           fn)
  | [ "@" ] ->
      report ctx ~severity:Finding.Note e.exp_loc "hot-list-traversal"
        "list append on a hot path; the SoA refactor (ROADMAP item 3) wants \
         this data in unboxed arrays"
  | _ -> ());
  let callback_loop, once_tail =
    match comps with
    | [ m; fn ] when List.mem m iterating_mods && List.mem fn iterating_fns ->
        (true, List.mem fn once_result_fns)
    | _ -> (false, false)
  in
  (* a curried [fun a b -> ...] is ONE closure: descend the whole
     parameter spine without re-flagging the inner lambdas, then walk the
     body as the per-element region *)
  let rec walk_callback (e : expression) =
    match e.exp_desc with
    | Texp_function { cases; _ } ->
        List.iter
          (fun c ->
            Option.iter (rules ctx ~loop:true) c.c_guard;
            match c.c_rhs.exp_desc with
            | Texp_function _ -> walk_callback c.c_rhs
            | _ ->
                if once_tail then walk_tail ctx ~self:[] ~outer:loop c.c_rhs
                else rules ctx ~loop:true c.c_rhs)
          cases
    | _ -> ()
  in
  List.iter
    (fun (_, a) ->
      match a with
      | None -> ()
      | Some ({ exp_desc = Texp_function _; _ } as f) when callback_loop ->
          if loop then report_alloc ctx f.exp_loc "closure";
          walk_callback f
      | Some a -> rules ctx ~loop a)
    args

(* tail spine of a self-recursive body ([self] = the rec group) or of a
   once-result callback ([self] = []).  A tail subtree without a
   self-call is an exit expression: it runs once per entry, so it is
   walked under the enclosing region's flag instead of the loop's. *)
and walk_tail ctx ~self ~outer (e : expression) =
  if self <> [] && not (has_ident_of self e) then rules ctx ~loop:outer e
  else
    match e.exp_desc with
    | Texp_ifthenelse (c, a, b) ->
        rules ctx ~loop:true c;
        walk_tail ctx ~self ~outer a;
        Option.iter (walk_tail ctx ~self ~outer) b
    | Texp_match (scrut, cases, _) ->
        rules ctx ~loop:true scrut;
        List.iter
          (fun c ->
            Option.iter (rules ctx ~loop:true) c.c_guard;
            walk_tail ctx ~self ~outer c.c_rhs)
          cases
    | Texp_let (rf, vbs, body) ->
        walk_bindings ctx ~loop:true rf vbs;
        walk_tail ctx ~self ~outer body
    | Texp_sequence (a, b) ->
        rules ctx ~loop:true a;
        walk_tail ctx ~self ~outer b
    | Texp_try (body, cases) ->
        walk_tail ctx ~self ~outer body;
        List.iter (fun c -> walk_tail ctx ~self ~outer c.c_rhs) cases
    | _ ->
        if self = [] then rules ctx ~loop:outer e
        else rules ctx ~loop:true e

(* curried parameter spine of a self-recursive function: descend to the
   actual body, then tail-walk it *)
and walk_rec_fn ctx ~self ~outer (e : expression) =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      List.iter
        (fun c ->
          Option.iter (rules ctx ~loop:true) c.c_guard;
          match c.c_rhs.exp_desc with
          | Texp_function _ -> walk_rec_fn ctx ~self ~outer c.c_rhs
          | _ -> walk_tail ctx ~self ~outer c.c_rhs)
        cases
  | _ -> rules ctx ~loop:true e

and walk_bindings ctx ~loop rf (vbs : value_binding list) =
  let group =
    if rf = Asttypes.Recursive then
      List.filter_map
        (fun (vb : value_binding) ->
          match vb.vb_pat.pat_desc with
          | Tpat_var (id, _) -> Some id
          | _ -> None)
        vbs
    else []
  in
  List.iter
    (fun (vb : value_binding) ->
      match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
      | Tpat_var (_, name), Texp_function _ ->
          let fn = vb.vb_expr in
          (match boxed_float_result (strip_arrows fn.exp_type) with
          | Some what ->
              report ctx ~severity:Finding.Warning vb.vb_loc
                "hot-boxed-float"
                (Printf.sprintf
                   "local function '%s' returns %s; every call allocates — \
                    flatten it into unboxed float results or accumulators"
                   name.txt what)
          | None -> ());
          if loop then report_alloc ctx fn.exp_loc "closure";
          let self =
            if group <> [] && has_ident_of group fn then group else []
          in
          if self <> [] then begin
            report_float_recursion ctx vb.vb_loc name.txt fn;
            walk_rec_fn ctx ~self ~outer:loop fn
          end
          else rules ctx ~loop:false fn
      | _ -> rules ctx ~loop vb.vb_expr)
    vbs

(* ------------------------------------------------------------------ *)
(* budget-no-poll                                                       *)
(* ------------------------------------------------------------------ *)

(* Can evaluating [e] reach a Rt_prelude.Clock read?  First-order and
   per-unit: unqualified calls resolve through the unit's let bindings;
   a call through anything unresolvable (a function parameter, a
   computed function value) counts as "may poll", so only provably
   clockless loops are flagged.  Qualified calls that do not name Clock
   are trusted not to poll. *)
let rec body_polls ctx visited (e : expression) : bool =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
      List.mem "Clock" (norm p)
      ||
      match p with
      | Path.Pident id when is_arrow e.exp_type -> (
          match Hashtbl.find_opt ctx.bindings id with
          | Some rhs ->
              (not (ISet.mem id visited))
              && body_polls ctx (ISet.add id visited) rhs
          | None -> true (* a function-valued parameter may be the poll *))
      | _ -> false)
  | Texp_apply (({ exp_desc = Texp_ident (Path.Pident id, _, _); _ } as hd), args)
    ->
      body_polls ctx visited hd
      || (match Hashtbl.find_opt ctx.bindings id with
         | Some rhs ->
             (not (ISet.mem id visited))
             && body_polls ctx (ISet.add id visited) rhs
         | None -> true)
      || List.exists
           (fun (_, a) ->
             match a with Some a -> body_polls ctx visited a | None -> false)
           args
  | Texp_apply (({ exp_desc = Texp_ident _; _ } as hd), args) ->
      body_polls ctx visited hd
      || List.exists
           (fun (_, a) ->
             match a with Some a -> body_polls ctx visited a | None -> false)
           args
  | Texp_apply (({ exp_desc = Texp_apply _; _ } as hd), args) ->
      (* partial-application head — [x |> Fun.flip f e] is rewritten by
         the typechecker into a direct application of the computed
         closure.  Whatever runs is assembled from the head's own
         sub-expressions, which the recursion resolves ident-by-ident
         (an unresolvable arrow-typed ident still counts as may-poll) *)
      body_polls ctx visited hd
      || List.exists
           (fun (_, a) ->
             match a with Some a -> body_polls ctx visited a | None -> false)
           args
  | Texp_apply (_, _) -> true (* function fetched from a structure *)
  | _ -> List.exists (body_polls ctx visited) (children e)

(* every loop transitively reachable from [e] through this unit's
   bindings, in evaluation-spine preorder: while-loops, and bindings of
   self-recursive functions.  A let-bound function's body only runs when
   the function is called, so its loops are discovered through call
   sites — this keeps the first-reported witness on the caller's
   evaluation spine (the driver loop), not inside a helper defined
   lexically earlier. *)
let loops_of ctx (e : expression) =
  let acc = ref [] in
  let add kind loc = acc := (kind, loc) :: !acc in
  let rec go visited (e : expression) =
    match e.exp_desc with
    | Texp_while _ ->
        add `While e.exp_loc;
        List.iter (go visited) (children e)
    | Texp_let (_, vbs, body) ->
        List.iter
          (fun (vb : value_binding) ->
            match vb.vb_expr.exp_desc with
            | Texp_function _ -> () (* surfaces at its call sites *)
            | _ -> go visited vb.vb_expr)
          vbs;
        go visited body
    | Texp_apply ({ exp_desc = Texp_ident (Path.Pident id, _, _); _ }, args)
      ->
        (match Hashtbl.find_opt ctx.bindings id with
        | Some rhs when not (ISet.mem id visited) ->
            if has_ident_of [ id ] rhs then add `Rec rhs.exp_loc;
            go (ISet.add id visited) rhs
        | _ -> ());
        List.iter (fun (_, a) -> Option.iter (go visited) a) args
    | _ -> List.iter (go visited) (children e)
  in
  go ISet.empty e;
  List.rev !acc

let is_budget_name n = n = "budgeted" || has_suffix n "_budgeted"

let check_budget_root ctx ~name ~self_rec (vb : value_binding) =
  if not (body_polls ctx ISet.empty vb.vb_expr) then begin
    let loops = loops_of ctx vb.vb_expr in
    let loops =
      if self_rec then loops @ [ (`Rec, vb.vb_expr.exp_loc) ] else loops
    in
    let witness =
      match List.find_opt (fun (k, _) -> k = `While) loops with
      | Some _ as w -> w
      | None -> ( match loops with l :: _ -> Some l | [] -> None)
    in
    match witness with
    | Some (_, loc) ->
        report ctx loc "budget-no-poll"
          (Printf.sprintf
             "this loop is reachable from budgeted entry point '%s' but can \
              iterate without ever consulting Rt_prelude.Clock; poll the \
              budget clock or suppress with a reason why the iteration \
              count bounds wall time"
             name)
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Per-unit driver                                                      *)
(* ------------------------------------------------------------------ *)

type def = {
  d_key : key;
  d_name : string;
  d_id : Ident.t option;
  d_group : Ident.t list; (* idents of the enclosing rec group *)
  d_vb : value_binding;
}

let collect_defs ~unit (str : structure) =
  let acc = ref [] in
  iter_items
    (fun path (si : structure_item) ->
      match si.str_desc with
      | Tstr_value (rf, vbs) ->
          let group =
            if rf = Asttypes.Recursive then
              List.filter_map
                (fun (vb : value_binding) ->
                  match vb.vb_pat.pat_desc with
                  | Tpat_var (id, _) -> Some id
                  | _ -> None)
                vbs
            else []
          in
          List.iter
            (fun (vb : value_binding) ->
              match vb.vb_pat.pat_desc with
              | Tpat_var (id, name) ->
                  acc :=
                    {
                      d_key = key_at unit path name.txt;
                      d_name = name.txt;
                      d_id = Some id;
                      d_group = group;
                      d_vb = vb;
                    }
                    :: !acc
              | _ -> ())
            vbs
      | _ -> ())
    [] str.str_items;
  List.rev !acc

let collect_bindings ctx (str : structure) =
  let open Tast_iterator in
  let value_binding sub (vb : value_binding) =
    (match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) -> Hashtbl.replace ctx.bindings id vb.vb_expr
    | _ -> ());
    default_iterator.value_binding sub vb
  in
  let it = { default_iterator with value_binding } in
  it.structure it str

let check ~hot ~file ~unit_name (str : structure) =
  let ctx = { file; bindings = Hashtbl.create 64; found = [] } in
  collect_bindings ctx str;
  let defs = collect_defs ~unit:unit_name str in
  List.iter
    (fun d ->
      if Hashtbl.mem hot.h_hot d.d_key && not (Hashtbl.mem hot.h_cold d.d_key)
      then begin
        let fn = d.d_vb.vb_expr in
        let self =
          match fn.exp_desc with
          | Texp_function _ when d.d_group <> [] && has_ident_of d.d_group fn
            ->
              d.d_group
          | _ -> []
        in
        if self <> [] then begin
          report_float_recursion ctx d.d_vb.vb_loc d.d_name fn;
          walk_rec_fn ctx ~self ~outer:false fn
        end
        else rules ctx ~loop:false fn
      end)
    defs;
  List.iter
    (fun d ->
      if is_budget_name d.d_name then begin
        let self_rec =
          match d.d_id with
          | Some id -> has_ident_of [ id ] d.d_vb.vb_expr
          | None -> false
        in
        check_budget_root ctx ~name:d.d_name ~self_rec d.d_vb
      end)
    defs;
  List.sort_uniq Finding.compare ctx.found
