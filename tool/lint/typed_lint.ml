(* The typed rt-lint pass: rules that need real type information.

   Where PR 1's engine guessed "is this expression a float?" from names
   seeded in a hand-maintained table, this pass walks the *typedtree* —
   either read back from the .cmt files dune already produces (the repo
   walk), or obtained by running the compiler's own type inference on a
   standalone file (the fixture path used by the tests).  Rules:

   - float-cmp   bare =/<<=/>/>=/<>/compare/min/max with a float operand
   - poly-cmp    polymorphic comparison or Hashtbl.hash instantiated at a
                 float-bearing type (tuple/list/option/array of floats)
   - phys-cmp    ==/!= anywhere
   - ambient-random  Random.* outside Rt_prelude.Rng (self_init anywhere)
   - wallclock   Sys.time/Unix wall-clock reads inside lib/
   - dim-mismatch    the units-of-measure analysis (see docs/UNITS.md):
                 additions, subtractions, comparisons and record-field
                 assignments whose operands carry different dimensions *)

open Typedtree

(* ------------------------------------------------------------------ *)
(* Obtaining a typedtree                                                *)
(* ------------------------------------------------------------------ *)

let read_cmt path =
  match (Cmt_format.read_cmt path).Cmt_format.cmt_annots with
  | Cmt_format.Implementation str -> Ok str
  | _ -> Error (path ^ ": cmt does not contain an implementation")
  | exception exn ->
      Error (Printf.sprintf "%s: unreadable cmt (%s)" path
               (Printexc.to_string exn))

let stdlib_ready = lazy (Compmisc.init_path ())

let type_standalone ?(units = []) parsetree =
  Lazy.force stdlib_ready;
  (* fixtures deliberately contain smelly code; don't let the typer's own
     warnings (unused value, ...) leak onto stderr *)
  ignore (Warnings.parse_options false "-a");
  let env =
    List.fold_left
      (fun env (name, sg) ->
        Env.add_module (Ident.create_persistent name) Types.Mp_present
          (Types.Mty_signature sg) env)
      (Compmisc.initial_env ()) units
  in
  match Typemod.type_structure env parsetree with
  | str, _, _, _, _ -> Ok str
  | exception exn -> (
      match Location.error_of_exn exn with
      | Some (`Ok report) ->
          Error (Format.asprintf "%a" Location.print_report report)
      | _ -> Error (Printexc.to_string exn))

(* ------------------------------------------------------------------ *)
(* Types and paths                                                      *)
(* ------------------------------------------------------------------ *)

(* [Float.t] is an abbreviation of [float]; .cmt files keep only
   summarized environments, so rather than expanding abbreviations we
   recognize the stdlib alias by its path *)
let float_t_path (p : Path.t) =
  match p with
  | Path.Pdot (q, "t") -> (
      match q with
      | Path.Pident id ->
          let n = Ident.name id in
          n = "Float" || n = "Stdlib__Float"
      | Path.Pdot (_, "Float") -> true
      | _ -> false)
  | _ -> false

let is_float ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) ->
      Path.same p Predef.path_float || float_t_path p
  | _ -> false

let is_floatish ty =
  is_float ty
  ||
  match Types.get_desc ty with
  | Types.Tconstr (p, [ a ], _) -> Path.same p Predef.path_option && is_float a
  | _ -> false

(* Structural float occurrence: recurses through tuples and type
   constructor arguments (lists, options, arrays, pairs...).  Nominal
   record/variant contents are not expanded — that would need an
   environment, which .cmt files only keep in summarized form. *)
let contains_float ty =
  let rec go depth ty =
    depth < 8
    &&
    match Types.get_desc ty with
    | Types.Tconstr (p, args, _) ->
        Path.same p Predef.path_float || float_t_path p
        || List.exists (go (depth + 1)) args
    | Types.Ttuple ts -> List.exists (go (depth + 1)) ts
    | Types.Tarrow (_, a, b, _) -> go (depth + 1) a || go (depth + 1) b
    | Types.Tlink t | Types.Tsubst (t, _) -> go depth t
    | _ -> false
  in
  go 0 ty

(* Path components with dune's wrapping artifacts undone:
   [Rt_prelude__Rng.float] -> ["Rt_prelude"; "Rng"; "float"].  Operator
   names contain dots, so this decomposes the path structurally instead of
   splitting [Path.name]. *)
let split_wrapped s =
  let parts = ref [] and buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && s.[!i] = '_' && s.[!i + 1] = '_' then begin
      if Buffer.length buf > 0 then parts := Buffer.contents buf :: !parts;
      Buffer.clear buf;
      i := !i + 2
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  if Buffer.length buf > 0 then parts := Buffer.contents buf :: !parts;
  List.rev !parts

let rec path_parts (p : Path.t) =
  match p with
  | Path.Pident id -> split_wrapped (Ident.name id)
  | Path.Pdot (q, s) -> path_parts q @ [ s ]
  | Path.Papply (a, b) -> path_parts a @ path_parts b
  | _ -> split_wrapped (Path.name p)

(* ------------------------------------------------------------------ *)
(* Context                                                              *)
(* ------------------------------------------------------------------ *)

module IMap = Map.Make (struct
  type t = Ident.t

  let compare = Ident.compare
end)

type binding = { v : Dim.v; fn : Dim.v }

type ctx = {
  dims : Dim_table.t;
  file : string;
  modname : string;
  in_lib : bool;
  check_floats : bool; (* off inside Float_cmp itself *)
  aliases : (string, string list) Hashtbl.t; (* module X = Longer.Path *)
  handled_heads : (Location.t, unit) Hashtbl.t;
  mutable found : Finding.t list;
}

let report ctx loc rule msg =
  ctx.found <- Finding.of_location ~file:ctx.file ~rule ~msg loc :: ctx.found

let normalize ctx p =
  let parts = path_parts p in
  let parts =
    match parts with
    | "Stdlib" :: (_ :: _ as rest) -> rest
    | _ -> parts
  in
  match parts with
  | hd :: rest when Hashtbl.mem ctx.aliases hd ->
      Hashtbl.find ctx.aliases hd @ rest
  | _ -> parts

(* the (module, name) key the dimension table uses, given normalized
   components: the value's module is the last module component, or the
   current compilation unit for unqualified paths *)
let table_key ctx comps =
  match List.rev comps with
  | name :: m :: _ -> Some (m, name)
  | [ name ] -> Some (ctx.modname, name)
  | [] -> None

let value_dim ctx comps =
  match table_key ctx comps with
  | Some (m, n) -> Dim_table.value_dim ctx.dims ~modname:m n
  | None -> None

let field_dim_of_label ctx (lbl : Types.label_description) =
  let modname =
    match Types.get_desc lbl.Types.lbl_res with
    | Types.Tconstr (p, _, _) -> (
        match List.rev (path_parts p) with
        | _ty :: m :: _ -> m
        | _ -> ctx.modname)
    | _ -> ctx.modname
  in
  Dim_table.field_dim ctx.dims ~modname lbl.Types.lbl_name

(* ------------------------------------------------------------------ *)
(* Per-node rules (full coverage via Tast_iterator)                     *)
(* ------------------------------------------------------------------ *)

let cmp_names = [ "="; "<"; "<="; ">"; ">="; "<>"; "compare"; "min"; "max" ]

let op_spelling = function
  | "compare" -> "compare"
  | ("min" | "max") as op -> op
  | op -> Printf.sprintf "(%s)" op

let unlabelled_args args =
  List.filter_map
    (fun (lbl, a) ->
      match (lbl, a) with Asttypes.Nolabel, Some e -> Some e | _ -> None)
    args

let check_cmp_head ctx (e : expression) comps args =
  match comps with
  | [ (("==" | "!=") as op) ] ->
      report ctx e.exp_loc "phys-cmp"
        (Printf.sprintf
           "physical comparison (%s) is only meaningful on mutable values; \
            use structural comparison or an explicit id"
           op)
  | [ op ] when List.mem op cmp_names ->
      let fargs = unlabelled_args args in
      if ctx.check_floats && List.exists (fun a -> is_float a.exp_type) fargs
      then
        report ctx e.exp_loc "float-cmp"
          (Printf.sprintf
             "bare %s on a float-valued operand; route the tolerance through \
              Prelude.Float_cmp (or Float.min/Float.max)"
             (op_spelling op))
      else if
        ctx.check_floats
        && List.exists (fun a -> contains_float a.exp_type) fargs
      then
        report ctx e.exp_loc "poly-cmp"
          (Printf.sprintf
             "polymorphic %s instantiated at a float-bearing type; compare \
              the float components through Prelude.Float_cmp explicitly"
             (op_spelling op))
  | [ "Hashtbl"; ("hash" | "seeded_hash") ] ->
      let fargs = unlabelled_args args in
      if List.exists (fun a -> contains_float a.exp_type) fargs then
        report ctx e.exp_loc "poly-cmp"
          "Hashtbl.hash on a float-bearing value; hash a stable key instead \
           (bit-equal floats are not the equality the domain uses)"
  | _ -> ()

let check_ident ctx (e : expression) comps =
  (* determinism rules fire on any occurrence, applied or not *)
  (match comps with
  | [ "Random"; "self_init" ] | [ "Random"; "State"; "make_self_init" ] ->
      report ctx e.exp_loc "ambient-random"
        (Printf.sprintf
           "%s makes runs unreproducible; thread an explicit seeded \
            Rt_prelude.Rng instead"
           (String.concat "." comps))
  | [ "Random"; fn ] ->
      (* single-level Random.f draws from the ambient global state;
         Random.State.f with an explicit state is fine *)
      if ctx.in_lib then
        report ctx e.exp_loc "ambient-random"
          (Printf.sprintf
             "ambient Random.%s in lib/; thread an explicit Rt_prelude.Rng \
              so every experiment row is regenerable from its seed"
             fn)
  | [ "Sys"; "time" ]
  | [ "Unix"; ("time" | "gettimeofday" | "localtime" | "gmtime") ] ->
      if ctx.in_lib then
        report ctx e.exp_loc "wallclock"
          (Printf.sprintf
             "wall-clock read (%s) in lib/; outside sanctioned budget \
              plumbing this breaks replayability — inject the clock or \
              suppress with a reason"
             (String.concat "." comps))
  | _ -> ());
  (* a comparison primitive *passed* somewhere (List.sort compare xs) at a
     float-bearing instantiation *)
  if not (Hashtbl.mem ctx.handled_heads e.exp_loc) then
    match comps with
    | [ op ] when List.mem op cmp_names ->
        if ctx.check_floats && contains_float e.exp_type then
          report ctx e.exp_loc "poly-cmp"
            (Printf.sprintf
               "polymorphic %s used as a comparator at a float-bearing type; \
                use Prelude.Float_cmp or a field-explicit comparator"
               (op_spelling op))
    | [ "Hashtbl"; ("hash" | "seeded_hash") ] ->
        if contains_float e.exp_type then
          report ctx e.exp_loc "poly-cmp"
            "Hashtbl.hash used at a float-bearing type; hash a stable key \
             instead"
    | _ -> ()

let rule_iterator ctx =
  let open Tast_iterator in
  let expr it (e : expression) =
    (match e.exp_desc with
    | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as hd), args) ->
        Hashtbl.replace ctx.handled_heads hd.exp_loc ();
        check_cmp_head ctx e (normalize ctx p) args
    | Texp_ident (p, _, _) -> check_ident ctx e (normalize ctx p)
    | _ -> ());
    default_iterator.expr it e
  in
  { default_iterator with expr }

(* ------------------------------------------------------------------ *)
(* Dimension inference                                                  *)
(* ------------------------------------------------------------------ *)

let float_cmp_fns =
  [
    "approx_eq"; "leq"; "geq"; "lt"; "gt"; "exact_eq";
    "exact_lt"; "exact_le"; "exact_gt"; "exact_ge";
  ]

let dim_mismatch ctx loc what (da : Dim.t) (db : Dim.t) =
  report ctx loc "dim-mismatch"
    (Printf.sprintf "%s mixes %s with %s" what (Dim.to_string da)
       (Dim.to_string db))

let unify_report ctx loc what a b =
  match Dim.unify a b with
  | Ok d -> d
  | Error (da, db) ->
      dim_mismatch ctx loc what da db;
      Unknown

let rt_dim_of_attrs ctx attrs =
  match
    List.find_opt (fun a -> a.Parsetree.attr_name.txt = Rt_prelude.Annot.dim) attrs
  with
  | None -> None
  | Some a -> (
      match Dim_table.string_payload a.Parsetree.attr_payload with
      | None ->
          report ctx a.Parsetree.attr_loc "dim-annotation"
            "[@rt.dim] payload must be a string literal";
          None
      | Some s -> (
          match Dim.of_string s with
          | Ok d -> Some d
          | Error e ->
              report ctx a.Parsetree.attr_loc "dim-annotation"
                (Printf.sprintf "bad dimension %S: %s" s e);
              None))

let add_binding env id b = IMap.add id b env

let rec bind_pat : type k. ctx -> binding IMap.t -> k general_pattern ->
    Dim.v -> binding IMap.t =
 fun ctx env p d ->
  match p.pat_desc with
  | Tpat_var (id, _) -> add_binding env id { v = d; fn = Unknown }
  | Tpat_alias (q, id, _) ->
      bind_pat ctx (add_binding env id { v = d; fn = Unknown }) q d
  | Tpat_construct (_, cd, [ q ], _) when cd.Types.cstr_name = "Some" ->
      bind_pat ctx env q d
  | Tpat_construct (_, _, qs, _) ->
      List.fold_left (fun env q -> bind_pat ctx env q Dim.Unknown) env qs
  | Tpat_tuple qs ->
      List.fold_left (fun env q -> bind_pat ctx env q Dim.Unknown) env qs
  | Tpat_record (fields, _) ->
      List.fold_left
        (fun env (_, lbl, q) ->
          let d =
            match field_dim_of_label ctx lbl with
            | Some d -> Dim.Dim d
            | None -> Dim.Unknown
          in
          bind_pat ctx env q d)
        env fields
  | Tpat_variant (_, Some q, _) -> bind_pat ctx env q Dim.Unknown
  | Tpat_array qs ->
      List.fold_left (fun env q -> bind_pat ctx env q Dim.Unknown) env qs
  | Tpat_lazy q -> bind_pat ctx env q d
  | Tpat_or (a, b, _) -> bind_pat ctx (bind_pat ctx env a d) b d
  | Tpat_value arg -> bind_pat ctx env (arg :> pattern) d
  | Tpat_exception q -> bind_pat ctx env q Dim.Unknown
  | _ -> env

let constraint_dim ctx (e : expression) =
  List.fold_left
    (fun acc (extra, _, attrs) ->
      match (acc, extra) with
      | Some _, _ -> acc
      | None, Texp_constraint ct -> (
          match rt_dim_of_attrs ctx ct.ctyp_attributes with
          | Some d -> Some d
          | None -> rt_dim_of_attrs ctx attrs)
      | None, _ -> rt_dim_of_attrs ctx attrs)
    None e.exp_extra

let rec infer ctx env (e : expression) : Dim.v =
  let d = infer_desc ctx env e in
  match constraint_dim ctx e with Some d -> Dim.Dim d | None -> d

and infer_desc ctx env (e : expression) : Dim.v =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
      if not (is_floatish e.exp_type) then Unknown
      else
        match p with
        | Path.Pident id -> (
            match IMap.find_opt id env with
            | Some b -> b.v
            | None -> (
                match value_dim ctx (normalize ctx p) with
                | Some d -> Dim d
                | None -> Unknown))
        | _ -> (
            match value_dim ctx (normalize ctx p) with
            | Some d -> Dim d
            | None -> Unknown))
  | Texp_constant (Asttypes.Const_float _) -> Any
  | Texp_constant _ -> Unknown
  | Texp_let (_, vbs, body) ->
      let env = bindings ctx env ~toplevel:false vbs in
      infer ctx env body
  | Texp_function _ ->
      ignore (fn_result ctx env e);
      Unknown
  | Texp_apply (hd, args) -> infer_apply ctx env e hd args
  | Texp_match (scrut, cases, _) ->
      let d = infer ctx env scrut in
      List.fold_left
        (fun acc c -> Dim.join acc (infer_case ctx env d c))
        Dim.Any cases
  | Texp_try (body, cases) ->
      let d = infer ctx env body in
      List.fold_left
        (fun acc c -> Dim.join acc (infer_case ctx env Dim.Unknown c))
        d cases
  | Texp_tuple es ->
      List.iter (fun x -> ignore (infer ctx env x)) es;
      Unknown
  | Texp_construct (_, cd, [ arg ]) when cd.Types.cstr_name = "Some" ->
      infer ctx env arg
  | Texp_construct (_, _, args) ->
      List.iter (fun x -> ignore (infer ctx env x)) args;
      Unknown
  | Texp_variant (_, eo) ->
      Option.iter (fun x -> ignore (infer ctx env x)) eo;
      Unknown
  | Texp_record { fields; extended_expression; _ } ->
      Option.iter
        (fun x -> ignore (infer ctx env x))
        extended_expression;
      Array.iter
        (fun (lbl, def) ->
          match def with
          | Overridden (_, ex) -> (
              let dx = infer ctx env ex in
              match (field_dim_of_label ctx lbl, dx) with
              | Some want, Dim got when not (Dim.equal want got) ->
                  dim_mismatch ctx ex.exp_loc
                    (Printf.sprintf "record field %s" lbl.Types.lbl_name)
                    want got
              | _ -> ())
          | Kept _ -> ())
        fields;
      Unknown
  | Texp_field (e0, _, lbl) -> (
      ignore (infer ctx env e0);
      match field_dim_of_label ctx lbl with
      | Some d -> Dim d
      | None -> Unknown)
  | Texp_setfield (e0, _, lbl, ex) ->
      ignore (infer ctx env e0);
      let dx = infer ctx env ex in
      (match (field_dim_of_label ctx lbl, dx) with
      | Some want, Dim got when not (Dim.equal want got) ->
          dim_mismatch ctx ex.exp_loc
            (Printf.sprintf "record field %s" lbl.Types.lbl_name)
            want got
      | _ -> ());
      Unknown
  | Texp_array es ->
      List.iter (fun x -> ignore (infer ctx env x)) es;
      Unknown
  | Texp_ifthenelse (c, a, bo) -> (
      ignore (infer ctx env c);
      let da = infer ctx env a in
      match bo with
      | Some b -> Dim.join da (infer ctx env b)
      | None -> Unknown)
  | Texp_sequence (a, b) ->
      ignore (infer ctx env a);
      infer ctx env b
  | Texp_while (c, b) ->
      ignore (infer ctx env c);
      ignore (infer ctx env b);
      Unknown
  | Texp_for (_, _, lo, hi, _, b) ->
      ignore (infer ctx env lo);
      ignore (infer ctx env hi);
      ignore (infer ctx env b);
      Unknown
  | Texp_letmodule (_, _, _, me, body) ->
      walk_module_expr ctx env me;
      infer ctx env body
  | Texp_letexception (_, body) -> infer ctx env body
  | Texp_assert (cond, _) ->
      ignore (infer ctx env cond);
      Unknown
  | Texp_lazy b -> infer ctx env b
  | Texp_open (_, body) -> infer ctx env body
  | Texp_letop { let_; ands; body; _ } ->
      ignore (infer ctx env let_.bop_exp);
      List.iter (fun a -> ignore (infer ctx env a.bop_exp)) ands;
      ignore (infer_case ctx env Dim.Unknown body);
      Unknown
  | Texp_pack me ->
      walk_module_expr ctx env me;
      Unknown
  | _ -> Unknown

and infer_case : type k. ctx -> binding IMap.t -> Dim.v -> k case -> Dim.v =
 fun ctx env scrut_dim c ->
  let env = bind_pat ctx env c.c_lhs scrut_dim in
  Option.iter (fun g -> ignore (infer ctx env g)) c.c_guard;
  infer ctx env c.c_rhs

(* result dimension of a (possibly curried) function body; this is the only
   traversal of the body, so lambdas are never walked twice *)
and fn_result ctx env (e : expression) : Dim.v =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      List.fold_left
        (fun acc c ->
          let env' = bind_pat ctx env c.c_lhs Dim.Unknown in
          Option.iter (fun g -> ignore (infer ctx env' g)) c.c_guard;
          let d =
            match c.c_rhs.exp_desc with
            | Texp_function _ -> fn_result ctx env' c.c_rhs
            | _ -> infer ctx env' c.c_rhs
          in
          Dim.join acc d)
        Dim.Any cases
  | _ -> infer ctx env e

and infer_apply ctx env (e : expression) hd args : Dim.v =
  let adims =
    List.map
      (fun (lbl, a) -> (lbl, Option.map (fun a -> (a, infer ctx env a)) a))
      args
  in
  let pos =
    List.filter_map
      (fun (lbl, a) ->
        match (lbl, a) with Asttypes.Nolabel, Some p -> Some p | _ -> None)
      adims
  in
  let fallback () =
    if not (is_floatish e.exp_type) then Dim.Unknown
    else
      match hd.exp_desc with
      | Texp_ident (Path.Pident id, _, _) -> (
          match IMap.find_opt id env with
          | Some { fn = Dim d; _ } -> Dim.Dim d
          | _ -> (
              match value_dim ctx (normalize ctx (Path.Pident id)) with
              | Some d -> Dim d
              | None -> Unknown))
      | Texp_ident (p, _, _) -> (
          match value_dim ctx (normalize ctx p) with
          | Some d -> Dim d
          | None -> Unknown)
      | _ ->
          ignore (infer ctx env hd);
          Unknown
  in
  match hd.exp_desc with
  | Texp_ident (p, _, _) -> (
      let comps = normalize ctx p in
      let binop f =
        match pos with
        | [ (_, a); (_, b) ] -> f a b
        | _ -> Dim.Unknown
      in
      match comps with
      | [ "+." ] | [ "-." ] | [ "Float"; ("add" | "sub") ] ->
          binop (fun a b ->
              unify_report ctx e.exp_loc
                (Printf.sprintf "(%s)"
                   (match comps with
                   | [ op ] -> op
                   | _ -> "Float." ^ List.nth comps 1))
                a b)
      | [ "*." ] | [ "Float"; "mul" ] -> binop Dim.v_mul
      | [ "/." ] | [ "Float"; "div" ] -> binop Dim.v_div
      | [ "~-." ] | [ "~+." ] | [ "abs_float" ]
      | [ "Float"; ("neg" | "abs" | "succ" | "pred") ] -> (
          match pos with [ (_, a) ] -> a | _ -> Unknown)
      | [ "Float"; ("min" | "max") ] ->
          binop (fun a b ->
              unify_report ctx e.exp_loc
                ("Float." ^ List.nth comps 1)
                a b)
      | [ "Float"; ("equal" | "compare") ] ->
          ignore
            (binop (fun a b ->
                 unify_report ctx e.exp_loc
                   ("Float." ^ List.nth comps 1)
                   a b));
          Unknown
      | [ "Option"; "value" ] -> (
          (* unify the payload with ~default *)
          let default =
            List.find_map
              (fun (lbl, a) ->
                match (lbl, a) with
                | Asttypes.Labelled "default", Some (_, d) -> Some d
                | _ -> None)
              adims
          in
          match (pos, default) with
          | [ (_, a) ], Some d ->
              unify_report ctx e.exp_loc "Option.value ~default" a d
          | _ -> Unknown)
      | [ "Option"; "get" ] -> (
          match pos with [ (_, a) ] -> a | _ -> Unknown)
      | [ "|>" ] -> (
          match args with
          | [ (_, Some a); (_, Some f) ] -> pipe_result ctx env e a f
          | _ -> fallback ())
      | [ "@@" ] -> (
          match args with
          | [ (_, Some f); (_, Some a) ] -> pipe_result ctx env e a f
          | _ -> fallback ())
      | _ -> (
          match List.rev comps with
          | fn :: "Float_cmp" :: _ when List.mem fn float_cmp_fns ->
              let operands =
                List.filter_map
                  (fun (lbl, a) ->
                    match (lbl, a) with
                    | (Asttypes.Labelled "eps" | Asttypes.Optional "eps"), _ ->
                        None
                    | _, Some (arg, d) when is_float arg.exp_type ->
                        Some d
                    | _ -> None)
                  adims
              in
              (match operands with
              | a :: rest ->
                  ignore
                    (List.fold_left
                       (fun acc d ->
                         unify_report ctx e.exp_loc
                           ("Float_cmp." ^ fn) acc d)
                       a rest)
              | [] -> ());
              Unknown
          | "clamp" :: "Float_cmp" :: _ -> (
              let operands = List.map (fun (_, a) -> a) adims in
              match List.filter_map (Option.map snd) operands with
              | a :: rest ->
                  List.fold_left
                    (fun acc d ->
                      unify_report ctx e.exp_loc "Float_cmp.clamp" acc d)
                    a rest
              | [] -> Unknown)
          | _ -> fallback ()))
  | _ ->
      ignore (infer ctx env hd);
      fallback ()

(* [a |> f] / [f @@ a]: resolve the result dimension of [f] when it is a
   named function; operator sections through pipes are not modelled *)
and pipe_result ctx env (e : expression) _a f =
  match f.exp_desc with
  | Texp_ident (Path.Pident id, _, _) when is_floatish e.exp_type -> (
      match IMap.find_opt id env with
      | Some { fn = Dim d; _ } -> Dim.Dim d
      | _ -> (
          match value_dim ctx (normalize ctx (Path.Pident id)) with
          | Some d -> Dim d
          | None -> Unknown))
  | Texp_ident (p, _, _) when is_floatish e.exp_type -> (
      match value_dim ctx (normalize ctx p) with
      | Some d -> Dim d
      | None -> Unknown)
  | _ ->
      ignore (infer ctx env f);
      Unknown

and bindings ctx env ~toplevel vbs =
  List.fold_left
    (fun env_acc vb ->
      let attr_dim = rt_dim_of_attrs ctx vb.vb_attributes in
      let is_fn =
        match vb.vb_expr.exp_desc with Texp_function _ -> true | _ -> false
      in
      let inferred =
        if is_fn then Dim.Unknown else infer ctx env vb.vb_expr
      in
      let fn_d = if is_fn then fn_result ctx env vb.vb_expr else Dim.Unknown in
      match vb.vb_pat.pat_desc with
      | Tpat_var (id, name) ->
          let table_d =
            if toplevel then
              Dim_table.value_dim ctx.dims ~modname:ctx.modname name.txt
            else None
          in
          let pick ds = List.find_opt (fun d -> d <> Dim.Unknown) ds in
          let annotated =
            match (attr_dim, table_d) with
            | Some d, _ | None, Some d -> Some (Dim.Dim d)
            | None, None -> None
          in
          let v =
            match annotated with
            | Some d -> d
            | None -> Option.value ~default:Dim.Unknown (pick [ inferred ])
          in
          let fn =
            match annotated with
            | Some d -> d
            | None -> fn_d
          in
          add_binding env_acc id { v; fn }
      | _ ->
          let d =
            match attr_dim with Some d -> Dim.Dim d | None -> inferred
          in
          bind_pat ctx env_acc vb.vb_pat d)
    env vbs

and walk_module_expr ctx env me =
  match me.mod_desc with
  | Tmod_structure s -> ignore (walk_structure ctx env s)
  | Tmod_functor (_, body) -> walk_module_expr ctx env body
  | Tmod_constraint (m, _, _, _) -> walk_module_expr ctx env m
  | Tmod_apply (a, b, _) ->
      walk_module_expr ctx env a;
      walk_module_expr ctx env b
  | _ -> ()

and walk_structure ctx env (str : structure) =
  List.fold_left
    (fun env item ->
      match item.str_desc with
      | Tstr_value (_, vbs) -> bindings ctx env ~toplevel:true vbs
      | Tstr_eval (e, _) ->
          ignore (infer ctx env e);
          env
      | Tstr_module mb ->
          walk_module_expr ctx env mb.mb_expr;
          env
      | Tstr_recmodule mbs ->
          List.iter (fun mb -> walk_module_expr ctx env mb.mb_expr) mbs;
          env
      | Tstr_include { incl_mod; _ } ->
          walk_module_expr ctx env incl_mod;
          env
      | _ -> env)
    env str.str_items

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let collect_aliases ctx (str : structure) =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_module
          {
            mb_id = Some id;
            mb_expr = { mod_desc = Tmod_ident (p, _); _ };
            _;
          } ->
          Hashtbl.replace ctx.aliases (Ident.name id) (normalize ctx p)
      | _ -> ())
    str.str_items

let check ~dims ~file ~modname ~in_lib ~check_floats str =
  let ctx =
    {
      dims;
      file;
      modname;
      in_lib;
      check_floats;
      aliases = Hashtbl.create 8;
      handled_heads = Hashtbl.create 64;
      found = [];
    }
  in
  collect_aliases ctx str;
  let it = rule_iterator ctx in
  it.Tast_iterator.structure it str;
  ignore (walk_structure ctx IMap.empty str);
  ctx.found
