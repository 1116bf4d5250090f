(** The typed rt-lint pass.

    Rules that need real type information — [float-cmp], [poly-cmp],
    [phys-cmp], [ambient-random], [wallclock] and the units-of-measure
    analysis [dim-mismatch] — run over the typedtree.  The tree comes from
    one of two sources: the [.cmt] files dune produces while building (the
    repo walk), or the compiler's own type inference run on a standalone
    parsetree (self-contained fixtures). *)

val split_wrapped : string -> string list
(** Split a dune-mangled unit name at its [__] separators:
    [Rt_prelude__Rng] becomes [["Rt_prelude"; "Rng"]]. *)

val path_parts : Path.t -> string list
(** Decompose a typedtree path into its source-level components, undoing
    dune's module wrapping ([Rt_prelude__Rng.float] becomes
    [["Rt_prelude"; "Rng"; "float"]]).  Shared with {!Conc_lint} and
    {!Hot_lint}. *)

val is_float : Types.type_expr -> bool
(** Is this type exactly [float] (including the [Float.t] alias)? *)

val contains_float : Types.type_expr -> bool
(** Structural float occurrence: recurses through tuples and type
    constructor arguments; nominal record/variant contents are not
    expanded (.cmt files keep only summarized environments). *)

val read_cmt : string -> (Typedtree.structure, string) result
(** Load the typedtree of an implementation [.cmt]. *)

val type_standalone :
  ?units:(string * Types.signature) list ->
  Parsetree.structure ->
  (Typedtree.structure, string) result
(** Type a standalone structure against the standard library and the
    given [(name, signature)] units (default none); any other reference
    to repository modules fails.  Compiler warnings are disabled; errors
    are rendered to a readable message. *)

val check :
  dims:Dim_table.t ->
  file:string ->
  modname:string ->
  in_lib:bool ->
  check_floats:bool ->
  Typedtree.structure ->
  Finding.t list
(** Run every typed rule.  [file] labels the findings, [modname] is the
    compilation unit (used to key local lookups in the dimension table),
    [in_lib] gates [ambient-random]/[wallclock], [check_floats] is off
    inside [Float_cmp] itself.  Suppression filtering happens in
    {!Lint_core}, not here. *)
