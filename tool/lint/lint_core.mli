(** rt-lint engine: repo-specific static analysis for the scheduler.

    v2 runs two passes per file: a syntactic pass over the parsetree
    (output purity, raise discipline, suppression handling) and a typed
    pass over the typedtree (float-comparison hygiene, polymorphic
    comparison at float-bearing types, determinism, and the
    units-of-measure analysis — see {!Typed_lint} and docs/UNITS.md).
    The typedtree comes from dune's [.cmt] files when available, or a
    standalone typing run for self-contained files. *)

type finding = Finding.t = {
  file : string;
  line : int;
  col : int;
  rule : string;  (** rule id, e.g. ["float-cmp"] *)
  severity : Finding.severity;
  msg : string;
}

val to_string : finding -> string
(** Render as [file:line:col: [rule-id] message]. *)

val compare_finding : finding -> finding -> int
(** Order by file, then line, column and rule id. *)

val lint_file : ?as_lib:bool -> string -> finding list
(** Parse, type (against the standard library alone) and lint one [.ml]
    or [.mli] file.  Dimension annotations are read from the file's own
    [[@@rt.dim]] bindings and a sibling [.mli] when one exists; hotness
    for the {!Hot_lint} rules is likewise resolved from the unit itself
    plus its sibling interface.  [as_lib]
    forces whether the lib-only rules (no-print, no-raise, wallclock,
    ambient-random) apply; by default it is inferred from the path
    containing a [lib] component.  Unparseable files yield a single
    [parse] finding, untypeable ones a [typecheck] finding, rather than
    an exception. *)

val missing_mli : string -> finding option
(** [missing_mli path] is a [missing-mli] finding when [path] is a [.ml]
    under [lib/] with no sibling [.mli]. *)

val lint_paths : ?require_cmts:bool -> string list -> finding list
(** Walk the given files/directories (skipping [_build], [.git] and
    [lint_fixtures]), build the dimension table from every [.mli] found,
    and lint every [.ml]/[.mli].  Typedtrees are read from [.cmt] files
    found under the roots themselves or under [_build/default/<root>];
    sources without a [.cmt] fall back to standalone typing, silently
    skipping the typed rules when that fails — unless [require_cmts] is
    set, in which case the typing failure is reported as a [typecheck]
    finding.  A prepass harvests [[@rt.hot]]/[[@rt.cold]] marks and
    exported values from every interface and builds the cross-unit call
    graph, so hotness propagates between compilation units
    (docs/PERF_LINT.md).  The graph also holds every unit of the
    project's other source trees (lib, bin, bench, examples, tool,
    perfbench, test, next to the roots), which are read but not linted;
    from it [unused-export] judges the exports of lib interfaces.  When
    some unit has no typedtree that rule judges nothing and reports so,
    as an error under [require_cmts].  Results are sorted. *)

val dim_coverage : string list -> under:string list -> Dim_table.coverage
(** Walk the given roots, build the dimension table, and report
    annotation coverage for float-valued declarations in interfaces
    whose path starts with one of [under]. *)
