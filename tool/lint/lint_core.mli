(** rt-lint engine: repo-specific static analysis for the scheduler.

    Each file gets two passes: a syntactic pass over the parsetree
    (output purity, raise discipline, suppression pragmas) and a typed
    pass over the typedtree (float-comparison hygiene, polymorphic
    comparison at float-bearing types, determinism, the units-of-measure
    analysis — see {!Typed_lint} and docs/UNITS.md — and the
    {!Conc_lint} and {!Hot_lint} rules).  The typedtree comes from
    dune's [.cmt] files when available, or a standalone typing run for
    sources that have none.  Findings are {!Finding.t}. *)

val lint_paths : ?require_cmts:bool -> string list -> Finding.t list
(** Walk the given files/directories (skipping [_build], [.git] and
    [lint_fixtures]), build the dimension table from every [.mli] found,
    and lint every [.ml]/[.mli].

    One load builds the cross-unit call graph, from the linted units and
    every unit of the project's other source trees (lib, bin, bench,
    examples, tool, perfbench, test, next to the roots), which are read
    but not linted.  Each [.cmt] under the roots themselves or under
    [_build/default/<root>] is read once for it; sources without one
    are typed standalone once, in dependency order.  The interfaces'
    [[@rt.hot]]/[[@rt.cold]] marks and exported values join the graph,
    so hotness propagates between compilation units (docs/PERF_LINT.md),
    and [unused-export] judges the exports of lib interfaces from it.
    The per-file rules then re-read the [.cmt] of each unit they lint.

    A source with neither a [.cmt] nor a standalone typing skips the
    typed rules silently, unless [require_cmts] is set: then its typing
    error is a [typecheck] finding.  When some unit has no typedtree,
    [unused-export] judges nothing and reports so, as an error under
    [require_cmts].  Results are sorted by {!Finding.compare}. *)

val lint_file : ?as_lib:bool -> string -> Finding.t list
(** [lint_file path] is {!lint_paths} [~require_cmts:true [path]]: one
    [.ml] or [.mli] file, its sibling [.mli] included for dimensions and
    hotness, typed standalone when it has no [.cmt].  [as_lib] forces
    whether the lib-only rules (no-print, no-raise, wallclock,
    ambient-random) apply; by default it is inferred from the path
    containing a [lib] component.  Unparseable files yield a [parse]
    finding, untypeable ones a [typecheck] finding, rather than an
    exception. *)

val missing_mli : string -> Finding.t option
(** [missing_mli path] is a [missing-mli] finding when [path] is a [.ml]
    under [lib/] with no sibling [.mli]. *)

val dim_coverage : string list -> under:string list -> Dim_table.coverage
(** Walk the given roots, build the dimension table, and report
    annotation coverage for float-valued declarations in interfaces
    whose path starts with one of [under]. *)
