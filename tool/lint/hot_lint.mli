(** Hot-path allocation/boxing analysis (the performance rule family,
    rt-lint v4).

    ROADMAP item 3 rebuilds the solver kernels on a struct-of-arrays
    layout; this pass is the gate that keeps boxed floats, closure churn
    and list traversals from silently creeping back into them.  Hotness
    is declared, not guessed: [[@rt.hot]] on an [.mli] value (or an [.ml]
    let binding) seeds a call-graph propagation that marks every
    transitively-called function in the linted set as hot, [[@rt.cold]]
    cuts the propagation.  Five rules fire — all but [budget-no-poll]
    inside hot code only:

    [hot-boxed-float] (warning) — a float-bearing [ref] (one box
    allocated per update), a local helper function returning a float
    tuple or a float option (one box per call), or a known polymorphic
    accessor ([fst], [List.assoc], [Hashtbl.find], ...) instantiated at
    [float] (the generic return is boxed).

    [hot-alloc-in-loop] (warning) — a closure, list cons, tuple or
    record allocated inside a [while]/[for] body, inside the callback of
    a [List]/[Array]/[Seq] iteration combinator, or inside the
    per-iteration region of a self-recursive function.  The tail spine
    of a recursive function is exempt when it contains no self-call
    (exit expressions run once), as are the tail values of the
    find/exists family (produced at most once per call).

    [hot-list-traversal] (note) — a [List.*] traversal in hot code,
    advisory markers for the SoA refactor; notes never fail the gate.

    [hot-float-recursion] (note) — a self-recursive function in hot code
    whose curried parameters include a float: without flambda every call
    boxes a fresh float argument, so the scan allocates per step where a
    [for]/[while] loop would not.  Advisory, like [hot-list-traversal].

    [budget-no-poll] (error) — a [*_budgeted] entry point that promises
    wall-clock-bounded anytime behaviour but whose transitive body never
    consults [Rt_prelude.Clock]; reported at its dominating loop.  The
    analysis is per-unit and first-order: calls through function
    parameters and qualified cross-unit calls get the benefit of the
    doubt (only provably clockless loops are flagged).

    See docs/PERF_LINT.md for the full contract. *)

type marks
(** [[@rt.hot]]/[[@rt.cold]] seeds harvested from interface files. *)

val create_marks : unit -> marks

val add_interface : marks -> string -> Finding.t list
(** Parse one [.mli] and record its hot/cold marks, keyed by
    [(module, value)] — nested module signatures contribute under the
    nested module's name, like {!Dim_table}.  Returned findings are
    [hot-annotation] diagnostics for malformed or conflicting payloads;
    unparseable files contribute nothing. *)

type graph
(** The intra-repo call graph: top-level definitions and the
    [(module, name)] references occurring in their bodies, plus in-file
    [[@rt.hot]]/[[@rt.cold]] marks on let bindings. *)

val create_graph : unit -> graph

val scan_unit : graph -> modname:string -> Typedtree.structure -> unit
(** Record one compilation unit's definitions and call edges. *)

type hotset
(** The resolved hot/cold classification of every definition. *)

val resolve : marks -> graph -> hotset
(** Worklist propagation: every seed, plus every definition transitively
    referenced from a hot definition, becomes hot; [[@rt.cold]] names are
    never marked and stop the propagation. *)

val check :
  hot:hotset ->
  file:string ->
  modname:string ->
  Typedtree.structure ->
  Finding.t list
(** Run the hot rules over one unit: the allocation/boxing rules on the
    bodies of hot definitions, and the budget-poll analysis from this
    unit's [*_budgeted] entry points.  Suppression filtering happens in
    {!Lint_core}, not here. *)
