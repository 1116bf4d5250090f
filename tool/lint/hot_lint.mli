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

    The same call graph carries one more rule, outside hot code:

    [unused-export] (note) — a [val] in a lib [.mli] that no other unit
    names (drop it from the interface), or that no program reaches and
    no [[@@rt.test_api "why"]] marks.  Programs are the units under
    bin, bench, examples, tool and perfbench: everything they name, and
    every lib initialiser, seeds the worklist; test units seed a second
    closure that says whether tests reach the value.

    See docs/PERF_LINT.md and docs/LINT.md for the full contract. *)

val unit_name : dir:string -> string -> string
(** [unit_name ~dir modname] is the graph's name for the compilation unit
    dune calls [modname]: [Rt_core__Greedy] becomes [Rt_core.Greedy], and
    an executable's [Dune__exe__Main] in [dir] becomes [dir/Main]. *)

type marks
(** [[@rt.hot]]/[[@rt.cold]] seeds and the exported values, harvested
    from interface files. *)

val create_marks : unit -> marks

val add_interface :
  marks -> unit_name:string -> export:bool -> string -> Finding.t list
(** Parse one [.mli] of unit [unit_name] and record its hot/cold marks,
    nested module signatures included; with [export], also record each
    [val] as a candidate for [unused-export].  Returned findings are
    [hot-annotation] diagnostics for malformed or conflicting payloads
    and [unused-export] ones for a reason-less [[@@rt.test_api]];
    unparseable files contribute nothing. *)

type role = Lib | Program | Test
(** A unit's tree: lib exports are judged, what a program names is live,
    what a test names is reached by tests only. *)

type graph
(** The intra-repo call graph, keyed by compilation unit and the dotted
    path inside it ([("Rt_online.Admission", "Exec.decide")]): every
    unit's definitions, its initialisers, the paths their bodies name,
    module aliases, and in-file [[@rt.hot]]/[[@rt.cold]] marks on let
    bindings. *)

val create_graph : unit -> graph

val scan_unit :
  graph -> unit_name:string -> file:string -> role:role ->
  Typedtree.structure -> unit
(** Record one compilation unit, read from [file]. *)

type hotset
(** The resolved hot/cold classification of every definition. *)

val resolve : marks -> graph -> hotset
(** Worklist propagation: every seed, plus every definition transitively
    referenced from a hot definition, becomes hot; [[@rt.cold]] names are
    never marked and stop the propagation. *)

val unused_exports : marks -> graph -> Finding.t list
(** The [unused-export] notes over the exported values (see above). *)

val check :
  hot:hotset ->
  file:string ->
  unit_name:string ->
  Typedtree.structure ->
  Finding.t list
(** Run the hot rules over one unit: the allocation/boxing rules on the
    bodies of hot definitions, and the budget-poll analysis from this
    unit's [*_budgeted] entry points.  Suppression filtering happens in
    {!Lint_core}, not here. *)
