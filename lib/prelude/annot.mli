(** The attribute vocabulary rt-lint understands.

    These are ordinary OCaml attributes in the [rt.] namespace — the
    compiler ignores them, [tool/lint] reads them out of typedtrees.
    This module is the single registry of their names, so library code,
    the lint, and the docs cannot drift apart on spelling; the lint
    reports any other [rt.]-namespaced attribute as [unknown-attribute],
    so a misspelt name cannot silently switch its analysis off.  The
    grammar of each payload is specified here and in
    docs/CONCURRENCY_LINT.md (concurrency annotations) and docs/LINT.md
    ([rt.dim], [rt.test_api]).  Suppressions are not attributes: the one
    form is a reasoned [allow-<rule>] pragma comment (docs/LINT.md).

    Placement cheat-sheet (where the typedtree keeps each one):

    - on a record field: [mutable hits : int; [@rt.guarded_by "lock"]]
    - on a let binding:  [let pending = ref n [@rt.guarded_by "finished"]]
    - on a closure:      [Queue.add ((fun () -> ...) [@rt.cross_domain]) q] *)

val guarded_by : string
(** ["rt.guarded_by"] — payload: a string literal naming the mutex
    (by its last path component, e.g. ["mutex"] for [t.mutex]) that
    must be held around every read and write of the annotated mutable
    value. The lint's domain-unsafe rule accepts a guarded value as
    shared state; its conc-annotation rule rejects any other payload
    shape. *)

val domain_safe : string
(** ["rt.domain_safe"] — payload: a string literal justifying why the
    value is safe to touch from multiple domains without a lock (e.g.
    written once before publication, or single-writer with benign
    races). An audited escape hatch: the lint trusts it and moves on,
    so the justification text is load-bearing for reviewers. *)

val cross_domain : string
(** ["rt.cross_domain"] — payload: none. Marks a closure that will run
    on another domain even though the lint cannot see the spawn site
    (e.g. a thunk pushed into a work queue). The closure is exempt from
    the lexical pass and analysed with the crossing rules instead. *)

val dim : string
(** ["rt.dim"] — payload: a string literal naming a physical dimension
    (["time"], ["energy"], ["speed"], ...). Read by the units-of-measure
    rule (docs/LINT.md), not by the concurrency rules; listed here so
    the registry is complete. *)

val hot : string
(** ["rt.hot"] — payload: none, or a string literal documenting why the
    value is latency-critical. Marks a function as a hot-path root for
    the allocation/boxing analysis (docs/PERF_LINT.md): hotness
    propagates from it to every function it transitively calls, and the
    hot rules (hot-boxed-float, hot-alloc-in-loop, hot-list-traversal)
    fire only inside hot code. Placement: on a [val] declaration in an
    [.mli] ([val ltf_reject : algorithm [@@rt.hot]]) or on a let
    binding in an [.ml]. *)

val cold : string
(** ["rt.cold"] — payload: none, or a string literal saying why.
    The propagation cut: a value marked cold is never considered hot,
    and hotness does not flow through it to its callees — use it on
    error paths, logging, and setup code reachable from a hot root.
    Same placements as {!hot}. *)

val test_api : string
(** ["rt.test_api"] — payload: a string literal saying why the value
    stays exported. Marks a [val] in a lib [.mli] that only tests reach
    on purpose (a test seam, a gadget, a validator that tests use as an
    oracle), so the [unused-export] rule does not ask to delete it.
    Placement: on the [val] ([val validate : t -> ... [@@rt.test_api
    "oracle of test_x"]]) or on a nested [module] signature, where it
    covers every value inside. *)

val all : string list
(** Every attribute name above — the [rt.] namespace; the lint reports
    any other [rt.] attribute. *)
