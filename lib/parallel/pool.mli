(** A fixed-size pool of worker domains with a mutex/condition work queue.

    OCaml 5.1's stdlib ships domains but no scheduler, and this repo
    deliberately adds no external dependency (domainslib is not in the
    build image) — so this is the one, hand-rolled substrate every
    parallel feature builds on: the solver portfolio, the work-stealing
    exact search, and the embarrassingly-parallel experiment/fuzz
    sweeps.

    Design constraints, in order:

    - {e determinism}: {!run_list} returns results in {e submission
      order}, whatever order the domains finished in. Combined with
      per-item seeds, a parallel sweep is byte-identical to its
      sequential reference at any domain count (docs/PARALLEL.md).
    - {e error transparency}: if jobs raised, the lowest-index exception
      is re-raised (with its backtrace) after {e every} job completed —
      a failure never leaves stray jobs mutating shared state, and the
      choice of exception does not depend on scheduling.
    - {e simplicity}: a plain FIFO under one mutex. Queue contention is
      irrelevant at this grain — jobs are whole solver runs or whole
      replications, never inner-loop work items.

    Not reentrant: a job must not call {!run_list} on the pool running
    it (the nested call could wait on jobs queued behind the caller —
    with every worker blocked the same way, the pool deadlocks). Nest
    parallelism by splitting wider at the top instead. *)

type t

val create : domains:int -> t
(** Spawn [domains] worker domains (they idle on a condition variable
    until work arrives). [domains = 1] is a valid degenerate pool: same
    machinery, sequential throughput — useful for tests and as the
    conservative default. @raise Invalid_argument if [domains < 1]. *)

val size : t -> int
(** Number of worker domains. *)

val run_list : t -> (unit -> 'a) list -> 'a list
(** Run every thunk on the pool and return their results in submission
    order. Blocks until all complete. If any raised, re-raises the
    lowest-index exception after all jobs finished. Must not be called
    from inside a job on the same pool (see the module note on
    reentrancy). @raise Invalid_argument if the pool was shut down. *)

val map : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?pool f xs] — [List.map f xs] through the pool; without a pool
    it {e is} [List.map f xs]. The escape hatch that lets every sweep
    offer parallelism as a pure opt-in. *)

val shutdown : t -> unit
(** Drain the queue, stop and join every worker. Idempotent in effect;
    subsequent {!run_list} calls are refused. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [create], run, then [shutdown] even on exceptions. *)

val parse_jobs : string -> (int, string) result
(** Parse a job count (the [RT_JOBS]/[--jobs] grammar): a positive
    integer, surrounding whitespace ignored. The error is a full,
    human-readable sentence — callers prepend only the setting's name. *)

val resolve_jobs : ?jobs:int -> unit -> (int, string) result
(** The effective worker-domain count: an explicit [jobs] (rejected
    with a clear message when [< 1]) beats the [RT_JOBS] environment
    variable (rejected with a clear message when set but malformed)
    beats the default of 1. Parallelism in this repo is opt-in: the
    default never changes results (determinism aside, a 1-domain pool
    avoids oversubscribing CI containers). *)

val default_domains : unit -> int
(** [resolve_jobs ()] with errors mapped to the sequential default of 1
    — for contexts (benches, ad-hoc tools) where a malformed [RT_JOBS]
    should degrade rather than abort. Command-line entry points should
    use {!resolve_jobs} and surface the error instead. *)
