(** A work-stealing double-ended queue of subproblems.

    Each worker domain owns one deque and treats it as a LIFO stack:
    {!push} and {!pop} operate on the {e newest} (deepest) end, so the
    owner explores in depth-first order and keeps its working set hot.
    Idle domains {!steal} from the {e oldest} end — the shallowest entry,
    which in a branch-and-bound frontier is the largest pending subtree,
    so one steal transfers the most work the victim can spare.

    The implementation is a growable ring buffer under one mutex per
    deque, not a lock-free Chase–Lev deque: entries are whole subtrees
    (tens of search nodes each), so the lock is uncontended at this
    grain, and a mutex keeps the no-lost / no-duplicated-entry invariant
    structural — every operation is a single [Mutex.protect] section,
    checked by the rt-lint concurrency pass (docs/CONCURRENCY_LINT.md).
    The ABA and torn-size failure modes of the lock-free variants (the
    bugs that would silently corrupt the exact oracle) are ruled out by
    construction; `test/test_parallel.ml` additionally pins the
    accounting end-to-end. *)

type 'a t

val create : unit -> 'a t
(** A fresh empty deque. *)

val push : 'a t -> 'a -> unit
(** Owner: add at the newest end. *)

val pop : 'a t -> 'a option
(** Owner: remove from the newest end (LIFO — depth-first order). *)

val steal : 'a t -> 'a option
(** Thief: remove from the oldest end — the shallowest, largest pending
    subtree. Safe from any domain. *)
