(** First-improvement local search over accept/reject/placement decisions.

    Starting from any feasible solution, four move families are scanned in
    order and the first strictly improving move is applied, until a full
    scan finds nothing (or [max_moves] fires):

    + {e reject}: drop an accepted item (pay its penalty, save its
      marginal energy);
    + {e accept}: place a rejected item on the least-loaded feasible
      processor (pay marginal energy, save its penalty);
    + {e move}: relocate an accepted item to another processor;
    + {e swap}: exchange two accepted items between processors.

    Moves 3–4 do not change the objective's penalty term; they rebalance
    loads, which strictly helps because the rate function is convex — and
    they unlock further accept moves by creating room. Each applied move
    strictly decreases the total cost, so the search terminates.

    {b Memoised scans.} Each processor carries a stamp that every
    re-pricing of its energy (which ends every applied move, and every
    renormalization) sets to a fresh clock value. A scan that comes up
    empty records the clock: per processor for reject, per pair for
    swap, per rejected item for accept; the energy of a placed item's
    bucket without it is kept per item. A later scan skips every entry
    whose processors' stamps are not newer. This cannot change the
    chosen move: a candidate's gain is a pure function of the processors
    it touches (their items, load and energy) and of the run's
    constants, so a clean entry would be re-priced from bit-for-bit the
    same inputs and fail again. The scan order, the first improving move
    it finds, and every float it computes are those of a scan that
    re-prices everything. On the plan-shaped workload below, a copy
    without one of these four memos ran 2.5–13% slower (the accept memo
    is worth the most, the reject and swap memos the least). The move scan
    keeps none: it runs the best-destination selection for each item in
    scan order and applies the first whose best gain clears the
    tolerance. A memo of clean (item bucket, destination) pairs would
    pick the same move, and after the gap test there is too little left
    to price for it to pay: without it the workload stayed inside its
    run-to-run spread.

    {b Gap test.} Bucket energy is convex and non-decreasing up to
    capacity for every processor that can be built (the [energy] field
    of {!Problem.soa}), so shifting load between two processors
    pays only when it narrows the gap between their loads. The move and
    swap scans skip, before any capacity test or energy call, a
    candidate whose heavier new load is at least the heavier of the two
    old loads and at most capacity (for a move of [w] from [j] to [k]:
    [l_k +. w >= l_j]). Its gain as computed is at most about
    [(alpha * 2^-51 + 32 * 2^-53) * E(cap)]: the energy slope, at most
    [alpha * E(cap) / cap], times the rounding deficit of the new loads,
    plus evaluation error. With [alpha <= 64] that is under
    [2^-44 * E(cap)], far below the gain tolerance
    [1e-9 * max 1 (E(cap) + 1)], so the unpruned scans never took such a
    candidate and the chosen moves are unchanged. Past capacity (inside
    the tolerant capacity test's slack) energy is flat, not convex, so a
    candidate there is priced as before. On the plan-shaped workload
    (n = 200, m = 8, three greedy starts per instance) the test leaves
    249 of 47,869 swap pairs and 9 of 41,518 move destinations to
    price. *)

type budgeted = {
  solution : Solution.t;  (** best solution reached within the budget *)
  moves : int;  (** improving moves actually applied *)
  exhausted : bool;
      (** [true] when the step budget cut the loop off while scans were
          still finding improving moves — the solution is valid (every
          intermediate state is) but convergence is not proven *)
}

val improve : ?max_moves:int -> Problem.t -> Solution.t -> Solution.t
  [@@rt.hot "O(moves x m x items) scan dominates the anytime pipeline"]
(** [max_moves] defaults to 10_000 (a safety valve; typical instances
    converge in far fewer). The input must be feasible ([Solution.cost]
    must succeed) and hold each of the problem's items exactly once.
    @raise Invalid_argument otherwise. *)

val improve_budgeted :
  ?max_moves:int -> Problem.t -> Solution.t -> (budgeted, string) result
  [@@rt.hot "O(moves x m x items) scan dominates the anytime pipeline"]
(** Anytime variant of {!improve}: an infeasible input is a typed error
    rather than an exception, and so is a solution whose items are not
    exactly the problem's (an unknown id, an item placed or rejected
    twice, a missing item). Hitting [max_moves] is reported via
    [exhausted] instead of being silent. Since every applied move keeps
    the solution feasible and strictly decreases cost, the budget bounds
    work without sacrificing validity. *)

val with_local_search : ?max_moves:int -> Greedy.algorithm -> Greedy.algorithm
(** Compose: run the algorithm, then polish with [improve]. *)

(** Test access to the delta-cost state: the search maintains per-processor
    loads and bucket energies incrementally (O(1) per applied move) and
    renormalizes them from scratch every few thousand moves to bound float
    drift. This submodule lets the drift property test drive the search's
    own relocation, exchange and renormalization code, stamps included,
    with {e random accepted} (feasible but not necessarily improving)
    moves and compare against a from-scratch {!Solution.cost}
    re-evaluation. Not part of the stable API. *)
module Drift_test : sig
  type t

  val init : Problem.t -> Solution.t -> t
  (** @raise Invalid_argument when the solution is infeasible or its
      items are not exactly the problem's. *)

  val random_step : Rt_prelude.Rng.t -> t -> bool
  (** Propose one random move or swap; apply it iff it keeps every load
      within capacity. Returns whether a move was applied. *)

  val renormalize : t -> unit
  (** Rebuild loads and bucket energies from scratch, in the same
      summation order as [Solution.cost] uses. *)

  val loads : t -> float array
  val cost : t -> float
  (** Incrementally-maintained total (Σ bucket energies + Σ penalties),
      associated exactly as [Solution.cost] computes it. *)

  val solution : t -> Solution.t
end
[@@rt.test_api "the seam the drift tests replay local search through"]
