(** NP-hardness gadgets as executable artifacts.

    The target paper's contribution opens with a hardness analysis; since
    proofs do not run, we ship the reductions as instance {e constructors}
    whose optima are known by construction, and the test suite checks the
    exact solvers and heuristics against them.

    Reduction 1 (feasibility / PARTITION): numbers [a_1 … a_k] with sum
    [2B] map to a 2-processor frame instance with [s_max · D = B] and
    penalties so large that rejecting anything is never optimal {e iff} a
    perfect partition exists. Accepting everything is feasible iff the
    numbers split into two halves of weight exactly [B] — deciding the
    optimal cost decides PARTITION.

    Reduction 2 (rejection / KNAPSACK): on one processor with capacity
    [B], items with value-like penalties make the optimal accept-set a 0/1
    knapsack; the DP of {!Uni_dp} is exactly the classical pseudo-poly
    algorithm, which is why no polynomial exact algorithm is expected. *)

type gadget = {
  problem : Problem.t;
  all_accepted_cost : float option;
      (** total cost of accepting everything in perfect balance — the
          optimum iff a perfect split exists (reduction 1); [None] for
          gadgets whose optimum is not of that form *)
}

val partition_gadget : int list -> (gadget, string) result
  [@@rt.test_api "the reduction the hardness tests build"]
(** Reduction 1. Errors on an empty list, non-positive entries, or an odd
    sum. Penalties are set to [10×] the energy of running the whole set,
    so any rejection costs more than any balanced acceptance. *)

val knapsack_gadget :
  capacity:int -> (int * float) list -> (gadget, string) result
  [@@rt.test_api "the reduction the hardness tests build"]
(** Reduction 2: [(cycles, penalty)] pairs on one processor with the given
    cycle capacity and negligible energy (tiny power coefficient), so the
    objective is ≈ the rejected penalty — i.e. a minimization knapsack.
    Errors on empty input, non-positive cycles/capacity, or negative
    penalties. *)
