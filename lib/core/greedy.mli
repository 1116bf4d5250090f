(** The heuristic rejection schedulers (the paper's contribution class).

    All algorithms return solutions that are feasible by construction:
    items that fit nowhere are rejected, never squeezed. They differ in
    {e ordering} and in {e when they choose to reject}:

    - {!ltf_reject} — Largest-Task-First with overflow rejection: the
      accept-as-much-as-possible policy. Rejection happens only when
      forced; among forced rejections it keeps large tasks out (they are
      placed early, so it is small leftovers that overflow). The natural
      lift of the LTF family to the bounded-speed setting.
    - {!marginal_greedy} — energy-aware acceptance: a task is accepted
      only if the marginal energy of placing it on the least-loaded
      feasible processor is below its penalty. Rejects {e voluntarily}
      when running a task costs more than dropping it.
    - {!density_reject} — penalty-density repair: start from accept-all,
      and while the LTF packing is infeasible, drop the item with the
      lowest penalty per unit weight; then a trimming pass drops any item
      whose rejection still lowers the total cost.
    - {!unsorted_reject} — the RAND-style reference baseline (min-load
      greedy in input order, overflow rejection).

    Marginal energies are computed against the least-loaded feasible
    processor — correct because the optimal rate is convex, so marginal
    cost is smallest where the load is smallest. *)

type algorithm = Problem.t -> Solution.t

val ltf_reject : algorithm
  [@@rt.hot "inner loop of every offline experiment sweep"]

val marginal_greedy : algorithm
  [@@rt.hot "inner loop of every offline experiment sweep"]
val density_reject : algorithm
  [@@rt.hot "runs on every planner op, repacking once per trial"]
val unsorted_reject : algorithm

val named : (string * algorithm) list
(** The algorithms above, keyed by the names used in
    experiment tables: ["ltf-reject"; "marginal"; "density"; "unsorted"]. *)
