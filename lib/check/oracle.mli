(** The differential-oracle registry: four independent ways to judge a
    solution.

    Each oracle cross-checks a {!Rt_core.Solution} for an {!Instance}
    against machinery that shares as little code as possible with the
    algorithm under test:

    - {b validate} — {!Rt_core.Solution.validate}: structural audit plus
      the concrete frame-simulator round trip.
    - {b lower-bound} — the reported total must dominate the convex
      pooling + fractional-rejection relaxation {!Rt_core.Bounds}.
    - {b exact} — on instances with at most [exact_cap] items, the total
      must dominate the branch-and-bound optimum; on [m = 1] the
      cycle-space DP ({!Rt_core.Uni_dp}) must agree with the
      branch-and-bound optimum, so the two exact formulations police
      each other.
    - {b replay} — rebuild the accepted schedule in {!Rt_sim.Frame_sim}
      (timeline validation + energy agreement through
      {!Rt_prelude.Float_cmp}) and re-run every processor's bucket as
      period-equals-frame tasks through {!Rt_sim.Edf_sim}, which must
      report zero deadline misses.

    A context caches the expensive shared work (problem construction,
    lower bound, exact optimum) so checking eight algorithms against the
    same instance prices the exact solve once. *)

type ctx
(** Cached per-instance state shared across oracle runs. *)

val context : ?exact_cap:int -> Instance.t -> (ctx, string) result
(** Build the shared context; [exact_cap] (default 10) bounds the
    instance size beyond which the exact oracle reports [Skip]. *)

val problem : ctx -> Rt_core.Problem.t

val optimal_cost : ctx -> float option
(** Forces the cached branch-and-bound solve; [None] above [exact_cap]. *)

val exact_optimum :
  Rt_core.Problem.t -> (Rt_core.Solution.t * float, string) result
(** The branch-and-bound optimum and its {!Rt_core.Solution.cost} total,
    searched under {!Rt_exact.Search.node_limit}; running out of nodes
    is an error, like every other failure of the search. *)

type outcome =
  | Pass
  | Skip of string  (** oracle not applicable (e.g. instance too large) *)
  | Fail of string

type t = {
  name : string;
  descr : string;
  run : ctx -> Rt_core.Solution.t -> outcome;
}

val all : t list
(** The four oracles above, in the order listed. *)

val find : string -> t option

val run_all : ctx -> Rt_core.Solution.t -> (string * outcome) list
(** Every oracle's verdict, in registry order. *)

val first_failure : (string * outcome) list -> (string * string) option
  [@@rt.test_api "the corpus and instance fuzz harness"]
(** The first [(oracle, detail)] failure, if any. *)

val eps : float
(** Tolerance used by the oracle comparisons ([1e-6] — looser than
    {!Rt_prelude.Float_cmp.default_eps} because optimum and heuristic
    costs come from long, differently-ordered float sums). *)
