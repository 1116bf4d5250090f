(** Serializable problem descriptions shared by every conformance suite.

    An instance is the {e seedable, shrinkable, JSON-stable} description
    of a frame-model rejection problem: a processor preset, [m]
    processors, an integer frame length (ticks) and integer-cycle items
    with float penalties. Keeping cycles integral makes the description
    exact under serialization and lets the m = 1 instances feed the
    {!Rt_core.Uni_dp} cycle-space oracle unchanged.

    Every suite (QCheck properties, the stress loop, the fuzzer, corpus
    replay) builds its workloads through this module, so a failure found
    by any of them can be written down, minimized and replayed by all the
    others. *)

type proc_kind = Cubic | Xscale | Xscale_levels

type item = {
  id : int;
  wcec : int;  (** worst-case execution cycles, > 0 *)
  penalty : float;  (** rejection penalty, >= 0, finite *)
}

type t = {
  proc : proc_kind;
  m : int;  (** processors, >= 1 *)
  frame_ticks : int;  (** frame length in ticks, > 0 *)
  items : item list;  (** distinct ids *)
}

val processor : proc_kind -> Rt_power.Processor.t
(** The concrete preset: cubic (dormant-disable), or XScale
    ideal/levels with zero-overhead dormancy — the same presets the
    existing test suites use, all with [s_max = 1]. *)

val make :
  proc:proc_kind -> m:int -> frame_ticks:int -> item list -> (t, string) result
  [@@rt.test_api "the corpus and instance fuzz harness"]
(** Checks the field ranges above and id distinctness. *)

val frame_tasks : t -> Rt_task.Task.frame list
(** The items as frame tasks (for {!Rt_core.Uni_dp} and
    {!Rt_core.Problem.of_frame}). *)

val to_problem : t -> (Rt_core.Problem.t, string) result

val n : t -> int
val label : t -> string
(** One-line summary ["proc=xscale m=2 frame=100 n=5 load=1.32"]. *)

val equal : t -> t -> bool
  [@@rt.test_api "the corpus and instance fuzz harness"]

(** {1 Serialization} *)

val to_json : t -> Rt_prelude.Json.t
val of_json : Rt_prelude.Json.t -> (t, string) result
  [@@rt.test_api "the corpus and instance fuzz harness"]

(** {1 Generation}

    Both entry points draw from the same distribution; one is seeded by
    the repo's {!Rt_prelude.Rng} (fuzzer, stress loop), the other is a
    [QCheck2] generator whose integrated shrinking already performs the
    structural moves (drop a task, shrink cycles toward 1, shrink [m]). *)

type params = {
  n_lo : int;  (** at least 1 *)
  n_hi : int;
  m_hi : int;  (** m drawn in [1, m_hi] *)
  frame_ticks : int;
  load_lo : float;  (** target load factor range; above 1 forces rejection *)
  load_hi : float;
}

val default_params : params
(** n in [1, 9], m in [1, 3], frame 100, load in [0.25, 2.0] — small
    enough for the exact oracles, wide enough to cover underload and
    forced-rejection regimes on every preset. *)

val generate : Rt_prelude.Rng.t -> params -> t
(** Weights via UUniFast at a drawn load target, penalties log-uniform
    around the item's top-speed reference energy (the scale that makes
    accept/reject a real trade-off; see {!Rt_task.Penalty}). *)

val qcheck_gen : ?params:params -> unit -> t QCheck2.Gen.t
  [@@rt.test_api "the corpus and instance fuzz harness"]

(** {1 Shrinking} *)

val shrink : t -> t Seq.t
(** Structure-aware one-step reductions, most aggressive first: drop one
    item; reduce [m]; canonicalize the processor to [Cubic]; halve an
    item's cycles; zero or halve an item's penalty. Every candidate is a
    well-formed instance; each step strictly decreases a well-founded
    measure, so greedy descent terminates. *)

val minimize : still_fails:(t -> string option) -> t -> t * string option
(** Greedy shrink loop: repeatedly move to the first one-step reduction
    on which [still_fails] returns a failure, until none does (or a
    fixed fuel bound is hit). Returns the minimized instance and the
    failure detail observed on it ([None] only if the original never
    failed). *)
