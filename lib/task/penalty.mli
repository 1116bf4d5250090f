(** Rejection-penalty models for synthetic workloads.

    How penalties correlate with task size determines which rejection
    heuristic wins, so the experiment suite sweeps over several models
    (experiment E4). Penalties are expressed relative to a {e reference
    energy}: the energy the task would consume if executed alone at the
    processor's top speed — this keeps penalties commensurable with the
    energy term of the objective across instances. *)

type t =
  | Uniform of { lo : float; hi : float }
      (** penalty drawn uniformly in [\[lo, hi\]] × reference energy,
          independent of the task *)
  | Proportional of { factor : float; jitter : float }
      (** penalty = [factor] × task's own reference energy, multiplied by a
          uniform jitter in [\[1-jitter, 1+jitter\]]; "important work costs
          more to drop" *)
  | Inverse of { factor : float; jitter : float }
      (** penalty = [factor] × (mean weight / task weight) × mean reference
          energy, with jitter; "big tasks are the cheap ones to drop" *)
  | Bimodal of { low : float; high : float; p_high : float }
      (** with probability [p_high] the penalty is [high] × reference
          energy, else [low] × reference energy; models mixed-criticality
          sets *)

val validate : t -> (unit, string) result

val assign :
  t -> Rt_prelude.Rng.t -> proc:Rt_power.Processor.t -> horizon:float ->
  Task.item list -> Task.item list
(** Return the same items (same ids, weights, power factors) with penalties
    drawn from the model. The reference energy of an item of weight [w] is
    the energy it would consume executed at top speed over the horizon:
    [w · horizon / s_max · P(s_max)] — the same scale as the objective's
    energy term, which is what makes accept/reject a real trade-off.
    @raise Invalid_argument if [validate] fails or [horizon <= 0]. *)

val default_models : (string * t) list
(** The named models used by experiment E4: uniform, proportional, inverse,
    bimodal. *)
