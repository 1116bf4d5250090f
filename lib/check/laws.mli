(** Metamorphic laws: relations between the answers on {e related}
    instances, checked without knowing the true answer on either.

    Where the oracles in {!Oracle} judge one (instance, solution) pair,
    these laws transform an instance and demand the solver landscape
    move the right way:

    - {b penalty-scaling} — scaling every penalty by [k] leaves a fixed
      solution's energy term unchanged and scales its penalty term by
      exactly [k] (the objective is linear in the penalties).
    - {b extra-processor} — adding an identical processor never
      increases the exact optimum (any [m]-processor solution is an
      [(m+1)]-processor solution with one idle machine).
    - {b smax-relief} — raising [s_max] never increases the exact
      optimum (every schedule stays feasible, energy rates can only
      improve); checked on the cubic preset where [s_max] is a free
      parameter.
    - {b cheap-reject} — an item whose penalty is strictly below its
      minimal marginal energy [E(w) - E(0)] (the cheapest any processor
      can ever run it, by convexity of the rate) must be rejected by the
      exact solver.

    Laws that need the exponential solver skip instances larger than 8
    items. *)

type outcome = Pass | Skip of string | Fail of string

type t = {
  name : string;
  descr : string;
  run : Instance.t -> outcome;
}

val all : t list
val find : string -> t option

val run_all : Instance.t -> (string * outcome) list
val first_failure : (string * outcome) list -> (string * string) option
  [@@rt.test_api "the corpus and instance fuzz harness"]
