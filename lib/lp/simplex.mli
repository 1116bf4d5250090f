(** A dense two-phase primal simplex solver.

    Solves {v minimize c·x  subject to  A_i·x (<=|>=|=) b_i,  x >= 0 v}

    This is the substrate for the allocation-synthesis LP relaxations
    (Equations (4a)/(4b) of the companion text). It is a textbook tableau
    implementation with Bland's anti-cycling rule — dimensions in this
    repository are tiny (tens of variables), so clarity wins over sparse
    cleverness. *)

type relation = Le | Ge | Eq

type problem = {
  minimize : float array;  (** objective coefficients, length n *)
  constraints : (float array * relation * float) list;
      (** each row: coefficients (length n), relation, right-hand side *)
}

type outcome =
  | Optimal of { value : float; solution : float array }
  | Infeasible
  | Unbounded
  | Iteration_limit of { pivots : int }
      (** the pivot budget ran out before the tableau reached optimality;
          [pivots] is how many were spent (across both phases) *)

val solve : ?max_pivots:int -> problem -> (outcome, string) result
(** Errors on malformed input (ragged rows, non-finite numbers, empty
    objective). [max_pivots] (default 200_000) is a {e total} pivot
    budget across both phases — far above anything the repository's
    tiny instances need, but a hard ceiling for adversarial or
    degenerate inputs. Exhausting it is not an error: it is reported as
    the typed {!Iteration_limit} outcome so callers can distinguish
    "ran out of budget" from "malformed input" and fall back
    accordingly. Bland's rule already precludes cycling, so the budget
    only ever bites on genuinely huge instances or tiny explicit
    budgets. *)

val feasible : ?eps:float -> problem -> float array -> bool
  [@@rt.test_api "the oracle of the simplex tests"]
(** Does a point satisfy all constraints and non-negativity? (Used by the
    tests to cross-check [Optimal] solutions.) *)

val value : problem -> float array -> float
  [@@rt.test_api "the oracle of the simplex tests"]
(** [c·x]. *)
