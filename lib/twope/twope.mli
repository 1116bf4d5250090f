(** Heterogeneous two-processing-element systems: a DVS processor plus a
    non-DVS PE (e.g. an FPGA fabric).

    Every periodic task runs either on the DVS PE — contributing its
    utilization [dvs_weight = c_i/p_i] to the speed the DVS PE must
    sustain — or on the non-DVS PE, where it occupies [alt_permille]
    thousandths of the PE's unit capacity. The non-DVS PE comes in two
    flavours:

    - {e workload-independent}: it burns [alt_power] whenever the system
      is on, regardless of what it hosts (its energy is a constant, so
      minimizing total energy = minimizing DVS-PE energy subject to the
      offload-capacity constraint — a minimization knapsack);
    - {e workload-dependent}: it burns [alt_power × U₂], so every offload
      trades DVS savings against non-DVS spending.

    Capacities are exact integers (permille) so the dynamic-programming
    solver is exact rather than approximate. *)

type task = private {
  id : int;
  dvs_weight : float;  (** required speed on the DVS PE; > 0 *)
  alt_permille : int;  (** capacity share on the non-DVS PE; 1..1000 *)
}

val task : id:int -> dvs_weight:float -> alt_permille:int -> task
(** @raise Invalid_argument on out-of-range fields. *)

type pe_kind = Workload_independent | Workload_dependent

type system = private {
  dvs : Rt_power.Processor.t;
  alt_power : float;  (** non-DVS PE power (full-capacity power for the
                          dependent flavour); >= 0 *)
  alt_kind : pe_kind;
  horizon : float;  (** hyper-period; > 0 *)
}

val system :
  dvs:Rt_power.Processor.t -> alt_power:float -> alt_kind:pe_kind ->
  horizon:float -> (system, string) result

type assignment = {
  kept : task list;  (** tasks on the DVS PE *)
  offloaded : task list;  (** tasks on the non-DVS PE *)
}

val cost : system -> assignment -> (float, string) result
(** Total energy over the horizon: the DVS PE's optimal sustained-rate
    energy at [Σ kept dvs_weight] plus the non-DVS PE's energy. Errors if
    the offloaded capacity exceeds 1000‰ or the kept utilization exceeds
    the DVS PE's top speed. *)

val validate : system -> task list -> assignment -> (unit, string) result
  [@@rt.test_api "the oracle of the 2-PE tests"]
(** [cost] feasibility plus: the assignment is a partition of exactly the
    given task set. *)

(** {1 Algorithms}

    All take the full task list and return an assignment (never raising on
    regular inputs; infeasible placements are simply not made). *)

val greedy : system -> task list -> assignment
(** The intuitive density greedy: offload tasks in non-decreasing
    [alt_permille / dvs_weight] order while the non-DVS PE has room.
    Published as unboundedly suboptimal — kept as the reference
    baseline. *)

val e_greedy : system -> task list -> assignment
(** The minimization-knapsack 2-approximation (Gens–Levner style): sort by
    [dvs_weight / alt_permille], take density-prefix solutions combined
    with one eviction each, keep the best. For the workload-independent
    flavour this carries the published 8-approximation on energy. *)

val dp : system -> task list -> assignment
(** Exact for the workload-independent flavour: a 0/1 knapsack over the
    non-DVS PE's permille capacity maximizing the offloaded DVS weight
    (pseudo-polynomial in 1000). For the dependent flavour it optimizes
    the same surrogate and is a heuristic. *)

val s_greedy : system -> task list -> assignment
(** For workload-dependent PEs: offload a task only when doing so lowers
    the {e total} energy (DVS marginal saving vs. non-DVS marginal cost),
    scanning in non-increasing [dvs_weight / alt_permille] order; then
    compare with the best single-offload assignment and keep the better —
    the published 0.5-approximation on energy {e savings}. *)

val exhaustive : system -> task list -> assignment
(** Subset enumeration oracle (2^n cost evaluations).
    @raise Invalid_argument above 30 tasks; keep n at 16 or below in
    practice. *)

val named : (string * (system -> task list -> assignment)) list
(** [greedy; e-greedy; dp; s-greedy] with their table names. *)

(** {1 Workload generators (the companion's two settings)} *)

val gen_proportional :
  Rt_prelude.Rng.t -> n:int -> total_alt:float -> task list
(** Non-DVS utilization roughly proportional to DVS demand; [total_alt]
    is the targeted [U₂*] (sum of alt utilizations, in units of the PE
    capacity). *)

val gen_inverse : Rt_prelude.Rng.t -> n:int -> total_alt:float -> task list
(** Non-DVS utilization anti-correlated with DVS demand (big DVS tasks are
    cheap to host on the fabric) — the setting where greedy offloading
    shines or embarrasses itself. *)
