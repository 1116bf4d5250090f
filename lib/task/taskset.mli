(** Whole-task-set queries and invariants. *)

val total_utilization : Task.periodic list -> float

val total_weight : Task.item list -> float

val total_penalty_items : Task.item list -> float

val hyper_period : Task.periodic list -> int
(** Least common multiple of the periods.
    @raise Invalid_argument on an empty set or overflow. *)

val hyper_period_checked : Task.periodic list -> (int, string) result
(** [hyper_period] with the empty set and LCM overflow (adversarial period
    grids, e.g. large coprime periods) reported as a typed error — the
    entry points that admit untrusted task sets ({!Rt_core.Problem},
    {!Rt_sim.Edf_sim}) route through this instead of catching
    exceptions. *)

val well_formed_frame : Task.frame list -> (unit, string) result
(** Unique ids; non-empty sets are not required. *)

val well_formed_periodic : Task.periodic list -> (unit, string) result

val periodic_by_id : Task.periodic list -> int -> Task.periodic option

val items_of_frames : frame_length:float -> Task.frame list -> Task.item list
val items_of_periodics : Task.periodic list -> Task.item list

val load_factor :
  m:int -> s_max:float -> Task.item list -> float
(** [total_weight / (m * s_max)] — the normalized system load; above 1.0 not
    every task can be accepted. @raise Invalid_argument if [m <= 0] or
    [s_max <= 0]. *)

val pp_items : Format.formatter -> Task.item list -> unit
