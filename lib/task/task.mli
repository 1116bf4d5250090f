(** Real-time task models.

    Two concrete task shapes follow the paper setting:

    - {e frame-based} tasks: all arrive at time 0 and share a common
      deadline [D] (the frame); characterized by worst-case execution
      cycles.
    - {e periodic} tasks: implicit-deadline periodic tasks [(c_i, p_i)];
      a task releases a job every [p_i] ticks and each job must finish
      before the next release.

    Both carry a {e rejection penalty}: the cost the system pays if the
    scheduler declines to run the task (per frame, respectively per
    hyper-period). [power_factor] scales the speed-dependent power a task
    induces while it runs (1.0 = the processor's nominal model); it is 1 for
    the homogeneous core problem and used by the heterogeneous-power
    substrate algorithms (LEET/LEUF family).

    Cycles and periods are integers so that dynamic-programming algorithms
    and hyper-period arithmetic are exact. *)

type frame = private {
  id : int;
  cycles : int;  (** worst-case execution cycles, > 0 *)
  penalty : float;  (** rejection penalty, >= 0, finite *)
  power_factor : float;  (** multiplier on the dynamic power, > 0 *)
}

type periodic = private {
  id : int;
  cycles : int;  (** worst-case execution cycles per job, > 0 *)
  period : int;  (** period = relative deadline, in ticks, > 0 *)
  penalty : float;  (** rejection penalty per hyper-period, >= 0 *)
  power_factor : float;
}

val frame : ?penalty:float -> ?power_factor:float -> id:int -> cycles:int -> unit -> frame
(** [penalty] defaults to [0.], [power_factor] to [1.].
    @raise Invalid_argument on out-of-range fields. *)

val periodic :
  ?penalty:float -> ?power_factor:float -> id:int -> cycles:int ->
  period:int -> unit -> periodic
(** @raise Invalid_argument on out-of-range fields. *)

val utilization : periodic -> float
(** [cycles / period] as a float — the sustained speed the task demands. *)

(** {1 The unified "item" view}

    Rejection-scheduling algorithms do not care whether weights are cycles
    within a frame or utilizations within a hyper-period: both reduce to a
    per-item {e required-speed contribution} packed onto processors whose
    capacity is [s_max]. [weight] is that contribution. *)

type item = {
  item_id : int;
  weight : float;  (** required-speed contribution; > 0 *)
  item_penalty : float;
  item_power_factor : float;
}

val item_of_frame : frame_length:float -> frame -> item
(** [weight = cycles / frame_length]. @raise Invalid_argument if
    [frame_length <= 0]. *)

val item_of_periodic : periodic -> item
(** [weight = utilization]. *)

val item :
  ?penalty:float -> ?power_factor:float -> id:int -> weight:float -> unit ->
  item
(** Direct constructor for synthetic items (tests, hardness gadgets). *)

(** {1 Printers and orders} *)

val pp_item : Format.formatter -> item -> unit

val compare_frame_cycles_desc : frame -> frame -> int
(** Largest cycles first; ties broken by id (ascending) so sorts are
    deterministic. *)

val compare_item_weight_desc : item -> item -> int

val distinct_ids : int list -> bool
(** [true] iff no id occurs twice (task sets must have unique ids). *)
