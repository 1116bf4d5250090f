(** Problem instances for energy-efficient scheduling with task rejection.

    An instance is [m] identical DVS processors, a horizon (the frame
    length, or one hyper-period for periodic sets), and a set of items —
    tasks reduced to their required-speed contribution plus a rejection
    penalty (see {!Rt_task.Task.item}). A solution accepts a subset,
    partitions it so that no processor's load exceeds [s_max], and pays

    {v Σ_j horizon · rate(load_j)  +  Σ_rejected penalty v}

    where [rate] is the optimal sustained-power primitive
    {!Rt_speed.Energy_rate.rate}. Because the maximum speed is finite,
    instances with load factor above 1 {e force} rejections — the regime
    the target paper introduces. *)

type soa = {
  n : int;  (** item count; every array below has length [n] *)
  ids : int array;  (** [ids.(i)] is the id of positional item [i] *)
  weights : float array;  (** [weights.(i)] — required-speed contribution *)
  penalties : float array;  (** [penalties.(i)] — rejection penalty *)
  item_arr : Rt_task.Task.item array;
      (** the same items as [t.items], in list order *)
  index_of : (int, int) Hashtbl.t;
      (** id -> position; read-only after construction *)
  order_weight_desc : int array;
      (** positions sorted weight-descending, id-ascending on ties — the
          canonical LTF visit order, sorted once per instance; iterate
          it, never permute it *)
  energy : float -> float;
      (** prepared per-load bucket energy — identical results to
          {!bucket_energy}: {!Rt_speed.Energy_rate.prepare_energy} with
          the hull / critical-speed setup hoisted. The closure is flat:
          one guard inlined, the speed clamps as exact selects, no plan
          or option built and no float boxed for a stdlib clamp, so a
          call on the dormant ideal processor allocates only its result
          and the power model's. It is convex and non-decreasing on
          [\[0, capacity\]], within a few ulps of its value at capacity
          (the contract {!Rt_speed.Energy_rate.prepare_energy} states);
          local search's gap test relies on it *)
}
(** Struct-of-arrays view of an instance: unboxed positional arrays for
    the hot paths (greedy packing, local-search deltas, online admission)
    so they index instead of walking [Task.item list]s. Built once by
    {!make} and immutable afterwards — do not mutate the arrays. *)

type t = private {
  proc : Rt_power.Processor.t;
  m : int;
  horizon : float; [@rt.dim "seconds"]
  items : Rt_task.Task.item list;
  soa : soa;
}

val make :
  proc:Rt_power.Processor.t -> m:int -> horizon:float ->
  Rt_task.Task.item list -> (t, string) result
(** Checks [m >= 1], [horizon > 0], distinct item ids, and unit power
    factors (the core problem is homogeneous; heterogeneous power is the
    {!Rt_partition.Hetero} substrate). *)

val of_frame :
  proc:Rt_power.Processor.t -> m:int -> frame_length:float ->
  Rt_task.Task.frame list -> (t, string) result
(** Frame tasks: weights are [cycles / frame_length]. *)

val of_periodic :
  proc:Rt_power.Processor.t -> m:int -> Rt_task.Task.periodic list ->
  (t, string) result
(** Periodic tasks: weights are utilizations; the horizon is the
    hyper-period. Errors on an empty set (no hyper-period) and on
    hyper-period overflow (adversarial period grids). *)

val capacity : t -> float [@rt.dim "speed"]
(** Per-processor load capacity: [s_max]. *)

val load_factor : t -> float [@rt.dim "1"]
(** Total weight over [m · s_max]; above 1.0 rejection is forced. *)

val soa : t -> soa
(** The struct-of-arrays view (same object as [t.soa]). *)

val item : t -> int -> Rt_task.Task.item option
(** Lookup by id — O(1) via the SoA id index. *)

val bucket_energy : t -> float -> float [@rt.dim "joules"]
(** [horizon · rate(load)] — the cost one processor contributes at the
    given load. @raise Invalid_argument when [load] exceeds the capacity
    (no feasible plan). *)

val pp : Format.formatter -> t -> unit
