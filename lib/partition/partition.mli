(** Task partitions: the assignment of items onto [m] processors.

    A value is immutable; [add] copies the (small) bucket array. Items keep
    their identity, so a partition can always be traced back to the
    instance it was built from. *)

type t = private {
  m : int;
  buckets : Rt_task.Task.item list array;  (** length [m]; most recent first *)
  sums : float array;
      (** cached per-bucket weight totals, kept in sync by the
          constructors; read through {!loads} / {!load}, never mutated *)
}

val empty : m:int -> t
(** @raise Invalid_argument if [m < 1]. *)

val add : t -> int -> Rt_task.Task.item -> t
(** [add p j it] assigns [it] to processor [j].
    @raise Invalid_argument if [j] is out of range. *)

val of_buckets : Rt_task.Task.item list array -> t
(** @raise Invalid_argument on an empty array or duplicate item ids. *)

val m : t -> int
val bucket : t -> int -> Rt_task.Task.item list
val all_items : t -> Rt_task.Task.item list
val size : t -> int

val loads : t -> float array
(** Per-processor weight sums (a fresh copy of the cache — callers may
    mutate the result freely). *)

val load : t -> int -> float
(** O(1) cached read. @raise Invalid_argument if [j] is out of range. *)

val makespan : t -> float
(** Largest per-processor load (0. for an all-empty partition). *)

val min_load_index : t -> int
(** Index of a least-loaded processor (lowest index on ties). *)

val processor_of : t -> int -> int option
(** [processor_of p id] is the processor holding item [id], if any. *)

val equal_shape : t -> t -> bool
(** Same [m] and the same set of item ids on each processor (order
    ignored). *)
