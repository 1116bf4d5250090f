(** The service's bounded-ingress queue: jobs in arrival order, oldest
    first, with the overflow shed of {!Serve.run}. The service keeps
    two: its queue of undecided jobs, and the overload detector's
    window of recent arrivals.

    A ring buffer of jobs beside a flat float array of their penalty
    rates (penalty per cycle), each rate computed once, at {!push}.
    {!push}, {!peek} and {!pop} are O(1). {!shed} is one scan for the
    cheapest entry and one shift to close its gap: O(length), with
    nothing allocated. Both arrays are allocated at the first {!push}
    and double when full, so a service that never queues allocates
    nothing here. *)

type t

val create : unit -> t
(** An empty queue. *)

val length : t -> int

val push : t -> Rt_online.Job.t -> unit
  [@@rt.hot "one call per arrival on the service's queued path"]
(** Append a job at the back. *)

val peek : t -> Rt_online.Job.t
  [@@rt.hot "one call per event on the service's queued path"]
(** The oldest job, left in place.
    @raise Invalid_argument on an empty queue. *)

val pop : t -> Rt_online.Job.t
  [@@rt.hot "one call per decision on the service's queued path"]
(** Remove and return the oldest job.
    @raise Invalid_argument on an empty queue. *)

val shed : t -> Rt_online.Job.t
  [@@rt.hot "one call per overflowing arrival"]
(** Remove and return the job with the least [(penalty / cycles, id)];
    among entries equal in both, the oldest. This is the head of a
    stable sort of the queue by that key, so repeated sheds drop the
    queue's cheapest prefix in sort order. The others keep their order.
    @raise Invalid_argument on an empty queue. *)
