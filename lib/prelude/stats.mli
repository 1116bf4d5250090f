(** Descriptive statistics over float samples.

    Every experiment in the suite reports sample means of normalized ratios
    over many seeded replications; this module is the single implementation
    of those aggregates. All functions raise [Invalid_argument] on empty
    input unless stated otherwise. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator; 0 if n=1) *)
  min : float;
  max : float;
  median : float;
}

val mean : float list -> float
val stddev : float list -> float
val minimum : float list -> float
val maximum : float list -> float

val median : float list -> float
(** Median; averages the middle pair for even sample sizes. *)

val percentile : float -> float list -> float
(** [percentile p xs] for [p] in [\[0, 100\]], linear interpolation between
    order statistics. @raise Invalid_argument if [p] is out of range. *)

val summarize : float list -> summary
