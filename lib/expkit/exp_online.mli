(** Experiment E13: the online extension — admission policies under a
    load sweep of Poisson job arrivals.

    The published problem is static; this experiment probes the natural
    online regime its future-work section points at. Total cost (energy +
    rejection penalties) is normalized to the per-job clairvoyant lower
    bound of {!Rt_online.Admission.lower_bound}. *)

val e13_online_admission : ?seeds:int -> unit -> Rt_prelude.Tablefmt.t
(** Rows: offered load (expected utilization demand). Columns: the three
    policies' cost ratios, Admit_all's acceptance rate, and Profitable's
    energy over the YDS offline-optimal energy of the jobs it admitted.
    Expected: all ratios near 1 at light load; under overload Profitable
    and the threshold policy beat Admit_all, whose forced rejections
    pick the wrong victims. The YDS ratio is at least 1. *)
