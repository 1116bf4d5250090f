(** The Yao–Demers–Shenker offline-optimal speed schedule.

    Given aperiodic jobs (arrival, deadline, cycles) known in advance, the
    YDS algorithm repeatedly finds the {e critical interval} — the window
    [\[t1, t2\]] maximizing intensity
    [Σ cycles of jobs contained in the window / (t2 − t1)] — schedules the
    contained jobs across that window at exactly the intensity, removes
    them, excises the window from the timeline, and recurses. The result
    is the minimum-energy feasible speed profile for any convex power
    function; with leakage and a sleep mode the blocks whose intensity
    falls below the critical speed run at the critical speed and sleep
    (Irani et al.), which is how {!energy} prices them.

    This is the optimality oracle for {!Admission}: when the online
    executor admits everything, its energy can never beat YDS. *)

type block = {
  intensity : float;  (** cycles per unit time across the block *)
  length : float;  (** block duration in original (un-excised) time *)
  work : float;  (** = intensity × length *)
}

val blocks : Job.t list -> block list
[@@rt.hot "once per sweep battery op, yds_bound serve run and E13 seed"]
(** The critical-interval decomposition, in extraction order (intensities
    non-increasing). Total [work] equals the jobs' total cycles. Empty
    input gives []. @raise Invalid_argument on duplicate ids.

    Candidate windows are [\[t1, t2\]] over the live arrivals × live
    deadlines with [t2 > t1], scanned in (t1, t2) order. A window's work
    is the sum of the contained jobs' cycles in input order, and its
    intensity that work over [t2 − t1]. The first window is the best so
    far; a later one replaces it only when the best's intensity is below
    the window's minus [1e-15], so near-ties go to the earliest window.

    Cost: one sweep per start prices every window in deadline order,
    O(k²) per block for k live jobs, and the r windows whose bound could
    beat the best so far are re-priced in input order, O(r·k). The sweep
    skips no window the rule would take, so the blocks are bit for bit
    those of pricing every window in input order, which costs O(k³) per
    block. Over up to n blocks that is O(n³) while r stays O(k). *)

val energy :
  proc:Rt_power.Processor.t -> Job.t list -> (float, string) result
(** Offline-optimal energy on an ideal processor: each block runs at
    [max(intensity, floor speed)] and rests through the slack the clamp
    leaves, paying the rest power over it. Both are the processor's
    ({!Rt_power.Processor.floor_speed}, {!Rt_power.Processor.rest_power}):
    a dormant-enable processor runs no slower than its critical speed and
    sleeps at zero power; a dormant-disable one runs no slower than
    [s_min] and idles at [p_ind]. In exact arithmetic a block therefore
    costs what {!Rt_speed.Energy_rate.prepare_energy} charges for its
    intensity over its length. Errors when the peak intensity exceeds
    [s_max] (no feasible schedule) or the processor has discrete
    levels. *)
