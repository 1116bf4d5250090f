(** Seeded fault models for the robustness experiments.

    Three fault classes cover the standard failure modes of a DVS
    multiprocessor platform:

    - {e WCEC overrun}: a task's worst-case execution cycles were
      under-estimated; its jobs take [factor] times longer than planned.
    - {e processor crash}: a processor stops executing at time [at]
      (fail-stop); work scheduled after that point is lost.
    - {e speed derating}: the platform loses its top speed range —
      thermal throttling on ideal processors, losing the top DVS levels
      on non-ideal ones.

    A {!scenario} is a list of such faults. This module only {e
    describes} faults and converts them into the simulators' injection
    hooks ({!Rt_sim.Frame_sim.injection}, {!Rt_sim.Edf_sim.injection});
    reacting to them is {!Degrade}'s job. *)

type t =
  | Wcec_overrun of { task_id : int; factor : float }
      (** jobs of [task_id] need [factor] × their nominal cycles
          ([factor > 0], finite; [> 1] is an overrun, [< 1] a windfall) *)
  | Proc_crash of { proc : int; at : float }
      (** processor [proc] executes nothing after time [at] *)
  | Speed_derate of { factor : float }
      (** platform-wide speed loss: no processor can exceed
          [factor × s_max] ([0 < factor <= 1]) *)

type scenario = t list
(** Order is irrelevant; duplicate faults compose (overrun factors
    multiply, the earliest crash per processor wins, the harshest derate
    wins). The empty list is the fault-free scenario. *)

val validate : m:int -> scenario -> (unit, string) result
(** Check every fault's fields: finite positive overrun factors, crash
    processor indices within [\[0, m)], finite non-negative crash times,
    derate factors in [(0, 1]]. *)

(** {1 Accessors (the composed view)} *)

val overrun_factor : scenario -> int -> float
(** Product of all overrun factors naming this task (1.0 if none). *)

val crash_time : scenario -> int -> float option
(** Earliest crash time of this processor, if any fault names it. *)

val derate : scenario -> float
(** Minimum derate factor in the scenario (1.0 if none). *)

val surviving : scenario -> m:int -> int list
(** Processor indices with no crash fault, ascending. *)

(** {1 Projections into platform and simulators} *)

val derated_proc :
  scenario -> Rt_power.Processor.t -> (Rt_power.Processor.t, string) result
(** The processor descriptor the degradation policies should plan
    against: an ideal spectrum has its [s_max] scaled by {!derate}; a
    level domain keeps only the levels at or below [derate × top].
    Errors when nothing survives (no level left, or the ideal [s_min]
    exceeds the derated maximum). *)

val speed_cap : scenario -> Rt_power.Processor.t -> float option
(** The absolute speed ceiling {!derate}[ × s_max], or [None] when the
    scenario does not derate. *)

val frame_injection :
  scenario -> proc:Rt_power.Processor.t -> Rt_sim.Frame_sim.injection
(** Project the scenario onto a frame schedule built for [proc]. *)

val edf_injection :
  scenario -> proc:Rt_power.Processor.t -> proc_index:int ->
  Rt_sim.Edf_sim.injection
(** Project the scenario onto the single-processor EDF simulation of
    processor [proc_index]. *)

(** {1 Timed injection (the streaming service)}

    The batch simulators take a {!scenario} whole — every fault is known
    before the replay starts. A {e running} service instead takes faults
    as events: a {!timed} wrapper gives each fault the absolute stream
    time at which it strikes, and [Rt_serve.Serve] applies it to the live
    executor at that instant through [Rt_online.Admission.Exec], which
    also re-plans the committed work ([Exec.crash] re-homes or sheds a
    dead processor's jobs, [Exec.replan] sheds from an over-committed
    one). For {!Proc_crash} the wrapper's [at] is the
    authoritative strike time; the fault's own [at] field is what the
    batch simulators read and is ignored by the service. *)

type timed = { at : float; fault : t }

val validate_timed : m:int -> timed list -> (unit, string) result
(** {!validate} on every wrapped fault, plus: strike times finite and
    >= 0. *)

val by_time : timed list -> timed list
(** Ascending strike time, stable (simultaneous faults keep their given
    order — they compose exactly as in a {!scenario}). *)

val pp_fault : Format.formatter -> t -> unit
(** One fault, the element form of {!pp}. *)

(** {1 Seeded generation} *)

type rates = {
  overrun_prob : float;  (** per-task probability of a WCEC overrun *)
  overrun_factor : float;  (** factor each generated overrun uses *)
  crash_prob : float;  (** per-processor crash probability *)
  derate_prob : float;  (** probability of a platform-wide derate *)
  derate_factor : float;  (** factor a generated derate uses *)
}

val gen :
  Rt_prelude.Rng.t -> rates -> task_ids:int list -> m:int -> horizon:float ->
  scenario
(** Draw a scenario: each task overruns with [overrun_prob], each
    processor crashes (at a uniform time in [\[0, horizon)]) with
    [crash_prob] — except that the last surviving processor is never
    crashed, so recovery always has somewhere to run — and the platform
    derates with [derate_prob]. Deterministic in the [Rng] state. *)

val pp : Format.formatter -> scenario -> unit
