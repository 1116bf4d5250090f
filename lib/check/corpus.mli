(** The minimized-counterexample corpus.

    When the fuzzer finds a failing (instance, algorithm, oracle/law)
    triple it shrinks the instance and serializes the result as one JSON
    file under [test/corpus/]. Committed entries become deterministic
    regression tests: every run re-parses them, re-serializes them
    byte-identically (the codec is canonical, so drift is loud), re-runs
    the recorded algorithm through the full oracle registry, and — when
    the capture recorded the exact optimum — re-proves that optimum.

    An entry therefore stays useful after the bug it captured is fixed:
    it pins the instance that once broke an oracle and asserts the whole
    registry now agrees on it. *)

type entry = {
  name : string;  (** file stem; unique within the corpus directory *)
  algorithm : string;
      (** the algorithm under test at capture time (a {!Fuzz.algorithms}
          key), or ["-"] when a metamorphic law failed (laws judge the
          instance, not one algorithm) *)
  oracle : string;  (** {!Oracle} or {!Laws} name that fired *)
  detail : string;  (** the failure message observed at capture time *)
  opt_cost : float option;
      (** branch-and-bound optimum recorded at capture (when the
          instance was within the exact cap) *)
  instance : Instance.t;  (** minimized *)
}

val to_string : entry -> string

val save : dir:string -> entry -> (string, string) result
(** Write [<dir>/<name>.json]; returns the path. Errors on I/O failure
    (the directory must exist). *)

val load_file : string -> (entry, string) result
  [@@rt.test_api "the corpus and instance fuzz harness"]

val load_dir : string -> ((string * entry) list, string) result
  [@@rt.test_api "the corpus and instance fuzz harness"]
(** Every [*.json] in the directory as [(path, entry)], sorted by path
    so replay order is deterministic. A file that fails to parse is an
    [Error] — a corrupt corpus must fail loudly, not skip silently. *)

val replay :
  algorithms:(string * (Rt_core.Problem.t -> Rt_core.Solution.t)) list ->
  entry -> (unit, string) result
  [@@rt.test_api "the corpus and instance fuzz harness"]
(** The regression check described above: the recorded algorithm (when
    not ["-"]) passes all four oracles, every metamorphic law holds on
    the instance, and the recorded [opt_cost] (if any) is reproduced by
    the exact solver within {!Oracle.eps}. *)
