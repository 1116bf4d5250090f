(** Minimal JSON codec: the one printer and parser behind every JSON file
    the repo writes or reads — the conformance-testing corpus, the
    [BENCH_*.json] trajectories and rt-lint's findings and SARIF reports.

    The container ships no JSON library, and the corpus needs one hard
    guarantee none of the mainstream printers give cheaply: {e canonical}
    output — [parse s |> print] is byte-identical to [s] for any string
    this module printed. The regression suite leans on that to detect
    hand-edited or drifting corpus entries ([test/corpus/*.json] must
    round-trip exactly).

    Scope is deliberately small: strings are byte strings (bytes [>= 0x80]
    pass through raw, so UTF-8 survives unvalidated; control bytes print
    as the JSON short escapes or [\u00XX]; [\u00XX] is accepted on input
    for ASCII code points only), 63-bit integers kept distinct from
    floats, finite floats printed with the shortest decimal form that
    parses back exactly (an integral one as [3.0], never [3.]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** finite; printing a NaN/infinity raises *)
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** insertion order is preserved *)

val to_string : t -> string
(** Canonical multi-line rendering (two-space indent, no trailing
    whitespace, final newline). Deterministic: equal values print equal
    bytes, and printed output re-parses to an equal value.
    @raise Invalid_argument on a non-finite float. *)

val parse : string -> (t, string) result
(** Recursive-descent parser for the subset above. Numbers containing
    ['.'], ['e'] or ['E'] become [Float]; all others become [Int].
    Errors carry a character offset. *)

val equal : t -> t -> bool
(** Structural equality; floats compare with IEEE equality
    ({!Float_cmp.exact_eq}), object key order matters (the printer is
    canonical, so order-insensitive equality would mask corpus drift). *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing keys or non-objects. *)

val to_int : t -> (int, string) result
val to_float : t -> (float, string) result
(** Accepts [Int] too (JSON does not distinguish [3] from [3.0] readers). *)

val to_str : t -> (string, string) result
val to_list : t -> (t list, string) result
