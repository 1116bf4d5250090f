(** Plain-text table and CSV rendering for experiment output.

    The benchmark harness and the [experiments] binary print the same tables
    the paper-style evaluation reports; this module owns the layout so every
    table in the repository looks identical. *)

type align = Left | Right

type t
(** A table under construction: a header and a list of string rows. *)

val create : ?aligns:align list -> string list -> t
(** [create headers] starts a table. [aligns] defaults to [Right] for every
    column. @raise Invalid_argument if [aligns] is given with a different
    length than [headers]. *)

val add_row : t -> string list -> t
(** Append a row. @raise Invalid_argument if the arity differs from the
    header. *)

val add_float_row : t -> string -> float list -> t
(** [add_float_row t label xs] appends [label] and each float at 4
    decimals ({!float_cell}). The label column plus the floats must match
    the header arity. *)

val render : t -> string
(** Box-drawing-free ASCII rendering with aligned columns. *)

val to_csv : t -> string
(** RFC-4180-ish CSV (quotes fields containing commas/quotes/newlines). *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)

val float_cell : ?decimals:int -> float -> string
(** Uniform float formatting for table cells (default 4 decimals). *)
