(* unused-export fixture: a cross-unit module alias *)

module S = Shapes

val dead_end : int -> int
(* must flag: only this unit names it *)
