(* unused-export fixture: the library unit whose exports are judged *)

val private_helper : int -> int
(* must flag: only this unit names it *)

val used : int -> int
(* must pass: the program names it *)

val dead : int -> int
(* must flag: only a dead Facade value names it *)

val test_only : int -> int
(* must flag: only the test names it *)

val seam : int -> int [@@rt.test_api "the fixture test's oracle"]
(* must pass: test-only, but marked *)

val via_alias : int -> int
(* must pass: the program names it as Facade.S.via_alias *)

val via_let_module : int -> int
(* must pass: the program names it through [let module M = Shapes] *)

module Nested : sig
  val inner : int -> int
  (* must pass: the program names Shapes.Nested.inner *)

  val inner_dead : int -> int
  (* must flag: only a dead Facade value names it *)
end
