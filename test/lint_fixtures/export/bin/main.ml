(* unused-export fixture: the program; everything it names is live *)
let () =
  let module M = Shapes in
  print_int
    (Shapes.used 1 + Facade.S.via_alias 2 + M.via_let_module 3
   + Shapes.Nested.inner 4)
