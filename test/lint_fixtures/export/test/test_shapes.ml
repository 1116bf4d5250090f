(* unused-export fixture: a test; what it names is reached by tests only *)
let () = assert (Shapes.test_only 1 = Shapes.seam 1)
