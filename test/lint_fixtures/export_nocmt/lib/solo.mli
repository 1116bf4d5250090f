(* unused-export fixture: judged only when every unit has a typedtree *)
val solo : int
