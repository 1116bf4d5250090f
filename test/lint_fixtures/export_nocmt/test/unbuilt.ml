(* names a module no standalone typing can see, as an unbuilt test would *)
let () = assert (Rt_missing.Unit.value = Solo.solo)
