(* must-pass: a hot kernel in allocation-free style — a for loop over an
   int index, flat float-array access, the sum kept in a float-array
   cell (a self-recursive scan would box its float accumulator) *)

let sum_sq (xs : float array) (acc : float array) =
  acc.(0) <- 0.;
  for i = 0 to Array.length xs - 1 do
    acc.(0) <- acc.(0) +. (xs.(i) *. xs.(i))
  done;
  acc.(0)
