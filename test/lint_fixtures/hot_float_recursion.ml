(* must-note: a self-recursive scan with a float parameter on a hot path
   (advisory only); the loop form below it is clean *)

let rec min_index (xs : float array) i best best_x =
  if i >= Array.length xs then best
  else if Float.compare xs.(i) best_x < 0 then min_index xs (i + 1) i xs.(i)
  else min_index xs (i + 1) best best_x

let min_index_loop (xs : float array) =
  let best = ref 0 in
  for i = 1 to Array.length xs - 1 do
    if Float.compare xs.(i) xs.(!best) < 0 then best := i
  done;
  !best
