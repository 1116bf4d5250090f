(* must pass: tolerance routed through a Float_cmp-style helper (whose own
   bare comparisons carry reasoned pragmas), ints compared bare *)
module Float_cmp = struct
  (* lint: allow-float-cmp "the tolerance helper compares bare by design" *)
  let approx_eq a b = Float.abs (a -. b) <= 1e-9
  (* lint: allow-float-cmp "the tolerance helper compares bare by design" *)
  let leq a b = a -. b <= 1e-9
end

let close a b = Float_cmp.approx_eq a b

let le a b = Float_cmp.leq a b

let int_order (x : int) (y : int) = x < y

let cap a b = Float.min a b
