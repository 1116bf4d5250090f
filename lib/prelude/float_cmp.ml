let default_eps = 1e-9

let scale a b = Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let approx_eq ?(eps = default_eps) a b = Float.abs (a -. b) <= eps *. scale a b

(* the tolerance slack only makes sense for finite operands: with
   [a = infinity] the naive form degenerates to [inf <= inf] and calls
   an infinite density "feasible" — infinite or NaN operands compare
   exactly instead *)
let leq ?(eps = default_eps) a b =
  if Float.is_finite a && Float.is_finite b then a <= b +. (eps *. scale a b)
  else a <= b

let geq ?eps a b = leq ?eps b a

let lt ?eps a b = not (geq ?eps a b)

let gt ?eps a b = not (leq ?eps a b)

let clamp ~lo ~hi x =
  if lo > hi then invalid_arg "Float_cmp.clamp: lo > hi";
  if x < lo then lo else if x > hi then hi else x

let is_finite x = Float.is_finite x

let exact_eq = Float.equal
let exact_lt (a : float) b = a < b
let exact_le (a : float) b = a <= b
let exact_gt (a : float) b = a > b
let exact_ge (a : float) b = a >= b
