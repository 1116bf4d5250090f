(* Percentiles of latency samples.

   Nearest rank: the p-quantile of n samples is the smallest sample such
   that at least ceil(p * n) samples are at or below it.  A failed op is
   recorded as [infinity], so it sorts last and counts as missing every
   latency limit. *)

let rank ~n p =
  (* 1-based rank; the epsilon keeps 0.99 *. 100. from rounding up to 100 *)
  let k = int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) in
  max 1 (min n k)

let of_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pct.of_sorted: no samples";
  sorted.(rank ~n p - 1)

let sorted_copy xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Samples strictly beyond the p-quantile's rank: a percentile is worth
   reporting only with at least ten samples beyond it. *)
let beyond ~n p = n - rank ~n p

let median xs = of_sorted (sorted_copy xs) 0.5
