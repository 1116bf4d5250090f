type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

let nonempty name = function
  | [] -> invalid_arg ("Stats." ^ name ^ ": empty sample")
  | xs -> xs

let mean xs =
  let xs = nonempty "mean" xs in
  List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stddev xs =
  let xs = nonempty "stddev" xs in
  match xs with
  | [ _ ] -> 0.
  | _ ->
      let m = mean xs in
      let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
      sqrt (ss /. float_of_int (List.length xs - 1))

let minimum xs = List.fold_left Float.min Float.infinity (nonempty "minimum" xs)

let maximum xs =
  List.fold_left Float.max Float.neg_infinity (nonempty "maximum" xs)

let sorted xs = List.sort Float.compare xs

let percentile p xs =
  if Float_cmp.exact_lt p 0. || Float_cmp.exact_gt p 100. then
    invalid_arg "Stats.percentile: p out of range";
  let xs = sorted (nonempty "percentile" xs) in
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median xs = percentile 50. xs

let summarize xs =
  let xs = nonempty "summarize" xs in
  {
    n = List.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = minimum xs;
    max = maximum xs;
    median = median xs;
  }
