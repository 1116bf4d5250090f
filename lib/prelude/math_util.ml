let rec gcd a b =
  let a = abs a and b = abs b in
  if b = 0 then a else gcd b (a mod b)

let lcm_checked a b =
  if a <= 0 || b <= 0 then Error "Math_util.lcm: non-positive argument"
  else begin
    let g = gcd a b in
    let q = a / g in
    if q > max_int / b then Error "Math_util.lcm: overflow"
    else Ok (q * b)
  end

let lcm_list_checked = function
  | [] -> Error "Math_util.lcm_list: empty list"
  | x :: xs ->
      List.fold_left
        (fun acc y -> Result.bind acc (fun a -> lcm_checked a y))
        (Ok x) xs

let range lo hi =
  let rec go i acc = if i < lo then acc else go (i - 1) (i :: acc) in
  go hi []

let frange ~lo ~hi ~steps =
  if steps < 1 then invalid_arg "Math_util.frange: steps < 1";
  List.map
    (fun i -> lo +. ((hi -. lo) *. float_of_int i /. float_of_int steps))
    (range 0 steps)

(* inverse golden ratio *)
let invphi = (sqrt 5. -. 1.) /. 2.

let golden_tol = 1e-10
let bisect_tol = 1e-12
let max_iter = 200

let golden_section_min ~f ~lo ~hi () =
  if Float_cmp.exact_gt lo hi then
    invalid_arg "Math_util.golden_section_min: lo > hi";
  (* invariant: the minimum lies in [a, b]; xa < xb are the interior probes
     with cached values fa, fb — carried as loop arguments, which ocamlopt
     (without flambda) boxes on every recursive call *)
  let rec go iter a b xa xb fa fb =
    if
      iter < max_iter
      && Float_cmp.exact_gt (b -. a)
           (golden_tol *. Float.max 1. (Float.abs a +. Float.abs b))
    then
      if fa < fb then begin
        let b = xb in
        let xa' = b -. (invphi *. (b -. a)) in
        go (iter + 1) a b xa' xa (f xa') fa
      end
      else begin
        let a = xa in
        let xb' = a +. (invphi *. (b -. a)) in
        go (iter + 1) a b xb xb' fb (f xb')
      end
    else (a +. b) /. 2.
  in
  let xa = hi -. (invphi *. (hi -. lo)) in
  let xb = lo +. (invphi *. (hi -. lo)) in
  let fa = f xa in
  let fb = f xb in
  let x = go 0 lo hi xa xb fa fb in
  (x, f x)

let bisect_root ~f ~lo ~hi () =
  let flo = f lo and fhi = f hi in
  if Float_cmp.exact_eq flo 0. then lo
  else if Float_cmp.exact_eq fhi 0. then hi
  else if Float_cmp.exact_gt (flo *. fhi) 0. then
    invalid_arg "Math_util.bisect_root: endpoints do not bracket a root"
  else begin
    let a = ref lo and b = ref hi and fa = ref flo in
    let iter = ref 0 in
    while
      !iter < max_iter
      && Float_cmp.exact_gt (!b -. !a)
           (bisect_tol *. Float.max 1. (Float.abs !a +. Float.abs !b))
    do
      incr iter;
      let m = (!a +. !b) /. 2. in
      let fm = f m in
      if Float_cmp.exact_eq fm 0. then begin
        a := m;
        b := m
      end
      else if Float_cmp.exact_lt (!fa *. fm) 0. then b := m
      else begin
        a := m;
        fa := fm
      end
    done;
    (!a +. !b) /. 2.
  end

let bisect_decreasing ~f ~target ~lo ~hi () =
  if Float_cmp.exact_le (f lo) target then lo
  else if Float_cmp.exact_ge (f hi) target then hi
  else bisect_root ~f:(fun x -> f x -. target) ~lo ~hi ()
