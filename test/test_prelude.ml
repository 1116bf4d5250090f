(* Tests for rt_prelude: float comparison, integer/numeric utilities,
   statistics, RNG/UUniFast, table rendering, and the canonical JSON
   codec. *)

open Rt_prelude

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Float_cmp *)

let test_approx_eq () =
  check_bool "equal" true (Float_cmp.approx_eq 1.0 1.0);
  check_bool "tiny diff" true (Float_cmp.approx_eq 1.0 (1.0 +. 1e-12));
  check_bool "relative at scale" true
    (Float_cmp.approx_eq 1e12 (1e12 +. 1.));
  check_bool "clear difference" false (Float_cmp.approx_eq 1.0 1.1);
  check_bool "zero vs tiny" true (Float_cmp.approx_eq 0. 1e-12)

let test_leq_geq () =
  check_bool "leq strict" true (Float_cmp.leq 1.0 2.0);
  check_bool "leq equal" true (Float_cmp.leq 2.0 2.0);
  check_bool "leq slack" true (Float_cmp.leq (2.0 +. 1e-12) 2.0);
  check_bool "leq false" false (Float_cmp.leq 2.1 2.0);
  (* infinite densities must never pass a finite feasibility cap: the
     naive tolerant form degenerates to inf <= inf *)
  check_bool "leq inf vs finite" false (Float_cmp.leq Float.infinity 2.0);
  check_bool "leq finite vs inf" true (Float_cmp.leq 2.0 Float.infinity);
  check_bool "leq inf vs inf" true
    (Float_cmp.leq Float.infinity Float.infinity);
  check_bool "leq nan" false (Float_cmp.leq Float.nan 2.0);
  check_bool "gt" true (Float_cmp.gt 2.1 2.0);
  check_bool "gt not on eps" false (Float_cmp.gt (2.0 +. 1e-13) 2.0);
  check_bool "lt" true (Float_cmp.lt 1.9 2.0)

let test_clamp () =
  check_float "below" 1. (Float_cmp.clamp ~lo:1. ~hi:2. 0.);
  check_float "inside" 1.5 (Float_cmp.clamp ~lo:1. ~hi:2. 1.5);
  check_float "above" 2. (Float_cmp.clamp ~lo:1. ~hi:2. 3.);
  Alcotest.check_raises "inverted" (Invalid_argument "Float_cmp.clamp: lo > hi")
    (fun () -> ignore (Float_cmp.clamp ~lo:2. ~hi:1. 0.))

(* ------------------------------------------------------------------ *)
(* Math_util *)

let test_gcd () =
  check_int "gcd" 6 (Math_util.gcd 12 18);
  check_int "gcd zero" 5 (Math_util.gcd 0 5);
  check_int "gcd negatives" 4 (Math_util.gcd (-8) 12)

let test_lcm_checked () =
  check_bool "small ok" true (Math_util.lcm_checked 12 18 = Ok 36);
  check_bool "non-positive is an error" true
    (Result.is_error (Math_util.lcm_checked 0 3));
  (* consecutive integers are coprime, so this lcm is their product —
     far past max_int; the guard must catch it before the multiply *)
  check_bool "overflow is an error" true
    (Result.is_error (Math_util.lcm_checked max_int (max_int - 1)));
  check_bool "list ok" true
    (Math_util.lcm_list_checked [ 100; 200; 250; 400; 500 ] = Ok 2000);
  check_bool "empty list is an error" true
    (Result.is_error (Math_util.lcm_list_checked []));
  check_bool "list overflow is an error" true
    (Result.is_error (Math_util.lcm_list_checked [ max_int; max_int - 1 ]))

let test_ranges () =
  Alcotest.(check (list int)) "range" [ 2; 3; 4 ] (Math_util.range 2 4);
  Alcotest.(check (list int)) "empty range" [] (Math_util.range 3 2);
  let fr = Math_util.frange ~lo:0. ~hi:1. ~steps:4 in
  check_int "frange size" 5 (List.length fr);
  check_float "frange first" 0. (List.nth fr 0);
  check_float "frange mid" 0.5 (List.nth fr 2);
  check_float "frange last" 1. (List.nth fr 4)

let test_golden_section () =
  let f x = ((x -. 1.7) ** 2.) +. 3. in
  let x, v = Math_util.golden_section_min ~f ~lo:0. ~hi:10. () in
  Alcotest.(check (float 1e-5)) "argmin" 1.7 x;
  Alcotest.(check (float 1e-5)) "min value" 3. v

let test_bisect_root () =
  let f x = (x *. x) -. 2. in
  let r = Math_util.bisect_root ~f ~lo:0. ~hi:2. () in
  Alcotest.(check (float 1e-9)) "sqrt2" (sqrt 2.) r;
  Alcotest.check_raises "no bracket"
    (Invalid_argument "Math_util.bisect_root: endpoints do not bracket a root")
    (fun () -> ignore (Math_util.bisect_root ~f ~lo:2. ~hi:3. ()))

let test_bisect_decreasing () =
  let f x = 1. /. x in
  let r = Math_util.bisect_decreasing ~f ~target:0.5 ~lo:0.1 ~hi:10. () in
  Alcotest.(check (float 1e-6)) "solves f x = target" 2. r;
  (* clamping behaviour *)
  check_float "target above f lo" 0.1
    (Math_util.bisect_decreasing ~f ~target:100. ~lo:0.1 ~hi:10. ());
  check_float "target below f hi" 10.
    (Math_util.bisect_decreasing ~f ~target:0.0001 ~lo:0.1 ~hi:10. ())

let prop_golden_section_beats_samples =
  qtest "golden-section min is no worse than a coarse scan"
    QCheck2.Gen.(pair (float_range 0.2 5.) (float_range (-3.) 3.))
    (fun (a, b) ->
      let f x = (a *. (x -. b) ** 2.) +. 1. in
      let _, v = Math_util.golden_section_min ~f ~lo:(-10.) ~hi:10. () in
      List.for_all
        (fun x -> v <= f x +. 1e-6)
        (Math_util.frange ~lo:(-10.) ~hi:10. ~steps:100))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basic () =
  let xs = [ 1.; 2.; 3.; 4. ] in
  check_float "mean" 2.5 (Stats.mean xs);
  check_float "median even" 2.5 (Stats.median xs);
  check_float "median odd" 2. (Stats.median [ 1.; 2.; 7. ]);
  check_float "min" 1. (Stats.minimum xs);
  check_float "max" 4. (Stats.maximum xs);
  Alcotest.(check (float 1e-9))
    "stddev" (sqrt (5. /. 3.)) (Stats.stddev xs);
  check_float "stddev singleton" 0. (Stats.stddev [ 42. ])

let test_percentile () =
  let xs = [ 10.; 20.; 30.; 40.; 50. ] in
  check_float "p0" 10. (Stats.percentile 0. xs);
  check_float "p50" 30. (Stats.percentile 50. xs);
  check_float "p100" 50. (Stats.percentile 100. xs);
  check_float "p25 interpolates" 20. (Stats.percentile 25. xs);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty sample")
    (fun () -> ignore (Stats.percentile 50. []))

let prop_mean_bounds =
  qtest "mean lies between min and max"
    QCheck2.Gen.(list_size (int_range 1 50) (float_range (-100.) 100.))
    (fun xs ->
      let m = Stats.mean xs in
      Stats.minimum xs -. 1e-9 <= m && m <= Stats.maximum xs +. 1e-9)

let prop_summary_consistent =
  qtest "summarize agrees with the individual aggregates"
    QCheck2.Gen.(list_size (int_range 2 40) (float_range 0. 10.))
    (fun xs ->
      let s = Stats.summarize xs in
      s.Stats.n = List.length xs
      && Float_cmp.approx_eq ~eps:1e-9 s.Stats.mean (Stats.mean xs)
      && Float_cmp.approx_eq ~eps:1e-9 s.Stats.median (Stats.median xs))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let r1 = Rng.create ~seed:42 and r2 = Rng.create ~seed:42 in
  let xs1 = List.init 10 (fun _ -> Rng.int r1 ~lo:0 ~hi:1000) in
  let xs2 = List.init 10 (fun _ -> Rng.int r2 ~lo:0 ~hi:1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs1 xs2;
  let r3 = Rng.create ~seed:43 in
  let xs3 = List.init 10 (fun _ -> Rng.int r3 ~lo:0 ~hi:1000) in
  check_bool "different seed differs" true (xs1 <> xs3)

let test_rng_ranges () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 500 do
    let i = Rng.int rng ~lo:(-3) ~hi:5 in
    check_bool "int in range" true (i >= -3 && i <= 5);
    let f = Rng.float rng ~lo:2. ~hi:3. in
    check_bool "float in range" true (f >= 2. && f < 3.);
    let lu = Rng.log_uniform rng ~lo:0.1 ~hi:10. in
    check_bool "log_uniform in range" true (lu >= 0.1 && lu <= 10.)
  done

let test_split_streams_differ () =
  let parent = Rng.create ~seed:21 in
  let a = Rng.split parent in
  let b = Rng.split parent in
  let xs = List.init 20 (fun _ -> Rng.int a ~lo:0 ~hi:1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b ~lo:0 ~hi:1_000_000) in
  check_bool "children are independent streams" true (xs <> ys)

let test_shuffle_permutation () =
  let rng = Rng.create ~seed:11 in
  let xs = Rt_prelude.Math_util.range 0 20 in
  let ys = Rng.shuffle rng xs in
  Alcotest.(check (list int)) "same multiset" xs (List.sort compare ys)

let test_uunifast_sums () =
  let rng = Rng.create ~seed:3 in
  for n = 1 to 20 do
    let us = Rng.uunifast rng ~n ~total:0.8 in
    check_int "count" n (List.length us);
    Alcotest.(check (float 1e-9))
      "sums to total" 0.8
      (List.fold_left ( +. ) 0. us);
    check_bool "non-negative" true (List.for_all (fun u -> u >= 0.) us)
  done

let prop_uunifast =
  qtest "uunifast: n draws, exact sum, non-negative"
    QCheck2.Gen.(pair (int_range 1 30) (float_range 0.01 8.))
    (fun (n, total) ->
      let rng = Rng.create ~seed:(n + int_of_float (total *. 1000.)) in
      let us = Rng.uunifast rng ~n ~total in
      List.length us = n
      && Float_cmp.approx_eq ~eps:1e-9 (List.fold_left ( +. ) 0. us) total
      && List.for_all (fun u -> u >= -1e-12) us)

(* ------------------------------------------------------------------ *)
(* Tablefmt *)

let test_table_render () =
  let t =
    Tablefmt.create ~aligns:[ Tablefmt.Left; Tablefmt.Right ] [ "name"; "v" ]
  in
  let t = Tablefmt.add_row t [ "alpha"; "1.0" ] in
  let t = Tablefmt.add_row t [ "b"; "12.5" ] in
  let rendered = Tablefmt.render t in
  let lines = String.split_on_char '\n' rendered in
  check_int "header + sep + 2 rows" 4 (List.length lines);
  check_bool "left align" true
    (String.length (List.nth lines 2) > 0 && (List.nth lines 2).[0] = 'a');
  Alcotest.check_raises "arity" (Invalid_argument "Tablefmt.add_row: arity mismatch")
    (fun () -> ignore (Tablefmt.add_row t [ "only-one" ]))

let test_table_csv () =
  let t = Tablefmt.create [ "a"; "b" ] in
  let t = Tablefmt.add_row t [ "x,y"; "has \"quote\"" ] in
  Alcotest.(check string)
    "csv quoting" "a,b\n\"x,y\",\"has \"\"quote\"\"\"" (Tablefmt.to_csv t)

let test_float_row () =
  let t = Tablefmt.create [ "label"; "x"; "y" ] in
  let t = Tablefmt.add_float_row t "row" [ 1.23456; 2. ] in
  check_bool "renders" true (String.length (Tablefmt.render t) > 0)

(* ------------------------------------------------------------------ *)
(* Json *)

let sample =
  Json.Obj
    [
      ("null", Json.Null);
      ("flag", Json.Bool true);
      ("count", Json.Int (-42));
      ("x", Json.Float 0.1);
      ("s", Json.Str "a \"quoted\"\nline\\");
      ("xs", Json.List [ Json.Int 1; Json.Float 2.5; Json.Str "" ]);
      ("empty_obj", Json.Obj []);
      ("empty_list", Json.List []);
    ]

let test_json_roundtrip () =
  let s = Json.to_string sample in
  match Json.parse s with
  | Error e -> Alcotest.fail e
  | Ok v ->
      check_bool "parse inverts print" true (Json.equal v sample);
      check_string "canonical: print . parse . print = print" s
        (Json.to_string v)

let test_json_int_float_distinct () =
  match Json.parse "[1, 1.0, 1e0]" with
  | Error e -> Alcotest.fail e
  | Ok v ->
      check_bool "int stays int, floats stay float" true
        (Json.equal v (Json.List [ Json.Int 1; Json.Float 1.; Json.Float 1. ]))

let test_json_errors () =
  let bad s = check_bool s true (Result.is_error (Json.parse s)) in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\": 1,}";
  bad "[1] trailing";
  bad "nul";
  bad "\"unterminated";
  bad "[+1]";
  check_bool "non-finite float refused" true
    (match Json.to_string (Json.Float Float.nan) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let prop_json_float_exact =
  qtest ~count:100 "float printing is shortest-exact (parse back IEEE-identical)"
    QCheck2.Gen.(
      oneof
        [
          float_range (-1e6) 1e6;
          map (fun x -> x *. 1e-9) (float_range 0.1 10.);
          map (fun x -> x *. 1e12) (float_range 0.1 10.);
        ])
    (fun f ->
      match Json.parse (Json.to_string (Json.Float f)) with
      | Ok (Json.Float g) -> Float_cmp.exact_eq f g
      | _ -> false)

(* RFC 8259 wants a digit after the decimal point: integral floats
   print as "0.0", not "0." *)
let test_json_integral_floats () =
  List.iter
    (fun (f, printed) ->
      let s = Json.to_string (Json.Float f) in
      check_string (printed ^ " prints") (printed ^ "\n") s;
      match Json.parse s with
      | Ok (Json.Float g) ->
          check_bool (printed ^ " parses back") true (Float_cmp.exact_eq f g)
      | Ok _ -> Alcotest.fail "not a float"
      | Error e -> Alcotest.fail e)
    [ (0., "0.0"); (9638., "9638.0"); (-3., "-3.0") ]

(* bytes >= 0x80 pass through raw (UTF-8 such as the lint messages' em
   dash); control bytes print as short escapes or \u00XX *)
let test_json_bytes () =
  let roundtrip s =
    let printed = Json.to_string (Json.Str s) in
    (match Json.parse printed with
    | Ok (Json.Str s') -> check_string "parse inverts print" s s'
    | Ok _ -> Alcotest.fail "not a string"
    | Error e -> Alcotest.fail e);
    printed
  in
  check_string "utf-8 raw" "\"caf\xc3\xa9 \xe2\x80\x94 ok\"\n"
    (roundtrip "caf\xc3\xa9 \xe2\x80\x94 ok");
  check_string "control bytes escaped"
    "\"\\u0000\\u0007\\t\\n\\r\\u001b\\u007f\"\n"
    (roundtrip "\000\007\t\n\r\027\127")

let () =
  Alcotest.run "rt_prelude"
    [
      ( "float_cmp",
        [
          Alcotest.test_case "approx_eq" `Quick test_approx_eq;
          Alcotest.test_case "leq/geq/lt/gt" `Quick test_leq_geq;
          Alcotest.test_case "clamp" `Quick test_clamp;
        ] );
      ( "math_util",
        [
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "checked lcm overflow guard" `Quick
            test_lcm_checked;
          Alcotest.test_case "ranges" `Quick test_ranges;
          Alcotest.test_case "golden section" `Quick test_golden_section;
          Alcotest.test_case "bisect root" `Quick test_bisect_root;
          Alcotest.test_case "bisect decreasing" `Quick test_bisect_decreasing;
          prop_golden_section_beats_samples;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic aggregates" `Quick test_stats_basic;
          Alcotest.test_case "percentile" `Quick test_percentile;
          prop_mean_bounds;
          prop_summary_consistent;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "split streams differ" `Quick
            test_split_streams_differ;
          Alcotest.test_case "shuffle is a permutation" `Quick
            test_shuffle_permutation;
          Alcotest.test_case "uunifast sums" `Quick test_uunifast_sums;
          prop_uunifast;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "csv" `Quick test_table_csv;
          Alcotest.test_case "float rows" `Quick test_float_row;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip + canonical" `Quick
            test_json_roundtrip;
          Alcotest.test_case "int/float distinction" `Quick
            test_json_int_float_distinct;
          Alcotest.test_case "parse errors" `Quick test_json_errors;
          prop_json_float_exact;
          Alcotest.test_case "utf-8 and control bytes" `Quick test_json_bytes;
          Alcotest.test_case "integral floats keep a digit" `Quick
            test_json_integral_floats;
        ] );
    ]
