module Fc = Rt_prelude.Float_cmp

(* The DVS PE is ideal with a wide speed range (the published setting
   assumes speeds can always absorb the kept workload); the non-DVS PE's
   power is normalized against the XScale-like curve. *)
let dvs =
  Rt_power.Processor.make
    ~model:(Rt_power.Power_model.make ~coeff:1.52 ~alpha:3. ())
    ~domain:(Rt_power.Processor.Ideal { s_min = 0.; s_max = 1e6 })
    ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })

let system ~alt_kind =
  match
    Rt_twope.Twope.system ~dvs ~alt_power:0.588 ~alt_kind ~horizon:1000.
  with
  | Ok s -> s
  | Error e -> invalid_arg e

let couplings =
  [
    ("inverse", fun rng ~n ~total_alt -> Rt_twope.Twope.gen_inverse rng ~n ~total_alt);
    ( "proportional",
      fun rng ~n ~total_alt -> Rt_twope.Twope.gen_proportional rng ~n ~total_alt
    );
  ]

let ratio_table ~base_seed ~seeds ~alt_kind ~algorithms =
  let seed_list = Runner.seeds ~base:base_seed ~n:seeds in
  let sys = system ~alt_kind in
  let headers = "U2* (coupling)" :: List.map fst algorithms in
  let t =
    Rt_prelude.Tablefmt.create
      ~aligns:(Rt_prelude.Tablefmt.Left :: List.map (fun _ -> Rt_prelude.Tablefmt.Right) (List.tl headers))
      headers
  in
  let rows =
    List.concat_map
      (fun (cname, gen) ->
        List.map (fun u2 -> (cname, gen, u2)) [ 1.2; 1.6; 2.0; 2.4 ])
      couplings
  in
  List.fold_left
    (fun t (cname, gen, u2) ->
      let row =
        List.map
          (fun (_, alg) ->
            Runner.mean_over ~seeds:seed_list (fun seed ->
                let rng = Rt_prelude.Rng.create ~seed in
                let tasks = gen rng ~n:10 ~total_alt:u2 in
                let opt =
                  match
                    Rt_twope.Twope.cost sys (Rt_twope.Twope.exhaustive sys tasks)
                  with
                  | Ok c -> c
                  | Error _ -> Float.nan
                in
                if Float.is_nan opt || Fc.exact_le opt 0. then Float.nan
                else
                  match Rt_twope.Twope.cost sys (alg sys tasks) with
                  | Ok c -> c /. opt
                  | Error _ -> Float.nan))
          algorithms
      in
      Rt_prelude.Tablefmt.add_float_row t
        (Printf.sprintf "%.1f (%s)" u2 cname)
        row)
    t rows

let e9_workload_independent ?(seeds = 15) () =
  ratio_table ~base_seed:1100 ~seeds ~alt_kind:Rt_twope.Twope.Workload_independent
    ~algorithms:
      [
        ("greedy", Rt_twope.Twope.greedy);
        ("e-greedy", Rt_twope.Twope.e_greedy);
        ("dp", Rt_twope.Twope.dp);
      ]

let e10_workload_dependent ?(seeds = 15) () =
  ratio_table ~base_seed:1200 ~seeds ~alt_kind:Rt_twope.Twope.Workload_dependent
    ~algorithms:
      [
        ("greedy", Rt_twope.Twope.greedy);
        ("s-greedy", Rt_twope.Twope.s_greedy);
      ]
