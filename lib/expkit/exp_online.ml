module Fc = Rt_prelude.Float_cmp

let proc =
  Rt_power.Processor.xscale
    ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })

let policies =
  [
    ("admit-all", Rt_online.Admission.Admit_all);
    ("profitable", Rt_online.Admission.Profitable);
    ("threshold", Rt_online.Admission.Density_threshold 1.0);
  ]

let e13_online_admission ?(seeds = 20) () =
  let seed_list = Runner.seeds ~base:1500 ~n:seeds in
  let headers =
    ("offered load" :: List.map fst policies) @ [ "accept%(admit-all)" ]
  in
  let t =
    Rt_prelude.Tablefmt.create
      ~aligns:(Rt_prelude.Tablefmt.Left :: List.map (fun _ -> Rt_prelude.Tablefmt.Right) (List.tl headers))
      headers
  in
  let mean_cycles = 25. in
  List.fold_left
    (fun t load ->
      let rate = load /. mean_cycles in
      let run seed policy =
        let rng =
          Rt_prelude.Rng.create ~seed:(seed + int_of_float (load *. 100.))
        in
        let jobs =
          Rt_online.Job.stream rng ~n:120 ~rate ~s_max:1. ~mean_cycles
            ~slack_lo:1.2 ~slack_hi:4. ~penalty_factor:1.3
        in
        let lb = Rt_online.Admission.lower_bound ~proc jobs in
        match Rt_online.Admission.simulate ~proc ~policy jobs with
        | Error _ -> None
        | Ok o -> Some (o, lb)
      in
      let ratios =
        List.map
          (fun (_, policy) ->
            Runner.mean_over ~seeds:seed_list (fun seed ->
                match run seed policy with
                | Some (o, lb) when Fc.exact_gt lb 0. ->
                    o.Rt_online.Admission.total /. lb
                | _ -> Float.nan))
          policies
      in
      let acceptance =
        Runner.mean_over ~seeds:seed_list (fun seed ->
            match run seed Rt_online.Admission.Admit_all with
            | Some (o, _) ->
                100.
                *. float_of_int (List.length o.Rt_online.Admission.admitted)
                /. 120.
            | None -> Float.nan)
      in
      Rt_prelude.Tablefmt.add_float_row t
        (Printf.sprintf "%.1f" load)
        (ratios @ [ acceptance ]))
    t
    [ 0.3; 0.6; 0.9; 1.2; 1.6; 2.0 ]
