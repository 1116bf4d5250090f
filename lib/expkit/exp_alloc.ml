module Fc = Rt_prelude.Float_cmp

let e11_rounding ?(seeds = 12) () =
  let seed_list = Runner.seeds ~base:1300 ~n:seeds in
  let t =
    Rt_prelude.Tablefmt.create
      ~aligns:
        [
          Rt_prelude.Tablefmt.Left;
          Rt_prelude.Tablefmt.Right;
          Rt_prelude.Tablefmt.Right;
          Rt_prelude.Tablefmt.Right;
        ]
      [
        "types,tasks,gamma";
        "ROUNDING / LP";
        "E-ROUNDING / LP";
        "budget overruns %";
      ]
  in
  let rows =
    (* the (types × tasks) grid at gamma = 0.2, then the gamma sweep *)
    List.map (fun (ty, n) -> (ty, n, 0.2)) [ (2, 6); (3, 12); (4, 20); (6, 30) ]
    @ List.map (fun g -> (4, 20, g)) [ 0.05; 0.4; 0.7; 1.0 ]
  in
  List.fold_left
    (fun t (n_types, n_tasks, gamma) ->
      let per alg =
        Runner.mean_over ~seeds:seed_list (fun seed ->
            let rng = Rt_prelude.Rng.create ~seed:(seed + (n_types * 1000) + n_tasks) in
            match
              Rt_alloc.Alloc.gen rng ~n_types ~n_tasks ~instance_gamma:gamma
            with
            | Error _ -> Float.nan
            | Ok inst -> (
                match (Rt_alloc.Rounding.lp_lower_bound inst, alg inst) with
                | Some lb, Ok b when Fc.exact_gt lb 0. ->
                    b.Rt_alloc.Alloc.alloc_cost /. lb
                | _ -> Float.nan))
      in
      (* the published rounding does not re-enforce the energy budget;
         report how often the realized energy exceeds it *)
      let overruns =
        Runner.mean_over ~seeds:seed_list (fun seed ->
            let rng = Rt_prelude.Rng.create ~seed:(seed + (n_types * 1000) + n_tasks) in
            match
              Rt_alloc.Alloc.gen rng ~n_types ~n_tasks ~instance_gamma:gamma
            with
            | Error _ -> Float.nan
            | Ok inst -> (
                match Rt_alloc.Rounding.e_rounding inst with
                | Error _ -> Float.nan
                | Ok b ->
                    if
                      (* tolerant: budget violations within rounding noise
                         do not count *)
                      Fc.gt b.Rt_alloc.Alloc.realized_energy
                        inst.Rt_alloc.Alloc.energy_budget
                    then 100.
                    else 0.))
      in
      Rt_prelude.Tablefmt.add_float_row t
        (Printf.sprintf "m=%d n=%d g=%.2f" n_types n_tasks gamma)
        [
          per Rt_alloc.Rounding.rounding;
          per Rt_alloc.Rounding.e_rounding;
          overruns;
        ])
    t rows

let leaky_ideal =
  Rt_power.Processor.make
    ~model:(Rt_power.Power_model.make ~p_ind:0.08 ~coeff:1.52 ~alpha:3. ())
    ~domain:(Rt_power.Processor.Ideal { s_min = 0.; s_max = 1. })
    ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })

let e12_rs_leuf ?(seeds = 15) () =
  let seed_list = Runner.seeds ~base:1400 ~n:seeds in
  let frame = 1000. in
  let t =
    Rt_prelude.Tablefmt.create
      ~aligns:
        [ Rt_prelude.Tablefmt.Left; Rt_prelude.Tablefmt.Right; Rt_prelude.Tablefmt.Right ]
      [ "n,gamma"; "First-Fit / m*"; "RS-LEUF / m*" ]
  in
  let rows =
    List.concat_map
      (fun n -> List.map (fun g -> (n, g)) [ 0.2; 0.5; 0.8 ])
      [ 5; 15; 30 ]
  in
  List.fold_left
    (fun t (n, gamma) ->
      let run seed =
        let rng = Rt_prelude.Rng.create ~seed:(seed + n) in
        let items =
          Rt_task.Gen.items rng ~n ~weight_lo:0.05 ~weight_hi:0.55
        in
        (* budget interpolates between the per-task-minimum (gamma 0) and
           running everything at top speed (gamma 1) *)
        let model = leaky_ideal.Rt_power.Processor.model in
        let e_at s =
          List.fold_left
            (fun acc (it : Rt_task.Task.item) ->
              acc
              +. (it.Rt_task.Task.weight *. frame
                 *. Rt_power.Power_model.energy_per_cycle model s))
            0. items
        in
        let s_crit = Rt_power.Processor.critical_speed leaky_ideal in
        let e_lo = e_at (Float.max s_crit 0.05) and e_hi = e_at 1. in
        let budget = e_lo +. (gamma *. (e_hi -. e_lo)) in
        match
          ( Rt_alloc.Rs_leuf.pooled_min_processors ~proc:leaky_ideal ~frame
              ~budget items,
            Rt_alloc.Rs_leuf.first_fit ~proc:leaky_ideal ~frame ~budget items,
            Rt_alloc.Rs_leuf.rs_leuf ~proc:leaky_ideal ~frame ~budget items )
        with
        | Ok (m_star, _), Ok ff, Ok rs when m_star > 0 ->
            Some
              ( float_of_int ff.Rt_alloc.Rs_leuf.processors
                /. float_of_int m_star,
                float_of_int rs.Rt_alloc.Rs_leuf.processors
                /. float_of_int m_star )
        | _ -> None
      in
      let ff =
        Runner.mean_over ~seeds:seed_list (fun seed ->
            match run seed with Some (ff, _) -> ff | None -> Float.nan)
      in
      let rs =
        Runner.mean_over ~seeds:seed_list (fun seed ->
            match run seed with Some (_, rs) -> rs | None -> Float.nan)
      in
      Rt_prelude.Tablefmt.add_float_row t
        (Printf.sprintf "n=%d g=%.1f" n gamma)
        [ ff; rs ])
    t rows
