module Fc = Rt_prelude.Float_cmp

let model = Rt_power.Power_model.make ~coeff:1. ~alpha:3. ()

let e14_sync_rails ?(seeds = 30) () =
  let seed_list = Runner.seeds ~base:1600 ~n:seeds in
  let t =
    Rt_prelude.Tablefmt.create
      ~aligns:
        [ Rt_prelude.Tablefmt.Left; Rt_prelude.Tablefmt.Right; Rt_prelude.Tablefmt.Right ]
      [ "cores, imbalance"; "peak common speed"; "sync / independent" ]
  in
  let rows =
    List.concat_map
      (fun m -> List.map (fun spread -> (m, spread)) [ 0.0; 0.5; 1.0 ])
      [ 2; 4; 8 ]
  in
  List.fold_left
    (fun t (m, spread) ->
      let sample seed =
        let rng = Rt_prelude.Rng.create ~seed:(seed + (m * 17)) in
        (* per-core workloads around 0.5·window, spread by ±spread/2 *)
        Array.init m (fun _ ->
            let base = 0.5 in
            let jitter =
              Rt_prelude.Rng.float rng ~lo:(-.spread /. 2.) ~hi:(spread /. 2.)
            in
            Float.max 0.05 (base +. (jitter *. base)))
      in
      let ratio =
        Runner.mean_over ~seeds:seed_list (fun seed ->
            let workloads = sample seed in
            match Rt_speed.Sync_global.solve model ~window:1. ~workloads with
            | Error _ -> Float.nan
            | Ok s ->
                let indep =
                  Rt_speed.Sync_global.energy_independent model ~window:1.
                    ~workloads
                in
                if Fc.exact_le indep 0. then Float.nan
                else s.Rt_speed.Sync_global.energy /. indep)
      in
      let peak =
        Runner.mean_over ~seeds:seed_list (fun seed ->
            match
              Rt_speed.Sync_global.solve model ~window:1.
                ~workloads:(sample seed)
            with
            | Ok s -> s.Rt_speed.Sync_global.peak_speed
            | Error _ -> Float.nan)
      in
      Rt_prelude.Tablefmt.add_float_row t
        (Printf.sprintf "m=%d spread=%.1f" m spread)
        [ peak; ratio ])
    t rows
