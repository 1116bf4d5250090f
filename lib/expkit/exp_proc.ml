module Fc = Rt_prelude.Float_cmp

open Rt_task

(* accept-all energy of a workload on m copies of a processor; penalties are
   irrelevant here so items carry none and LTF accepts everything (loads
   stay under capacity at the loads E5/E6 use) *)
let partition_energy ~proc ~m ~horizon items =
  let part = Rt_partition.Heuristics.ltf ~m items in
  let loads = Rt_partition.Partition.loads part in
  Array.fold_left
    (fun acc u ->
      match Rt_speed.Energy_rate.energy proc ~u ~horizon with
      | Some e -> acc +. e
      | None -> Float.nan)
    0. loads

let workload ~seed ~n ~m ~load =
  let rng = Rt_prelude.Rng.create ~seed in
  let tasks =
    Gen.frame_tasks_with_load rng ~n ~m ~s_max:1.
      ~frame_length:Instances.default_frame_length ~load
  in
  Taskset.items_of_frames ~frame_length:Instances.default_frame_length tasks

let e5_domains =
  [
    ("ideal", Rt_power.Processor.cubic ());
    ("2 levels", Rt_power.Processor.uniform_levels ~n:2 ());
    ("3 levels", Rt_power.Processor.uniform_levels ~n:3 ());
    ("5 levels", Rt_power.Processor.uniform_levels ~n:5 ());
    ("10 levels", Rt_power.Processor.uniform_levels ~n:10 ());
    ( "xscale grid",
      Rt_power.Processor.make
        ~model:(Rt_power.Power_model.make ~coeff:1. ~alpha:3. ())
        ~domain:(Rt_power.Processor.Levels [| 0.15; 0.4; 0.6; 0.8; 1.0 |])
        ~dormancy:Rt_power.Processor.Dormant_disable );
  ]

let e5_discrete_levels ?(seeds = 25) () =
  let seed_list = Runner.seeds ~base:500 ~n:seeds in
  let ideal = List.assoc "ideal" e5_domains in
  let t =
    Rt_prelude.Tablefmt.create
      ~aligns:[ Rt_prelude.Tablefmt.Left; Rt_prelude.Tablefmt.Right; Rt_prelude.Tablefmt.Right ]
      [ "speed domain"; "ratio @ load 0.4"; "ratio @ load 0.7" ]
  in
  List.fold_left
    (fun t (name, proc) ->
      let ratio_at load =
        Runner.mean_over ~seeds:seed_list (fun seed ->
            let items = workload ~seed ~n:24 ~m:4 ~load in
            let e =
              partition_energy ~proc ~m:4
                ~horizon:Instances.default_frame_length items
            in
            let e0 =
              partition_energy ~proc:ideal ~m:4
                ~horizon:Instances.default_frame_length items
            in
            if Float.is_nan e || Fc.exact_le e0 0. then Float.nan else e /. e0)
      in
      Rt_prelude.Tablefmt.add_float_row t name
        [ ratio_at 0.4; ratio_at 0.7 ])
    t e5_domains

let e6_leakage ?(seeds = 25) () =
  let seed_list = Runner.seeds ~base:600 ~n:seeds in
  let t =
    Rt_prelude.Tablefmt.create
      ~aligns:
        [ Rt_prelude.Tablefmt.Left; Rt_prelude.Tablefmt.Right; Rt_prelude.Tablefmt.Right ]
      [ "p_ind"; "critical speed"; "stretch / clamped" ]
  in
  List.fold_left
    (fun t p_ind ->
      let model = Rt_power.Power_model.make ~p_ind ~coeff:1.52 ~alpha:3. () in
      let clamped =
        Rt_power.Processor.make ~model
          ~domain:(Rt_power.Processor.Ideal { s_min = 0.; s_max = 1. })
          ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })
      in
      let s_crit = Rt_power.Processor.critical_speed clamped in
      let ratio =
        Runner.mean_over ~seeds:seed_list (fun seed ->
            let items = workload ~seed ~n:20 ~m:4 ~load:0.15 in
            let part = Rt_partition.Heuristics.ltf ~m:4 items in
            let loads = Rt_partition.Partition.loads part in
            (* stretch-to-deadline: run continuously at u, awake all frame *)
            let stretch =
              Array.fold_left
                (fun acc u ->
                  acc
                  +. (Instances.default_frame_length
                     *. Rt_power.Power_model.power model u))
                0. loads
            in
            let opt =
              Array.fold_left
                (fun acc u ->
                  match
                    Rt_speed.Energy_rate.energy clamped ~u
                      ~horizon:Instances.default_frame_length
                  with
                  | Some e -> acc +. e
                  | None -> Float.nan)
                0. loads
            in
            if Float.is_nan opt || Fc.exact_le opt 0. then Float.nan
            else stretch /. opt)
      in
      Rt_prelude.Tablefmt.add_float_row t (Printf.sprintf "%.2f" p_ind)
        [ s_crit; ratio ])
    t
    [ 0.0; 0.05; 0.1; 0.2; 0.4 ]
