module Fc = Rt_prelude.Float_cmp

open Rt_core

let proc = Rt_power.Processor.cubic ()

let instance ~seed ~n ~m ~load =
  let rng = Rt_prelude.Rng.create ~seed in
  let tasks =
    Rt_task.Gen.frame_tasks_with_load rng ~n ~m ~s_max:1. ~frame_length:1000.
      ~load
  in
  Rt_task.Taskset.items_of_frames ~frame_length:1000. tasks
  |> Rt_task.Penalty.assign
       (Rt_task.Penalty.Proportional { factor = 1.5; jitter = 0.3 })
       rng ~proc ~horizon:1000.

let empty_problem ~m =
  match Problem.make ~proc ~m ~horizon:1000. [] with
  | Ok p -> p
  | Error e -> invalid_arg e

let e16_graceful_degradation ?(seeds = 20) () =
  let seed_list = Runner.seeds ~base:1800 ~n:seeds in
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
        "load";
        "multi/binary (greedy, n=24 m=4)";
        "multi/binary (exact, n=4 m=1)";
        "degraded tasks %";
      ]
  in
  List.fold_left
    (fun t load ->
      let greedy_ratio_and_degraded seed =
        let items = instance ~seed ~n:24 ~m:4 ~load in
        let p = empty_problem ~m:4 in
        let binary = List.map Qos.of_item items in
        let multi = List.map (Qos.graceful ~steps:4 ~curve:2.) items in
        let sb = Qos.greedy_degrade p binary in
        let sm = Qos.greedy_degrade p multi in
        match (Qos.cost p binary sb, Qos.cost p multi sm) with
        | Ok cb, Ok cm when Fc.exact_gt cb 0. ->
            let degraded =
              List.length
                (List.filter
                   (fun c ->
                     c.Qos.level_index > 0 && c.Qos.level_index < 3)
                   sm.Qos.choices)
            in
            Some (cm /. cb, 100. *. float_of_int degraded /. 24.)
        | _ -> None
      in
      (* both greedy columns come from one degradation run per seed *)
      let greedy = Hashtbl.create (List.length seed_list) in
      List.iter
        (fun seed -> Hashtbl.replace greedy seed (greedy_ratio_and_degraded seed))
        seed_list;
      let greedy_mean pick =
        Runner.mean_over ~seeds:seed_list (fun seed ->
            match Hashtbl.find greedy seed with
            | Some pair -> pick pair
            | None -> Float.nan)
      in
      let greedy_ratio = greedy_mean fst in
      let degraded_pct = greedy_mean snd in
      let exact_ratio =
        Runner.mean_over ~seeds:seed_list (fun seed ->
            let items = instance ~seed:(seed + 7) ~n:4 ~m:1 ~load in
            let p = empty_problem ~m:1 in
            let binary = List.map Qos.of_item items in
            let multi = List.map (Qos.graceful ~steps:4 ~curve:2.) items in
            match
              ( Qos.cost p binary (Qos.exhaustive p binary),
                Qos.cost p multi (Qos.exhaustive p multi) )
            with
            | Ok cb, Ok cm when Fc.exact_gt cb 0. -> cm /. cb
            | _ -> Float.nan)
      in
      Rt_prelude.Tablefmt.add_float_row t
        (Printf.sprintf "%.1f" load)
        [ greedy_ratio; exact_ratio; degraded_pct ])
    t
    [ 0.6; 1.0; 1.4; 1.8; 2.2 ]
