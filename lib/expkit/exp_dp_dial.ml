module Fc = Rt_prelude.Float_cmp

open Rt_task

let proc = Rt_power.Processor.cubic ()

let gen_tasks seed =
  let rng = Rt_prelude.Rng.create ~seed in
  let n = Rt_prelude.Rng.int rng ~lo:8 ~hi:16 in
  List.map
    (fun id ->
      Task.frame
        ~penalty:(Rt_prelude.Rng.float rng ~lo:1. ~hi:80.)
        ~id
        ~cycles:(Rt_prelude.Rng.int rng ~lo:60 ~hi:400)
        ())
    (Rt_prelude.Math_util.range 0 (n - 1))

let e17_dp_dial ?(seeds = 25) () =
  let seed_list = Runner.seeds ~base:1900 ~n:seeds in
  let t =
    Rt_prelude.Tablefmt.create
      ~aligns:
        [
          Rt_prelude.Tablefmt.Left;
          Rt_prelude.Tablefmt.Right;
          Rt_prelude.Tablefmt.Right;
          Rt_prelude.Tablefmt.Right;
        ]
      [ "epsilon"; "mean cost ratio"; "worst cost ratio"; "mean table shrink" ]
  in
  List.fold_left
    (fun t epsilon ->
      let ratios =
        List.filter_map
          (fun seed ->
            let tasks = gen_tasks seed in
            match
              ( Rt_core.Uni_dp.exact ~proc ~frame_length:1000. tasks,
                Rt_core.Uni_dp.scaled ~epsilon ~proc ~frame_length:1000. tasks
              )
            with
            | Ok e, Ok s when Fc.exact_gt e.Rt_core.Uni_dp.cost 0. ->
                Some (s.Rt_core.Uni_dp.cost /. e.Rt_core.Uni_dp.cost)
            | _ -> None)
          seed_list
      in
      let shrink =
        Runner.mean_over ~seeds:seed_list (fun seed ->
            let tasks = gen_tasks seed in
            let cycles =
              Array.of_list (List.map (fun (tk : Task.frame) -> tk.cycles) tasks)
            in
            float_of_int
              (Rt_exact.Knapsack.scale_for_epsilon ~epsilon ~cycles))
      in
      match ratios with
      | [] -> t
      | _ ->
          Rt_prelude.Tablefmt.add_float_row t
            (Printf.sprintf "%.2f" epsilon)
            [
              Rt_prelude.Stats.mean ratios;
              Rt_prelude.Stats.maximum ratios;
              shrink;
            ])
    t
    [ 0.01; 0.1; 0.25; 0.5; 1.0; 2.0 ]
