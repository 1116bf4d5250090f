module Fc = Rt_prelude.Float_cmp

let proc = Rt_power.Processor.cubic ()
let frame = Instances.default_frame_length

let e15_partition_vs_migration ?(seeds = 30) () =
  let seed_list = Runner.seeds ~base:1700 ~n:seeds in
  let m = 4 in
  let t =
    Rt_prelude.Tablefmt.create
      ~aligns:
        [ Rt_prelude.Tablefmt.Left; Rt_prelude.Tablefmt.Right; Rt_prelude.Tablefmt.Right ]
      [ "tasks per proc"; "LTF / migratory"; "unsorted / migratory" ]
  in
  List.fold_left
    (fun t per_proc ->
      let n = m * per_proc in
      let ratio alg =
        Runner.mean_over ~seeds:seed_list (fun seed ->
            let rng = Rt_prelude.Rng.create ~seed:(seed + n) in
            let tasks =
              Rt_task.Gen.frame_tasks_with_load rng ~n ~m ~s_max:1.
                ~frame_length:frame ~load:0.6
            in
            let items = Rt_task.Taskset.items_of_frames ~frame_length:frame tasks in
            match
              Rt_partition.Migration.energy_lower_bound ~proc ~m ~frame items
            with
            | None -> Float.nan
            | Some lb when Fc.exact_le lb 0. -> Float.nan
            | Some lb ->
                let part = alg items in
                if
                  Rt_prelude.Float_cmp.gt
                    (Rt_partition.Partition.makespan part)
                    1.
                then Float.nan
                else begin
                  let e =
                    Array.fold_left
                      (fun acc u ->
                        match
                          Rt_speed.Energy_rate.energy proc ~u ~horizon:frame
                        with
                        | Some e -> acc +. e
                        | None -> Float.nan)
                      0.
                      (Rt_partition.Partition.loads part)
                  in
                  e /. lb
                end)
      in
      Rt_prelude.Tablefmt.add_float_row t
        (Printf.sprintf "%d" per_proc)
        [
          ratio (fun items -> Rt_partition.Heuristics.ltf ~m items);
          ratio (fun items -> Rt_partition.Heuristics.greedy_unsorted ~m items);
        ])
    t [ 1; 2; 3; 5; 8 ]
