module Fc = Rt_prelude.Float_cmp

open Rt_task

let horizon = Instances.default_frame_length
let big_penalty = 1e9

let cubic = Rt_power.Processor.cubic ()

let homog_workload ~seed ~n ~m =
  let rng = Rt_prelude.Rng.create ~seed in
  let tasks =
    Gen.frame_tasks_with_load rng ~n ~m ~s_max:1. ~frame_length:horizon
      ~load:0.6
  in
  Taskset.items_of_frames ~frame_length:horizon tasks

let bucket_cost u =
  match Rt_speed.Energy_rate.energy cubic ~u ~horizon with
  | Some e -> e
  | None -> invalid_arg "exp_substrate: bucket over capacity"

let partition_energy part =
  Array.fold_left
    (fun acc u -> acc +. bucket_cost u)
    0.
    (Rt_partition.Partition.loads part)

(* exact minimum-energy partition: rejection priced out by a huge penalty *)
let optimal_energy ~m items =
  let priced =
    List.map
      (fun (it : Task.item) ->
        Task.item ~penalty:big_penalty ~id:it.item_id ~weight:it.weight ())
      items
  in
  match
    Rt_exact.Search.solve ~node_budget:Rt_exact.Search.node_limit ~m
      ~capacity:1. ~bucket_cost priced
  with
  | Error e -> invalid_arg ("exp_substrate: " ^ e)
  | Ok { Rt_exact.Search.exhausted = true; _ } ->
      invalid_arg "exp_substrate: node limit exceeded"
  | Ok { Rt_exact.Search.best = s; _ } ->
      if s.Rt_exact.Search.rejected <> [] then Float.nan
      else s.Rt_exact.Search.cost

let e7_ltf_vs_rand ?(seeds = 15) () =
  let seed_list = Runner.seeds ~base:700 ~n:seeds in
  let t =
    Rt_prelude.Tablefmt.create
      ~aligns:
        [ Rt_prelude.Tablefmt.Left; Rt_prelude.Tablefmt.Right; Rt_prelude.Tablefmt.Right ]
      [ "m,n"; "LTF / OPT"; "RAND / OPT" ]
  in
  List.fold_left
    (fun t (m, n) ->
      let per alg =
        Runner.mean_over ~seeds:seed_list ~f:(fun seed ->
            let items = homog_workload ~seed:(seed + (31 * m) + n) ~n ~m in
            let opt = optimal_energy ~m items in
            if Float.is_nan opt || Fc.exact_le opt 0. then Float.nan
            else begin
              let part = alg ~m items in
              if
                Rt_prelude.Float_cmp.gt
                  (Rt_partition.Partition.makespan part)
                  1.
              then Float.nan
              else partition_energy part /. opt
            end)
      in
      Rt_prelude.Tablefmt.add_float_row t
        (Printf.sprintf "m=%d n=%d" m n)
        [
          per (fun ~m items -> Rt_partition.Heuristics.ltf ~m items);
          per (fun ~m items -> Rt_partition.Heuristics.greedy_unsorted ~m items);
        ])
    t
    [ (3, 9); (3, 12); (4, 10); (4, 12); (5, 10) ]

(* ------------------------------------------------------------------ *)
(* E7b: heterogeneous power characteristics *)

let hetero_proc = Rt_power.Processor.xscale ~dormancy:Rt_power.Processor.Dormant_disable

let hetero_workload ~seed ~n ~m =
  let rng = Rt_prelude.Rng.create ~seed in
  let tasks =
    Gen.frame_tasks_with_load rng ~n ~m ~s_max:1. ~frame_length:horizon
      ~load:0.5
  in
  Taskset.items_of_frames ~frame_length:horizon tasks
  |> Gen.heterogeneous_power_factors rng ~lo:0.5 ~hi:3.

let hetero_partition_energy part =
  match Rt_partition.Hetero.total_energy hetero_proc ~horizon part with
  | Some e -> e
  | None -> Float.nan

(* symmetry-broken exhaustive search over assignments, costed by the
   per-processor KKT speed assignment *)
let hetero_optimal ~m items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let buckets = Array.make m [] in
  let best = ref Float.infinity in
  let rec go i used =
    if i = n then begin
      let cost = hetero_partition_energy (Rt_partition.Partition.of_buckets buckets) in
      if not (Float.is_nan cost) then best := Float.min !best cost
    end
    else
      for j = 0 to min (m - 1) used do
        buckets.(j) <- arr.(i) :: buckets.(j);
        go (i + 1) (max used (j + 1));
        buckets.(j) <- List.tl buckets.(j)
      done
  in
  go 0 0;
  if Float.is_finite !best then !best else Float.nan

let e7_hetero_leuf ?(seeds = 10) () =
  let seed_list = Runner.seeds ~base:800 ~n:seeds in
  let m = 3 in
  let t =
    Rt_prelude.Tablefmt.create
      ~aligns:
        [ Rt_prelude.Tablefmt.Left; Rt_prelude.Tablefmt.Right; Rt_prelude.Tablefmt.Right ]
      [ "eta (n/m)"; "LEUF / OPT"; "RAND / OPT" ]
  in
  List.fold_left
    (fun t eta ->
      let n = int_of_float (eta *. float_of_int m) in
      let per alg =
        Runner.mean_over ~seeds:seed_list ~f:(fun seed ->
            let items = hetero_workload ~seed:(seed + n) ~n ~m in
            let opt = hetero_optimal ~m items in
            if Float.is_nan opt || Fc.exact_le opt 0. then Float.nan
            else begin
              let e = hetero_partition_energy (alg items) in
              if Float.is_nan e then Float.nan else e /. opt
            end)
      in
      Rt_prelude.Tablefmt.add_float_row t
        (Printf.sprintf "%.1f" eta)
        [
          per (fun items -> Rt_partition.Hetero.leuf hetero_proc ~m ~horizon items);
          per (fun items -> Rt_partition.Heuristics.greedy_unsorted ~m items);
        ])
    t [ 1.0; 2.0; 3.0 ]
