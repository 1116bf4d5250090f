module Fc = Rt_prelude.Float_cmp

open Rt_task

type policy = { ff : bool; procrastinate : bool }

let policy_energy ~proc ~horizon ~jobs_on policy part =
  let part =
    if policy.ff then Rt_partition.La_ltf.consolidate ~proc part else part
  in
  let s_crit = Rt_power.Processor.critical_speed proc in
  let model = proc.Rt_power.Processor.model in
  let m = Rt_partition.Partition.m part in
  let total = ref 0. in
  for j = 0 to m - 1 do
    let bucket = Rt_partition.Partition.bucket part j in
    let u = Rt_partition.Partition.load part j in
    if Fc.exact_gt u 0. then begin
      let s = Float.min (Rt_power.Processor.s_max proc) (Float.max u s_crit) in
      let busy = horizon *. u /. s in
      let exec = busy *. Rt_power.Power_model.power model s in
      let idle = horizon -. busy in
      let gaps = if policy.procrastinate then 1 else max 1 (jobs_on bucket) in
      let idle_e =
        if Fc.exact_le idle 0. then 0.
        else
          Rt_speed.Procrastinate.idle_energy_fragmented proc ~total_idle:idle
            ~gaps
      in
      total := !total +. exec +. idle_e
    end
    (* empty processors sleep through the horizon: zero *)
  done;
  !total

(* everything executes at the critical speed with all idle time asleep *)
let lower_bound ~proc ~horizon items =
  let s_crit = Rt_power.Processor.critical_speed proc in
  let model = proc.Rt_power.Processor.model in
  let per_cycle = Rt_power.Power_model.energy_per_cycle model s_crit in
  List.fold_left
    (fun acc (it : Task.item) -> acc +. (it.weight *. horizon *. per_cycle))
    0. items

let e8_leakage_aware ?(seeds = 20) () =
  let seed_list = Runner.seeds ~base:900 ~n:seeds in
  let policies =
    [
      ("LA+LTF", { ff = false; procrastinate = false });
      ("LA+LTF+PROC", { ff = false; procrastinate = true });
      ("LA+LTF+FF", { ff = true; procrastinate = false });
      ("LA+LTF+FF+PROC", { ff = true; procrastinate = true });
    ]
  in
  let headers = "n (E_sw)" :: List.map fst policies in
  let t =
    Rt_prelude.Tablefmt.create
      ~aligns:(Rt_prelude.Tablefmt.Left :: List.map (fun _ -> Rt_prelude.Tablefmt.Right) (List.tl headers))
      headers
  in
  let m = 8 in
  let rows =
    List.concat_map
      (fun e_sw -> List.map (fun n -> (n, e_sw)) [ 8; 12; 16; 20; 24 ])
      [ 4.; 12. ]
  in
  List.fold_left
    (fun t (n, e_sw) ->
      let proc =
        Rt_power.Processor.make
          ~model:(Rt_power.Power_model.make ~p_ind:0.08 ~coeff:1.52 ~alpha:3. ())
          ~domain:(Rt_power.Processor.Ideal { s_min = 0.; s_max = 1. })
          ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 5.; e_sw })
      in
      let row =
        List.map
          (fun (_, policy) ->
            Runner.mean_over ~seeds:seed_list (fun seed ->
                let rng =
                  Rt_prelude.Rng.create ~seed:(seed + n + int_of_float e_sw)
                in
                let tasks =
                  Gen.periodic_tasks rng ~n ~total_util:1.2
                    ~periods:Gen.default_periods
                in
                let horizon = float_of_int (Taskset.hyper_period tasks) in
                let items = Taskset.items_of_periodics tasks in
                let part = Rt_partition.Heuristics.ltf ~m items in
                let jobs_on bucket =
                  List.fold_left
                    (fun acc (it : Task.item) ->
                      match
                        List.find_opt
                          (fun (tk : Task.periodic) -> tk.id = it.item_id)
                          tasks
                      with
                      | Some tk ->
                          acc + int_of_float (horizon /. float_of_int tk.period)
                      | None -> acc)
                    0 bucket
                in
                let lb = lower_bound ~proc ~horizon items in
                if Fc.exact_le lb 0. then Float.nan
                else policy_energy ~proc ~horizon ~jobs_on policy part /. lb))
          policies
      in
      Rt_prelude.Tablefmt.add_float_row t
        (Printf.sprintf "n=%d (E_sw=%.0f)" n e_sw)
        row)
    t rows
