open Rt_task

type outcome = { processors : int; energy : float }

(* energy of the pooled estimate: execution at s_i = c_i / t_i, leakage
   charged while awake (dormant-enable) or for the whole span per
   processor (dormant-disable, added by callers when comparing builds of
   equal processor counts — both algorithms here report execution energy
   plus per-processor awake overhead) *)
let estimate_energy (proc : Rt_power.Processor.t) ~frame items times =
  let leak =
    Rt_power.Processor.idle_power proc -. Rt_power.Processor.rest_power proc
  in
  List.fold_left
    (fun acc (it : Task.item) ->
      match List.assoc_opt it.item_id times with
      | None -> Float.nan
      | Some t ->
          let cycles = it.weight *. frame in
          let s = cycles /. t in
          acc
          +. (t
             *. (leak
                +. Rt_power.Power_model.dynamic_power proc.model s)))
    0. items

let awake_overhead (proc : Rt_power.Processor.t) ~frame ~processors =
  float_of_int processors *. frame *. Rt_power.Processor.rest_power proc

let feasible_times (proc : Rt_power.Processor.t) ~frame items times =
  let s_max = Rt_power.Processor.s_max proc in
  List.for_all
    (fun (it : Task.item) ->
      match List.assoc_opt it.item_id times with
      | None -> false
      | Some t ->
          Rt_prelude.Float_cmp.leq (it.weight *. frame /. t) s_max)
    items

let pooled_min_processors ~proc ~frame ~budget items =
  if items = [] then Ok (0, [])
  else begin
    let n = List.length items in
    let rec go m =
      if m > n then
        Error "Rs_leuf: energy budget unreachable even one-task-per-processor"
      else begin
        let times = Rt_partition.Hetero.estimated_times proc ~m ~horizon:frame items in
        if not (feasible_times proc ~frame items times) then go (m + 1)
        else begin
          let e =
            estimate_energy proc ~frame items times
            +. awake_overhead proc ~frame ~processors:m
          in
          if Rt_prelude.Float_cmp.leq e budget then Ok (m, times)
          else go (m + 1)
        end
      end
    in
    (* no allocation can use fewer processors than the top-speed load needs *)
    let min_m =
      max 1
        (int_of_float
           (Float.ceil
              (Taskset.total_weight items /. Rt_power.Processor.s_max proc
              -. 1e-9)))
    in
    go min_m
  end

let estimated_utilizations ~frame items times =
  List.filter_map
    (fun (it : Task.item) ->
      Option.map
        (fun t -> (it, t /. frame))
        (List.assoc_opt it.item_id times))
    items

let first_fit ~proc ~frame ~budget items =
  match pooled_min_processors ~proc ~frame ~budget items with
  | Error _ as e -> e
  | Ok (m_star, times) ->
      let utils = estimated_utilizations ~frame items times in
      (* first-fit on estimated utilizations, unbounded bin supply *)
      let bins = ref [] in
      List.iter
        (fun (_, u) ->
          let rec place acc = function
            | [] -> List.rev ((u :: []) :: acc)
            | bin :: rest ->
                let load = List.fold_left ( +. ) 0. bin in
                if Rt_prelude.Float_cmp.leq (load +. u) 1. then
                  List.rev_append acc ((u :: bin) :: rest)
                else place (bin :: acc) rest
          in
          bins := place [] !bins)
        utils;
      let processors = max m_star (List.length !bins) in
      let energy =
        estimate_energy proc ~frame items times
        +. awake_overhead proc ~frame ~processors
      in
      Ok { processors; energy }

let rs_leuf ~proc ~frame ~budget items =
  match pooled_min_processors ~proc ~frame ~budget items with
  | Error _ as e -> e
  | Ok (m_star, times) ->
      let utils = estimated_utilizations ~frame items times in
      let sorted =
        List.sort (fun (_, ua) (_, ub) -> Float.compare ub ua) utils
      in
      let n = List.length items in
      let rec try_with m_hat =
        if m_hat > max n 1 then
          Error "Rs_leuf: could not meet the budget (internal)"
        else begin
          (* largest-estimated-utilization-first with unit capacity *)
          let buckets = Array.make m_hat [] in
          let loads = Array.make m_hat 0. in
          let fits =
            List.for_all
              (fun ((it : Task.item), u) ->
                let best = ref (-1) in
                Array.iteri
                  (fun j l ->
                    if
                      Rt_prelude.Float_cmp.leq (l +. u) 1.
                      && (!best < 0 || Rt_prelude.Float_cmp.exact_lt l loads.(!best))
                    then best := j)
                  loads;
                if !best < 0 then false
                else begin
                  buckets.(!best) <- it :: buckets.(!best);
                  loads.(!best) <- loads.(!best) +. u;
                  true
                end)
              sorted
          in
          if not fits then try_with (m_hat + 1)
          else begin
            (* re-optimize speeds on every processor *)
            let energy =
              Array.fold_left
                (fun acc bucket ->
                  match acc with
                  | None -> None
                  | Some e -> (
                      if bucket = [] then Some e
                      else
                        match
                          Rt_partition.Hetero.processor_speeds proc
                            ~horizon:frame bucket
                        with
                        | None -> None
                        | Some a ->
                            Some (e +. a.Rt_partition.Hetero.energy)))
                (Some 0.) buckets
            in
            match energy with
            | None -> try_with (m_hat + 1)
            | Some e ->
                let e = e +. awake_overhead proc ~frame ~processors:m_hat in
                if Rt_prelude.Float_cmp.leq e budget then
                  Ok { processors = m_hat; energy = e }
                else try_with (m_hat + 1)
          end
        end
      in
      try_with (max 1 m_star)
