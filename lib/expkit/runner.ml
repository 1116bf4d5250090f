let seeds ~base ~n =
  List.map (fun i -> base + (7919 * i)) (Rt_prelude.Math_util.range 0 (n - 1))

let replicate ?pool ~seeds f =
  let values =
    List.filter
      (fun v -> not (Float.is_nan v))
      (Rt_parallel.Pool.map ?pool f seeds)
  in
  if List.is_empty values then
    invalid_arg "Runner.replicate: every replication returned NaN";
  Rt_prelude.Stats.summarize values

let mean_over ?pool ~seeds f = (replicate ?pool ~seeds f).Rt_prelude.Stats.mean
