module Fc = Rt_prelude.Float_cmp

open Rt_core

let proc =
  Rt_power.Processor.xscale
    ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })

let algorithms =
  [
    ("ltf-reject", Greedy.ltf_reject);
    ("ltf-ls", Local_search.with_local_search Greedy.ltf_reject);
    ("marginal", Greedy.marginal_greedy);
    ("marginal-ls", Local_search.with_local_search Greedy.marginal_greedy);
    ("density", Greedy.density_reject);
    ("unsorted", Greedy.unsorted_reject);
  ]

let alg_names = List.map fst algorithms

(* the E1 baseline: a search that fails or runs out of nodes aborts the
   table rather than dropping the replication *)
let optimal_cost p =
  match
    Exact.branch_and_bound_budgeted ~node_budget:Rt_exact.Search.node_limit p
  with
  | Error e -> invalid_arg ("e1: " ^ e)
  | Ok b when b.Exact.exhausted -> invalid_arg "e1: node limit exceeded"
  | Ok b -> b.Exact.cost

let ratio_row ~seeds ~baseline ~instance =
  List.map
    (fun (_, alg) ->
      Runner.mean_over ~seeds ~f:(fun seed ->
          let p = instance seed in
          let base = baseline p in
          if Fc.exact_le base 0. then Float.nan
          else Instances.solution_total p (alg p) /. base))
    algorithms

let e1_vs_optimal ?(seeds = 30) () =
  let seed_list = Runner.seeds ~base:100 ~n:seeds in
  let t =
    Rt_prelude.Tablefmt.create
      ~aligns:(Rt_prelude.Tablefmt.Left :: List.map (fun _ -> Rt_prelude.Tablefmt.Right) alg_names)
      ("m,n" :: alg_names)
  in
  List.fold_left
    (fun t (m, n) ->
      let row =
        ratio_row ~seeds:seed_list
          ~baseline:optimal_cost
          ~instance:(fun seed ->
            Instances.frame_instance ~proc ~seed:(seed + (1000 * m) + n) ~n ~m
              ~load:1.4 ())
      in
      Rt_prelude.Tablefmt.add_float_row t (Printf.sprintf "m=%d n=%d" m n) row)
    t
    [ (2, 6); (2, 8); (2, 10); (3, 8); (4, 8); (4, 10) ]

let e2_vs_lower_bound ?(seeds = 20) () =
  let seed_list = Runner.seeds ~base:200 ~n:seeds in
  let t =
    Rt_prelude.Tablefmt.create
      ~aligns:(Rt_prelude.Tablefmt.Left :: List.map (fun _ -> Rt_prelude.Tablefmt.Right) alg_names)
      ("m,n" :: alg_names)
  in
  List.fold_left
    (fun t (m, n) ->
      let row =
        ratio_row ~seeds:seed_list ~baseline:Bounds.lower_bound
          ~instance:(fun seed ->
            Instances.frame_instance ~proc ~seed:(seed + (1000 * m) + n) ~n ~m
              ~load:1.5 ())
      in
      Rt_prelude.Tablefmt.add_float_row t (Printf.sprintf "m=%d n=%d" m n) row)
    t
    [ (4, 20); (8, 40); (16, 80); (32, 120) ]

let e3_load_sweep ?(seeds = 20) () =
  let seed_list = Runner.seeds ~base:300 ~n:seeds in
  let headers = ("load" :: alg_names) @ [ "accept%(ltf-ls)" ] in
  let t =
    Rt_prelude.Tablefmt.create
      ~aligns:(Rt_prelude.Tablefmt.Left :: List.map (fun _ -> Rt_prelude.Tablefmt.Right) (List.tl headers))
      headers
  in
  let ltf_ls = List.assoc "ltf-ls" algorithms in
  List.fold_left
    (fun t load ->
      let instance seed =
        Instances.frame_instance ~proc
          ~seed:(seed + int_of_float (load *. 100.))
          ~n:40 ~m:8 ~load ()
      in
      let ratios =
        ratio_row ~seeds:seed_list ~baseline:Bounds.lower_bound ~instance
      in
      let acceptance =
        Runner.mean_over ~seeds:seed_list ~f:(fun seed ->
            let p = instance seed in
            100. *. Solution.acceptance_ratio p (ltf_ls p))
      in
      Rt_prelude.Tablefmt.add_float_row t
        (Printf.sprintf "%.1f" load)
        (ratios @ [ acceptance ]))
    t
    [ 0.4; 0.8; 1.2; 1.6; 2.0; 2.4 ]

let e4_penalty_models ?(seeds = 20) () =
  let seed_list = Runner.seeds ~base:400 ~n:seeds in
  let t =
    Rt_prelude.Tablefmt.create
      ~aligns:(Rt_prelude.Tablefmt.Left :: List.map (fun _ -> Rt_prelude.Tablefmt.Right) alg_names)
      ("penalty model" :: alg_names)
  in
  List.fold_left
    (fun t (name, model) ->
      let row =
        ratio_row ~seeds:seed_list ~baseline:Bounds.lower_bound
          ~instance:(fun seed ->
            Instances.frame_instance ~penalty_model:model ~proc ~seed ~n:40
              ~m:8 ~load:1.6 ())
      in
      Rt_prelude.Tablefmt.add_float_row t name row)
    t Rt_task.Penalty.default_models
