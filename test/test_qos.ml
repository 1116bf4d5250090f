(* Tests for Rt_core.Qos: multi-level service degradation. *)

open Rt_task
open Rt_core
module Fc = Rt_prelude.Float_cmp

let check_float eps = Alcotest.(check (float eps))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let cubic = Rt_power.Processor.cubic ()

let problem_exn ~m =
  match Problem.make ~proc:cubic ~m ~horizon:100. [] with
  | Ok p -> p
  | Error e -> Alcotest.failf "problem: %s" e

let items_of specs =
  List.mapi (fun id (w, pen) -> Task.item ~penalty:pen ~id ~weight:w ()) specs

(* ------------------------------------------------------------------ *)

let test_menu_constructors () =
  let it = Task.item ~penalty:8. ~id:3 ~weight:0.6 () in
  let b = Qos.of_item it in
  check_int "binary menu" 2 (List.length b.Qos.levels);
  let g = Qos.graceful ~steps:4 it in
  check_int "graceful menu" 4 (List.length g.Qos.levels);
  (* first level = full service, last = full rejection *)
  (match g.Qos.levels with
  | first :: _ ->
      check_float 1e-9 "full weight" 0.6 first.Qos.weight;
      check_float 1e-9 "no penalty at full service" 0. first.Qos.level_penalty
  | [] -> Alcotest.fail "levels");
  (match List.rev g.Qos.levels with
  | last :: _ ->
      check_float 1e-9 "zero weight" 0. last.Qos.weight;
      check_float 1e-9 "full penalty" 8. last.Qos.level_penalty
  | [] -> Alcotest.fail "levels");
  (match Qos.qtask ~id:0 ~levels:[ Qos.level ~weight:1. ~penalty:0. ] with
  | _ -> ());
  match
    Qos.qtask ~id:0
      ~levels:[ Qos.level ~weight:1. ~penalty:0.; Qos.level ~weight:1. ~penalty:1. ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate weights must be rejected"

let test_greedy_light_load_full_service () =
  let p = problem_exn ~m:2 in
  let tasks = List.map (Qos.graceful ~steps:4) (items_of [ (0.3, 50.); (0.2, 40.) ]) in
  let s = Qos.greedy_degrade p tasks in
  check_bool "validates" true (Qos.validate p tasks s = Ok ());
  check_bool "everything at full service" true
    (List.for_all (fun c -> c.Qos.level_index = 0) s.Qos.choices)

let test_greedy_overload_degrades () =
  let p = problem_exn ~m:1 in
  (* total weight 1.8 on one unit processor: must shed at least 0.8 *)
  let tasks =
    List.map (Qos.graceful ~steps:5) (items_of [ (0.9, 30.); (0.9, 30.) ])
  in
  let s = Qos.greedy_degrade p tasks in
  check_bool "validates" true (Qos.validate p tasks s = Ok ());
  check_bool "someone degraded" true
    (List.exists (fun c -> c.Qos.level_index > 0) s.Qos.choices)

let test_cost_catches_mismatched_partition () =
  let p = problem_exn ~m:1 in
  (* penalty far above the energy: full service is chosen *)
  let tasks = List.map Qos.of_item (items_of [ (0.5, 500.) ]) in
  let s = Qos.greedy_degrade p tasks in
  check_int "full service chosen" 0 (List.hd s.Qos.choices).Qos.level_index;
  (* swap the partition for an empty one while claiming full service *)
  let broken =
    { s with Qos.partition = Rt_partition.Partition.empty ~m:1 }
  in
  check_bool "mismatch caught" true (Result.is_error (Qos.cost p tasks broken))

let prop_exhaustive_beats_greedy =
  qtest ~count:30 "exhaustive <= greedy on random graceful menus"
    QCheck2.Gen.(pair (int_range 1 5000) (float_range 0.8 2.0))
    (fun (seed, load) ->
      let rng = Rt_prelude.Rng.create ~seed in
      let items =
        Gen.items rng ~n:4 ~weight_lo:0.2 ~weight_hi:0.7
        |> Penalty.assign
             (Penalty.Proportional { factor = 1.2; jitter = 0.2 })
             rng ~proc:cubic ~horizon:100.
      in
      ignore load;
      let tasks = List.map (Qos.graceful ~steps:3) items in
      let p = problem_exn ~m:2 in
      let sg = Qos.greedy_degrade p tasks in
      let se = Qos.exhaustive p tasks in
      match (Qos.cost p tasks sg, Qos.cost p tasks se) with
      | Ok cg, Ok ce -> Fc.leq ~eps:1e-6 ce cg
      | _ -> false)

let prop_richer_menus_never_hurt =
  qtest ~count:30 "the multi-level optimum never exceeds the binary optimum"
    QCheck2.Gen.(int_range 1 5000)
    (fun seed ->
      let rng = Rt_prelude.Rng.create ~seed in
      let items =
        Gen.items rng ~n:4 ~weight_lo:0.3 ~weight_hi:0.8
        |> Penalty.assign
             (Penalty.Proportional { factor = 1.5; jitter = 0.2 })
             rng ~proc:cubic ~horizon:100.
      in
      let p = problem_exn ~m:1 in
      let binary = List.map Qos.of_item items in
      let multi = List.map (Qos.graceful ~steps:4) items in
      let cb = Qos.cost p binary (Qos.exhaustive p binary) in
      let cm = Qos.cost p multi (Qos.exhaustive p multi) in
      match (cb, cm) with
      | Ok b, Ok m -> Fc.leq ~eps:1e-6 m b
      | _ -> false)

let prop_greedy_solutions_validate =
  qtest ~count:40 "greedy degradation always yields a valid solution"
    QCheck2.Gen.(triple (int_range 1 10_000) (int_range 1 3) (int_range 2 6))
    (fun (seed, m, steps) ->
      let rng = Rt_prelude.Rng.create ~seed in
      let items =
        Gen.items rng ~n:8 ~weight_lo:0.1 ~weight_hi:0.9
        |> Penalty.assign
             (Penalty.Uniform { lo = 0.2; hi = 2. })
             rng ~proc:cubic ~horizon:100.
      in
      let tasks = List.map (Qos.graceful ~steps) items in
      let p = problem_exn ~m in
      let s = Qos.greedy_degrade p tasks in
      Qos.validate p tasks s = Ok ())

let test_level_index_out_of_range () =
  let p = problem_exn ~m:1 in
  let tasks = List.map Qos.of_item (items_of [ (0.5, 5.) ]) in
  List.iter
    (fun level_index ->
      let s =
        {
          Qos.choices = [ { Qos.task_id = 0; level_index } ];
          partition = Rt_partition.Partition.empty ~m:1;
        }
      in
      let msg = Printf.sprintf "level_index %d" level_index in
      Alcotest.(check (result (float 0.) string))
        (msg ^ ": cost") (Error "Qos: level index out of range")
        (Qos.cost p tasks s);
      Alcotest.(check (result unit string))
        (msg ^ ": validate") (Error "Qos: level index out of range")
        (Qos.validate p tasks s))
    [ -1; 7; min_int ]

(* ------------------------------------------------------------------ *)
(* The repack-everything greedy degradation: every candidate step is
   priced by a fresh [Heuristics.ltf] pack of all positive-weight levels.
   [Qos.greedy_degrade] resumes the pack from a prefix snapshot instead
   and must reproduce this bit for bit. *)

let reference_greedy_degrade (p : Problem.t) (tasks : Qos.qtask list) =
  let menus =
    Array.of_list (List.map (fun t -> Array.of_list t.Qos.levels) tasks)
  in
  let n = Array.length menus in
  let dense = List.init n Fun.id in
  let idx = Array.make n 0 in
  let level i = menus.(i).(idx.(i)) in
  let degradable i = idx.(i) < Array.length menus.(i) - 1 in
  let pack_cost () =
    let items =
      List.filter_map
        (fun i ->
          let l = level i in
          if Fc.exact_gt l.Qos.weight 0. then
            Some (Task.item ~id:i ~weight:l.Qos.weight ())
          else None)
        dense
    in
    let part = Rt_partition.Heuristics.ltf ~m:p.Problem.m items in
    if Fc.gt (Rt_partition.Partition.makespan part) (Problem.capacity p) then
      (part, Float.infinity)
    else
      let energy =
        Array.fold_left
          (fun acc l -> acc +. Problem.bucket_energy p l)
          0.
          (Rt_partition.Partition.loads part)
      in
      let penalty =
        List.fold_left (fun acc i -> acc +. (level i).Qos.level_penalty) 0. dense
      in
      (part, energy +. penalty)
  in
  let rec loop () =
    let _, current = pack_cost () in
    let best = ref None in
    List.iter
      (fun i ->
        if degradable i then begin
          idx.(i) <- idx.(i) + 1;
          let _, c = pack_cost () in
          idx.(i) <- idx.(i) - 1;
          match !best with
          | Some (_, cb) when Fc.exact_le cb c -> ()
          | _ -> best := Some (i, c)
        end)
      dense;
    match !best with
    | Some (i, c)
      when Fc.exact_lt c (current -. (1e-12 *. Float.max 1. current))
           || Fc.exact_eq current Float.infinity ->
        if Fc.exact_eq c Float.infinity && Fc.exact_eq current Float.infinity
        then begin
          let heaviest = ref None in
          List.iter
            (fun i ->
              if degradable i then begin
                let drop =
                  menus.(i).(idx.(i)).Qos.weight
                  -. menus.(i).(idx.(i) + 1).Qos.weight
                in
                match !heaviest with
                | Some (_, d) when Fc.exact_ge d drop -> ()
                | _ -> heaviest := Some (i, drop)
              end)
            dense;
          match !heaviest with
          | Some (i, _) ->
              idx.(i) <- idx.(i) + 1;
              loop ()
          | None -> ()
        end
        else begin
          idx.(i) <- idx.(i) + 1;
          loop ()
        end
    | _ -> ()
  in
  loop ();
  let part, _ = pack_cost () in
  let ids = Array.of_list (List.map (fun t -> t.Qos.id) tasks) in
  {
    Qos.choices =
      List.map (fun i -> { Qos.task_id = ids.(i); level_index = idx.(i) }) dense;
    partition =
      Rt_partition.Partition.of_buckets
        (Array.init (Rt_partition.Partition.m part) (fun j ->
             List.map
               (fun (it : Task.item) ->
                 Task.item ~id:ids.(it.item_id) ~weight:it.weight ())
               (Rt_partition.Partition.bucket part j)));
  }

let xscale =
  Rt_power.Processor.xscale
    ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })

(* A seeded instance: n tasks on m processors at [load] times the platform
   capacity, ids distinct but scattered and shuffled, menus binary or
   graceful. In tied instances weights and penalty rates come from three
   values each, so equal weights tie in the LTF order and identical menus
   tie candidate costs (the first minimum must win). *)
let degrade_instance ~seed ~n ~m =
  let rng = Rt_prelude.Rng.create ~seed in
  let proc = if Rt_prelude.Rng.bool rng then cubic else xscale in
  let p =
    match Problem.make ~proc ~m ~horizon:100. [] with
    | Ok p -> p
    | Error e -> invalid_arg e
  in
  let load = Rt_prelude.Rng.float rng ~lo:0.2 ~hi:3. in
  let mean = load *. float_of_int m *. Problem.capacity p /. float_of_int n in
  let tied = Rt_prelude.Rng.bool rng in
  let draw ~lo ~hi =
    if tied then Rt_prelude.Rng.choice rng [ lo; (lo +. hi) /. 2.; hi ]
    else Rt_prelude.Rng.float rng ~lo ~hi
  in
  let ids =
    Rt_prelude.Rng.shuffle rng (List.init n (fun i -> 1000 - (7 * i)))
  in
  let items =
    List.map
      (fun id ->
        let weight = mean *. draw ~lo:0.1 ~hi:1.9 in
        let penalty = weight *. 100. *. draw ~lo:0.05 ~hi:3. in
        Task.item ~penalty ~id ~weight ())
      ids
  in
  let menu =
    match Rt_prelude.Rng.int rng ~lo:0 ~hi:3 with
    | 0 -> Qos.of_item
    | _ ->
        Qos.graceful
          ~steps:(Rt_prelude.Rng.int rng ~lo:2 ~hi:6)
          ~curve:(Rt_prelude.Rng.choice rng [ 0.5; 1.; 2. ])
  in
  (p, List.map menu items)

let prop_greedy_matches_reference =
  qtest ~count:300
    "greedy degradation = the repack-everything reference (Marshal)"
    QCheck2.Gen.(triple (int_range 1 1_000_000) (int_range 1 40) (int_range 1 8))
    (fun (seed, n, m) ->
      let p, tasks = degrade_instance ~seed ~n ~m in
      let s = Qos.greedy_degrade p tasks in
      let r = reference_greedy_degrade p tasks in
      String.equal
        (Marshal.to_string (s.Qos.choices, s.Qos.partition) [])
        (Marshal.to_string (r.Qos.choices, r.Qos.partition) []))

let () =
  Alcotest.run "rt_core_qos"
    [
      ( "qos",
        [
          Alcotest.test_case "menu constructors" `Quick test_menu_constructors;
          Alcotest.test_case "light load full service" `Quick
            test_greedy_light_load_full_service;
          Alcotest.test_case "overload degrades" `Quick
            test_greedy_overload_degrades;
          Alcotest.test_case "mismatched partition caught" `Quick
            test_cost_catches_mismatched_partition;
          Alcotest.test_case "level index out of range" `Quick
            test_level_index_out_of_range;
          prop_exhaustive_beats_greedy;
          prop_richer_menus_never_hurt;
          prop_greedy_solutions_validate;
          prop_greedy_matches_reference;
        ] );
    ]
