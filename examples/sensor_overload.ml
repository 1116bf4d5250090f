(* Periodic sensor fusion under transient overload.

   A quad-core sensor hub runs periodic sampling/fusion tasks. When a new
   high-rate sensor suite is plugged in, total utilization exceeds what
   the cores can deliver even at top speed, and the admission controller
   must reject some tasks — paying each task's mission-value penalty —
   while running the accepted set as slowly as deadlines allow.

   The example:
   1. builds the periodic task set and reduces it to the rejection problem,
   2. compares all algorithms against the exact optimum,
   3. EDF-simulates the accepted tasks per core over a full hyper-period
      to prove the schedule holds job-by-job.

   Run with: dune exec examples/sensor_overload.exe *)

open Rt_task

let proc =
  Rt_power.Processor.xscale
    ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })

(* (name, cycles per job, period in ticks, penalty per hyper-period) *)
let specs =
  [
    ("imu@high", 45, 100, 4000.);
    ("imu@low", 20, 200, 800.);
    ("camera-front", 180, 250, 2500.);
    ("camera-rear", 170, 250, 900.);
    ("lidar", 260, 400, 3000.);
    ("radar", 120, 200, 2200.);
    ("gps-fusion", 80, 500, 1500.);
    ("health-mon", 30, 1000, 300.);
    ("thermal", 90, 500, 250.);
    ("logger", 150, 250, 120.);
    ("compress", 240, 400, 200.);
    ("uplink", 160, 200, 700.);
  ]

let tasks =
  List.mapi
    (fun id (_, cycles, period, penalty) ->
      Task.periodic ~id ~cycles ~period ~penalty ())
    specs

let name_of id = match List.nth_opt specs id with
  | Some (n, _, _, _) -> n
  | None -> "?"

let optimal p =
  match Rt_core.Exact.branch_and_bound_budgeted p with
  | Ok b -> b.Rt_core.Exact.solution
  | Error e -> failwith e

let () =
  let m = 4 in
  let problem =
    match Rt_core.Problem.of_periodic ~proc ~m tasks with
    | Ok p -> p
    | Error e -> failwith e
  in
  Printf.printf
    "sensor hub: %d periodic tasks, %d cores, total utilization %.2f \
     (capacity %.1f)\n\n"
    (List.length tasks) m
    (Taskset.total_utilization tasks)
    (float_of_int m *. Rt_power.Processor.s_max proc);

  (* 2. algorithm comparison *)
  let algorithms =
    [
      ("ltf-reject", Rt_core.Greedy.ltf_reject);
      ("ltf-ls", Rt_core.Local_search.with_local_search Rt_core.Greedy.ltf_reject);
      ("marginal-ls",
       Rt_core.Local_search.with_local_search Rt_core.Greedy.marginal_greedy);
      ("density", Rt_core.Greedy.density_reject);
      ("OPTIMAL", optimal);
    ]
  in
  print_endline "algorithm    total-cost  dropped tasks";
  print_endline "-----------  ----------  -------------";
  List.iter
    (fun (name, alg) ->
      let s = alg problem in
      let c =
        match Rt_core.Solution.cost problem s with
        | Ok c -> c
        | Error e -> failwith e
      in
      Printf.printf "%-11s  %10.1f  %s\n" name c.Rt_core.Solution.total
        (String.concat ", "
           (List.map name_of (Rt_core.Solution.rejected_ids s))))
    algorithms;

  (* 3. EDF-simulate the optimal solution core by core *)
  let best = optimal problem in
  print_endline "\nEDF check of the optimal assignment, per core:";
  let part = best.Rt_core.Solution.partition in
  List.iter
    (fun core ->
      let ids =
        List.map
          (fun (it : Task.item) -> it.item_id)
          (Rt_partition.Partition.bucket part core)
      in
      let core_tasks =
        List.filter (fun (t : Task.periodic) -> List.mem t.id ids) tasks
      in
      if core_tasks = [] then
        Printf.printf "  core %d: (sleeps all hyper-period)\n" core
      else begin
        let u = Taskset.total_utilization core_tasks in
        (* run at the slowest feasible constant speed, clamped from below
           by the critical speed *)
        let speed =
          Float.max u (Rt_power.Processor.critical_speed proc)
        in
        match Rt_sim.Edf_sim.run ~proc ~speed core_tasks with
        | Error e -> failwith e
        | Ok o ->
            Printf.printf
              "  core %d: %d tasks, U=%.3f, speed %.3f -> %s (%d preemptions, \
               busy %.0f/%.0f)\n"
              core (List.length core_tasks) u speed
              (if o.Rt_sim.Edf_sim.misses = [] then "all deadlines met"
               else "DEADLINE MISS")
              o.Rt_sim.Edf_sim.preemptions o.Rt_sim.Edf_sim.busy_time
              o.Rt_sim.Edf_sim.horizon
      end)
    (Rt_prelude.Math_util.range 0 (m - 1))
