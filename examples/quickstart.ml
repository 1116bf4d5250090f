(* Quickstart: the smallest end-to-end tour of the public API.

   Build a frame-based task set with rejection penalties, put it on two
   XScale-like DVS processors that cannot absorb everything, run the
   LTF-based rejection heuristic polished by local search, and check the
   result against the exact optimum and the concrete simulator.

   Run with: dune exec examples/quickstart.exe *)

open Rt_task

let () =
  (* two ideal DVS processors, P(s) = 0.08 + 1.52 s^3, speeds in [0, 1],
     able to sleep when idle *)
  let proc =
    Rt_power.Processor.xscale
      ~dormancy:(Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. })
  in

  (* six jobs sharing a 1000-time-unit frame; cycles are worst-case
     execution cycles, penalties are what dropping the job costs us *)
  let frame_length = 1000. in
  let tasks =
    [
      Task.frame ~id:0 ~cycles:700 ~penalty:900. ();
      Task.frame ~id:1 ~cycles:600 ~penalty:150. ();
      Task.frame ~id:2 ~cycles:500 ~penalty:800. ();
      Task.frame ~id:3 ~cycles:400 ~penalty:100. ();
      Task.frame ~id:4 ~cycles:300 ~penalty:400. ();
      Task.frame ~id:5 ~cycles:200 ~penalty:60. ();
    ]
  in

  let problem =
    match Rt_core.Problem.of_frame ~proc ~m:2 ~frame_length tasks with
    | Ok p -> p
    | Error e -> failwith e
  in
  Format.printf "Instance (load factor %.2f — above 1.0, so rejection is \
                 forced):@.%a@.@."
    (Rt_core.Problem.load_factor problem)
    Rt_core.Problem.pp problem;

  (* run the headline heuristic *)
  let solution =
    Rt_core.Local_search.with_local_search Rt_core.Greedy.ltf_reject problem
  in
  let cost =
    match Rt_core.Solution.cost problem solution with
    | Ok c -> c
    | Error e -> failwith e
  in
  Format.printf "ltf-reject + local search:@.  %a@.  rejected: %s@.@."
    Rt_core.Solution.pp_cost cost
    (String.concat ", "
       (List.map string_of_int (Rt_core.Solution.rejected_ids solution)));

  (* sanity: independent validation through the frame simulator *)
  (match Rt_core.Solution.validate problem solution with
  | Ok () -> print_endline "validation: schedule meets every deadline \u{2713}"
  | Error e -> failwith ("validation failed: " ^ e));

  (* compare against the exact optimum (fine at this size) *)
  let optimal =
    match Rt_core.Exact.branch_and_bound_budgeted problem with
    | Ok b -> b.Rt_core.Exact.solution
    | Error e -> failwith e
  in
  let opt_cost =
    match Rt_core.Solution.cost problem optimal with
    | Ok c -> c
    | Error e -> failwith e
  in
  Format.printf "exact optimum: %a  (heuristic is %.2f%% above)@.@."
    Rt_core.Solution.pp_cost opt_cost
    (100. *. ((cost.Rt_core.Solution.total /. opt_cost.Rt_core.Solution.total) -. 1.));

  (* and show the concrete timeline *)
  match
    Rt_sim.Frame_sim.build ~proc ~frame_length solution.Rt_core.Solution.partition
  with
  | Ok sim ->
      print_endline "schedule (digits are task ids, '.' idle):";
      print_endline (Rt_sim.Frame_sim.gantt sim)
  | Error e -> failwith e
