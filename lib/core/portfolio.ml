module Fc = Rt_prelude.Float_cmp
module Clock = Rt_prelude.Clock

let entrants =
  [
    ("ltf+ls", Local_search.with_local_search Greedy.ltf_reject);
    ("density+ls", Local_search.with_local_search Greedy.density_reject);
    ("marginal+ls", Local_search.with_local_search Greedy.marginal_greedy);
  ]

let exact_name = "bb"

type stat = {
  name : string;
  cost : float option;
  wall : float;
  nodes : int;
  exhausted : bool;
}

type outcome = {
  solution : Solution.t;
  cost : float;
  winner : string;
  stats : stat list;
}

(* One entrant's run: solve, cost through the official Solution.cost path
   (an entrant can never win by mis-reporting its own objective), publish
   the cost so the exact entrant's prune bound tightens mid-flight. *)
let run_heuristic shared p (name, alg) =
  let t0 = Clock.now () in
  let s = alg p in
  match Solution.cost p s with
  | Error _ ->
      (* an infeasible entrant forfeits; the portfolio result stays valid *)
      ( { name; cost = None; wall = Clock.elapsed ~since:t0; nodes = 0;
          exhausted = false },
        None )
  | Ok c ->
      Rt_exact.Search.publish shared c.Solution.total;
      ( {
          name;
          cost = Some c.Solution.total;
          wall = Clock.elapsed ~since:t0;
          nodes = 0;
          exhausted = false;
        },
        Some s )

(* the exact entrant's cost is Solution.cost's, cross-checked by Exact *)
let run_exact shared ?node_budget ?time_budget p =
  let t0 = Clock.now () in
  match Exact.branch_and_bound_budgeted ~shared ?node_budget ?time_budget p with
  | Error _ ->
      ( { name = exact_name; cost = None; wall = Clock.elapsed ~since:t0;
          nodes = 0; exhausted = false },
        None )
  | Ok (b : Exact.budgeted) ->
      ( {
          name = exact_name;
          cost = Some b.cost;
          wall = Clock.elapsed ~since:t0;
          nodes = b.nodes;
          exhausted = b.exhausted;
        },
        Some b.solution )

let run ?pool ?node_budget ?time_budget p =
  let shared = Rt_exact.Search.shared () in
  let jobs =
    List.map (fun e () -> run_heuristic shared p e) entrants
    @ [ (fun () -> run_exact shared ?node_budget ?time_budget p) ]
  in
  let results = Rt_parallel.Pool.map ?pool (fun job -> job ()) jobs in
  let stats = List.map fst results in
  (* deterministic winner: lowest cost, ties to the earliest entrant —
     heuristics come before the exact entrant, so an exhausted search
     that merely matched a heuristic never displaces it *)
  let winner =
    List.fold_left
      (fun acc ((st : stat), sol) ->
        match (sol, st.cost) with
        | Some s, Some c -> (
            match acc with
            | Some (_, _, best_c) when not (Fc.exact_lt c best_c) -> acc
            | _ -> Some (st.name, s, c))
        | _ -> acc)
      None results
  in
  match winner with
  | None -> Error "Portfolio: no entrant produced a valid solution"
  | Some (name, solution, cost) -> (
      match Solution.validate p solution with
      | Error msg -> Error ("Portfolio: winner failed validation: " ^ msg)
      | Ok () -> Ok { solution; cost; winner = name; stats })
