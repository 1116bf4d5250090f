type budgeted = {
  solution : Solution.t;
  cost : float;
  nodes : int;
  exhausted : bool;
  stats : Rt_exact.Search.stats;
}

let branch_and_bound_budgeted ?pool ?shared ?node_budget ?time_budget
    (p : Problem.t) =
  match
    Rt_exact.Search.solve ?pool ?shared ?node_budget ?time_budget ~m:p.m
      ~capacity:(Problem.capacity p)
      ~bucket_cost:(Problem.bucket_energy p) p.items
  with
  | Error _ as e -> e
  | Ok (a : Rt_exact.Search.anytime) -> (
      let solution =
        { Solution.partition = a.best.partition; rejected = a.best.rejected }
      in
      (* cross-check the search's internal cost against the official one *)
      match Solution.cost p solution with
      | Error msg -> Error ("Exact: invalid best-so-far solution: " ^ msg)
      | Ok c ->
          if
            not (Rt_prelude.Float_cmp.approx_eq ~eps:1e-6 c.total a.best.cost)
          then Error "Exact: search cost disagrees with Solution.cost"
          else
            Ok
              {
                solution;
                cost = c.total;
                nodes = a.nodes;
                exhausted = a.exhausted;
                stats = a.stats;
              })
