(* Work-stealing starvation stress (run via `dune build @stress`).

   An adversarial select-and-partition instance built so the search tree
   is one long spine: m = 4 unit-capacity processors, one 0.95-weight
   item and a tail of 0.55-weight items. At most one heavy item fits per
   processor, so once the processors are occupied nearly every node has
   a single child (reject the next item) — the worst case for load
   balancing, where stealable work is permanently scarce and the only
   way an idle domain eats is to steal the shallowest pending subtree
   the moment it appears.

   Asserted here, on the raw Search.solve API:
   - the run stays byte-identical to the sequential branch-and-bound;
   - every domain steals at least once (the ownerless seed deque makes
     even the first unit of work arrive by stealing), and the run as a
     whole steals at least twice per domain;
   - with >= 4 hardware cores, parallel node throughput at 4 domains is
     at least 2x the sequential search's (skipped — with a note — on
     smaller machines, where the spinning thieves share one core);
   - a bucket_cost that raises mid-search propagates out of the pool,
     and the same pool then runs a clean search — no deque, incumbent
     or counter state survives a poisoned run. *)

module Fc = Rt_prelude.Float_cmp
module Clock = Rt_prelude.Clock
module Search = Rt_exact.Search

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "[FAIL] %s\n%!" name
  end

let m = 4
let capacity = 1.0
let n = 24

let items =
  List.init n (fun i ->
      Rt_task.Task.item ~id:i
        ~weight:(if i = 0 then 0.95 else 0.55)
        ~penalty:(10. +. (0.1 *. float_of_int i))
        ~power_factor:1.0 ())

let bucket_cost load = load *. load *. load

let fingerprint (s : Search.solution) =
  let buckets =
    List.concat
      (List.init (Rt_partition.Partition.m s.Search.partition) (fun j ->
           List.map
             (fun (it : Rt_task.Task.item) -> (j, it.Rt_task.Task.item_id))
             (Rt_partition.Partition.bucket s.Search.partition j)))
  in
  buckets
  @ List.map
      (fun (it : Rt_task.Task.item) -> (-1, it.Rt_task.Task.item_id))
      s.Search.rejected

let () =
  (* sequential reference and its node throughput *)
  let t0 = Clock.now () in
  let seq =
    match Search.solve ~m ~capacity ~bucket_cost items with
    | Ok a -> a
    | Error e -> failwith e
  in
  let seq_wall = Clock.elapsed ~since:t0 in
  check "sequential search completed" (not seq.Search.exhausted);

  Rt_parallel.Pool.with_pool ~domains:4 (fun pool ->
      let t1 = Clock.now () in
      let a =
        match Search.solve ~pool ~m ~capacity ~bucket_cost items with
        | Ok r -> r
        | Error e -> failwith e
      in
      let stats = a.Search.stats in
      let par_wall = Clock.elapsed ~since:t1 in
      check "parallel search completed" (not a.Search.exhausted);
      check "cost bit-identical to sequential"
        (Fc.exact_eq seq.Search.best.Search.cost a.Search.best.Search.cost);
      check "solution byte-identical to sequential"
        (fingerprint seq.Search.best = fingerprint a.Search.best);

      (* starvation resistance: every domain ate at least once *)
      List.iteri
        (fun w s ->
          check (Printf.sprintf "domain %d stole at least once (got %d)" w s)
            (s >= 1))
        stats.Search.steals;
      let total_steals = List.fold_left ( + ) 0 stats.Search.steals in
      check
        (Printf.sprintf "total steals >= 2 per domain (got %d)" total_steals)
        (total_steals >= 2 * Rt_parallel.Pool.size pool);

      let seq_tput = float_of_int seq.Search.nodes /. seq_wall in
      let par_tput = float_of_int a.Search.nodes /. par_wall in
      Printf.printf
        "stress_steal: seq %d nodes in %.3fs (%.0f/s); 4 domains %d nodes in \
         %.3fs (%.0f/s); steals %s; splits %d\n%!"
        seq.Search.nodes seq_wall seq_tput a.Search.nodes par_wall par_tput
        (String.concat ","
           (List.map string_of_int stats.Search.steals))
        stats.Search.splits;
      if Domain.recommended_domain_count () >= 4 then
        check
          (Printf.sprintf "parallel node throughput >= 2x sequential (%.0f vs %.0f)"
             par_tput seq_tput)
          (Fc.exact_ge par_tput (2.0 *. seq_tput))
      else
        Printf.printf
          "stress_steal: %d hardware core(s) — skipping the 2x throughput \
           gate (needs >= 4)\n%!"
          (Domain.recommended_domain_count ());

      (* a poisoned cost function: the exception must escape the pool,
         and the pool (and a fresh work-stealing run on it) must remain
         fully usable afterwards *)
      let poisoned load =
        if Fc.exact_gt load 0.85 then failwith "poisoned bucket_cost"
        else bucket_cost load
      in
      (match
         Search.solve ~pool ~m ~capacity ~bucket_cost:poisoned items
       with
      | Ok _ -> check "poisoned run must raise" false
      | exception Failure msg ->
          check "poison message intact" (msg = "poisoned bucket_cost")
      | Error e -> check (Printf.sprintf "unexpected Error %s" e) false);
      match Search.solve ~pool ~m ~capacity ~bucket_cost items with
      | Ok a2 ->
          check "pool reusable after poisoned run: same result"
            (fingerprint a.Search.best = fingerprint a2.Search.best)
      | Error e -> check (Printf.sprintf "clean rerun failed: %s" e) false);

  if !failures > 0 then begin
    Printf.printf "stress_steal: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "stress_steal: all checks passed"
