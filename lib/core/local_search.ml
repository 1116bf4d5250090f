module Fc = Rt_prelude.Float_cmp

open Rt_task

(* Delta-cost search state on the SoA view: buckets hold *positions* into
   [Problem.soa] (oldest first, so scanning top-down replicates the
   newest-first list order of [Partition.bucket]), [loads] is maintained
   incrementally, and [energies.(j)] caches the pure value
   [energy loads.(j)] so every scan reads it instead of re-evaluating the
   rate model. Incremental float updates drift by one ulp per thousands of
   moves, so [renormalize] rebuilds both arrays from scratch every
   [renorm_every] applied moves — in the same newest-first summation order
   as [Partition.of_buckets], keeping the state exactly equal to a
   from-scratch [Solution.cost] re-evaluation.

   The rejected items are a stack of positions: [rej.(rlen - 1)] is the
   head of the rejected list, so a rejection pushes and the list order
   is the stack read top-down. [stamp.(j)] is the [clock] value of
   bucket [j]'s latest re-pricing ([refresh]); every change to a bucket
   ends with one, and each takes a fresh value, so a stamp names one
   state of one bucket. *)
type state = {
  m : int;
  soa : Problem.soa;
  bidx : int array array;  (* bidx.(j).(0 .. blen.(j)-1): positions *)
  blen : int array;
  loads : float array;
  energies : float array;
  rej : int array;  (* rej.(0 .. rlen-1): rejected positions *)
  mutable rlen : int;
  stamp : int array;
  mutable clock : int;
}

let push st j pos =
  let len = st.blen.(j) in
  let arr = st.bidx.(j) in
  let arr =
    if len < Array.length arr then arr
    else begin
      let bigger = Array.make (max 4 (2 * len)) 0 in
      Array.blit arr 0 bigger 0 len;
      st.bidx.(j) <- bigger;
      bigger
    end
  in
  arr.(len) <- pos;
  st.blen.(j) <- len + 1

(* shift-remove the entry at index [i], preserving relative order (the
   list-filter removal this replaces kept order too) *)
let remove_at st j i =
  let arr = st.bidx.(j) in
  let len = st.blen.(j) in
  Array.blit arr (i + 1) arr i (len - 1 - i);
  st.blen.(j) <- len - 1

(* The state changes, one copy each: the search, [renormalize] and
   [Drift_test] all go through them. [remove] and [add] move an item and
   its weight; [refresh] re-prices a bucket's energy and stamps it, and
   every change ends with it before the next scan. *)
let remove st j i =
  let w = st.soa.Problem.weights.(st.bidx.(j).(i)) in
  remove_at st j i;
  st.loads.(j) <- st.loads.(j) -. w

let add st j pos =
  push st j pos;
  st.loads.(j) <- st.loads.(j) +. st.soa.Problem.weights.(pos)

let refresh st j =
  st.energies.(j) <- st.soa.Problem.energy st.loads.(j);
  st.clock <- st.clock + 1;
  st.stamp.(j) <- st.clock

(* move the item at index [i] of bucket [j] to bucket [k] *)
let relocate st j i k =
  let pos = st.bidx.(j).(i) in
  remove st j i;
  add st k pos;
  refresh st j;
  refresh st k

(* exchange the item at index [ia] of bucket [j] with the one at [ib] of
   bucket [k] *)
let exchange st j ia k ib =
  let pa = st.bidx.(j).(ia) and pb = st.bidx.(k).(ib) in
  remove st j ia;
  remove st k ib;
  add st j pb;
  add st k pa;
  refresh st j;
  refresh st k

(* newest-first summation, the order [Partition.of_buckets] uses, so a
   renormalized state equals a from-scratch re-evaluation exactly *)
let renormalize st =
  for j = 0 to st.m - 1 do
    st.loads.(j) <- 0.;
    for i = st.blen.(j) - 1 downto 0 do
      st.loads.(j) <- st.loads.(j) +. st.soa.Problem.weights.(st.bidx.(j).(i))
    done;
    refresh st j
  done

(* Write the positions of [items] into [buf] from index [k] on, checking
   that each id is the problem's and is seen for the first time; returns
   the index after the last one written. *)
let rec claim (soa : Problem.soa) seen buf k = function
  | [] -> Ok k
  | (it : Task.item) :: rest -> (
      match Hashtbl.find_opt soa.Problem.index_of it.item_id with
      | None -> Error (Printf.sprintf "item %d is not in the problem" it.item_id)
      | Some pos ->
          if seen.(pos) then
            Error (Printf.sprintf "item %d appears more than once" it.item_id)
          else begin
            seen.(pos) <- true;
            buf.(k) <- pos;
            claim soa seen buf (k + 1) rest
          end)

let state_of_solution (p : Problem.t) (s : Solution.t) =
  let soa = Problem.soa p in
  let n = soa.Problem.n in
  let m = Rt_partition.Partition.m s.partition in
  let seen = Array.make n false in
  let buf = Array.make n 0 in
  let bidx = Array.make m [||] in
  (* bucket lists are newest first; store oldest first *)
  let rec claim_buckets j k =
    if j >= m then Ok k
    else
      match
        claim soa seen buf k (Rt_partition.Partition.bucket s.partition j)
      with
      | Error _ as e -> e
      | Ok k' ->
          let b = Array.make (k' - k) 0 in
          for i = 0 to k' - k - 1 do
            b.(i) <- buf.(k' - 1 - i)
          done;
          bidx.(j) <- b;
          claim_buckets (j + 1) k'
  in
  let ( let* ) = Result.bind in
  let* placed = claim_buckets 0 0 in
  let* total = claim soa seen buf placed s.rejected in
  if total <> n then
    Error
      (Printf.sprintf "the solution places or rejects %d of the problem's %d items"
         total n)
  else begin
    (* the rejected list, head first, sits in [buf.(placed ..)]; the
       stack keeps the head on top *)
    let rej = Array.make n 0 in
    for r = 0 to total - placed - 1 do
      rej.(r) <- buf.(total - 1 - r)
    done;
    let loads = Rt_partition.Partition.loads s.partition in
    Ok
      {
        m;
        soa;
        bidx;
        blen = Array.map Array.length bidx;
        loads;
        energies = Array.map soa.Problem.energy loads;
        rej;
        rlen = total - placed;
        stamp = Array.init m (fun j -> j + 1);
        clock = m;
      }
  end

(* rebuild one bucket's newest-first list representation; the conses are
   the output, not churn *)
let rec build_bucket_list st j i acc =
  if i >= st.blen.(j) then acc
  else
    let acc =
      (* lint: allow-hot-alloc-in-loop "one cons per item of the final partition" *)
      st.soa.Problem.item_arr.(st.bidx.(j).(i)) :: acc
    in
    build_bucket_list st j (i + 1) acc

(* the rejected list, head first: the stack read bottom-up, consing *)
let rec build_rejected_list st r acc =
  if r >= st.rlen then acc
  else
    let acc =
      (* lint: allow-hot-alloc-in-loop "one cons per rejected item of the final solution" *)
      st.soa.Problem.item_arr.(st.rej.(r)) :: acc
    in
    build_rejected_list st (r + 1) acc

let solution_of_state st =
  let buckets = Array.init st.m (fun j -> build_bucket_list st j 0 []) in
  {
    Solution.partition = Rt_partition.Partition.of_buckets buckets;
    rejected = build_rejected_list st 0 [];
  }

(* one full renormalization per this many applied moves bounds the
   accumulated float drift of the O(1) load updates *)
let renorm_every = 4096

type budgeted = { solution : Solution.t; moves : int; exhausted : bool }

(* Move loop on a validated state; returns the improved solution, the
   number of moves applied, and whether the step budget stopped the loop
   while a scan was still finding improving moves.

   Four memos key on the bucket stamps. Every candidate a scan tests is a
   pure function of the one or two buckets it touches (their items, load
   and energy) and of constants of the run ([eps], [cap], the SoA). So
   once a full scan has found nothing in a bucket (reject) or between two
   buckets (swap, per pair), the same scan finds nothing again while
   neither stamp has moved, and is skipped: [*_clean] hold the [clock] at
   which that scan last came up empty. The accept test is remembered per
   rejected item ([acc_at]) and E(l_j - w) per placed item ([efrom]). The
   first improving move in scan order is therefore the one the unmemoised
   scans choose, with every float computed as they compute it. Each
   pays on the plan-shaped workload: a copy without it read perfbench
   [plan] throughput lower at the median of three pairs, by 13% without
   the accept memo, 8% without [efrom], 3% without the swap memo and 2.5%
   without the reject memo (the last two within run-to-run spread).

   The move scan has no memo. It runs the best-destination selection
   for each item in scan order and applies the first whose best gain
   beats [eps]: the move a memo of clean pairs picks too, since a clean
   pair improves for no item. The gap test below already leaves it 9 of
   41,518 destinations to price on that workload, and without the memo
   [plan] stayed inside its run-to-run spread (ten pairs). *)
let improve_state ~max_moves (p : Problem.t) st =
  let cap = Problem.capacity p in
  let soa = st.soa in
  let energy l = soa.Problem.energy l in
  let weight pos = soa.Problem.weights.(pos) in
  (* Gain tolerance. Scaled from the energy at full capacity — the upper
     bound of any bucket's energy — rather than from the maximum *initial*
     load: accept moves can grow a bucket well past the starting scale,
     and a tolerance frozen at the smaller scale goes stale (too tight
     relative to the float noise of the grown terms). One capacity-derived
     value is correct for the whole run. *)
  let eps = 1e-9 *. Float.max 1. (energy cap +. 1.) in
  let m = st.m in
  (* [Float_cmp.leq a cap], with the exact test first: for finite
     operands a load exactly within capacity passes both, so only a load
     past [cap] pays for the boxed out-of-line call *)
  let[@inline] within a = Float.compare a cap <= 0 || Fc.leq a cap in
  (* Gap test. Bucket energy E is convex and non-decreasing on [0, cap]
     for every evaluator [Energy_rate.prepare_energy] builds, so shifting
     load between two processors can only pay when it narrows the gap
     between them. [spreads ~hi y] holds when a move or swap's heavier
     new load [y] is at least [hi], the heavier of the two old loads, and
     at most [cap]: then all four loads are at most [cap] and the new
     pair is the old one spread apart, so the exact gain of the new loads as
     computed is at most the slope bound α·E(cap)/cap times their
     rounding deficit (four roundings of loads at most [cap]: 2^-51·cap),
     and the computed gain adds the evaluation error of four energies and
     three subtractions. Together that is at most about
     (α·2^-51 + 32·2^-53)·E(cap), under 2^-44·E(cap) for the α ≤ 64 that
     [Power_model.make] admits, while [eps] is at least 1e-9·E(cap): the
     scans that priced such a candidate never took it, so they skip it
     before any capacity test or energy call. Both comparisons are exact,
     on the floats the energy calls would receive. The [y <= cap] half
     matters: past [cap] the evaluators are flat, not convex, and the
     tolerant capacity test admits loads up to about 1e-9 past it. *)
  let[@inline] spreads ~hi y =
    Float.compare y hi >= 0 && Float.compare y cap <= 0
  in

  (* [efrom.(pos)] memoises E(l_j - w_pos) for the item at [pos] in
     bucket [j], valid while [efrom_at.(pos)] is bucket [j]'s stamp; the
     reject and move scans both price it, and the move scan once per
     item, not per destination *)
  let efrom = Array.make soa.Problem.n 0. in
  let efrom_at = Array.make soa.Problem.n (-1) in
  let removal_energy j pos =
    if efrom_at.(pos) <> st.stamp.(j) then begin
      efrom.(pos) <- energy (st.loads.(j) -. weight pos);
      efrom_at.(pos) <- st.stamp.(j)
    end
  in
  let reject_clean = Array.make m (-1) in
  let swap_clean = Array.make (m * m) (-1) in
  (* [acc_at.(pos)] is the clock at which rejected item [pos] last
     failed the accept test, [acc_best.(pos)] the processor it was
     tested on (-1: it fit nowhere), [acc_at.(pos) = -1] when unknown.
     While that processor is unchanged, the least-loaded fit can only
     move to a processor changed since, and if it has not moved the test
     fails again. *)
  let acc_at = Array.make soa.Problem.n (-1) in
  let acc_best = Array.make soa.Problem.n (-1) in

  let try_reject () =
    (* first item (buckets ascending, newest first within) whose
       rejection pays: saved marginal energy beats its penalty *)
    let rec scan_bucket j i =
      if i < 0 then -1
      else begin
        let pos = st.bidx.(j).(i) in
        removal_energy j pos;
        if
          Fc.exact_gt
            (st.energies.(j) -. efrom.(pos) -. soa.Problem.penalties.(pos))
            eps
        then i
        else scan_bucket j (i - 1)
      end
    in
    let rec over j =
      if j >= m then false
      else if st.stamp.(j) <= reject_clean.(j) then over (j + 1)
      else begin
        let i = scan_bucket j (st.blen.(j) - 1) in
        if i < 0 then begin
          reject_clean.(j) <- st.clock;
          over (j + 1)
        end
        else begin
          let pos = st.bidx.(j).(i) in
          remove st j i;
          refresh st j;
          st.rej.(st.rlen) <- pos;
          st.rlen <- st.rlen + 1;
          acc_at.(pos) <- -1;
          true
        end
      end
    in
    over 0
  in

  (* the least-loaded processor [w] fits on (earliest index on ties),
     among [keep] and the processors changed after clock [since]; with
     [since = -1] and [keep = -1] that is every processor *)
  let least_loaded_fit ~since ~keep w =
    let best = ref (-1) in
    for j = 0 to m - 1 do
      let l = st.loads.(j) in
      if
        (j = keep || (st.stamp.(j) > since && within (l +. w)))
        && (!best < 0 || Float.compare st.loads.(!best) l > 0)
      then best := j
    done;
    !best
  in

  let try_accept () =
    (* first rejected item, in list order (the stack top-down), whose
       penalty beats its marginal energy on the least-loaded processor
       it fits on; the stack is compacted in place, keeping that order *)
    let rec scan r =
      if r < 0 then false
      else begin
        let pos = st.rej.(r) in
        let w = weight pos in
        let since = acc_at.(pos) and keep = acc_best.(pos) in
        let memo = since >= 0 && (keep < 0 || st.stamp.(keep) <= since) in
        let j =
          if memo then least_loaded_fit ~since ~keep w
          else least_loaded_fit ~since:(-1) ~keep:(-1) w
        in
        if memo && j = keep then begin
          acc_at.(pos) <- st.clock;
          scan (r - 1)
        end
        else if
          j >= 0
          && Fc.exact_gt
               (soa.Problem.penalties.(pos)
               -. (energy (st.loads.(j) +. w) -. st.energies.(j)))
               eps
        then begin
          Array.blit st.rej (r + 1) st.rej r (st.rlen - 1 - r);
          st.rlen <- st.rlen - 1;
          add st j pos;
          refresh st j;
          true
        end
        else begin
          acc_best.(pos) <- j;
          acc_at.(pos) <- st.clock;
          scan (r - 1)
        end
      end
    in
    scan (st.rlen - 1)
  in

  (* relocation gain of moving the item at position [pos] from processor
     [j] to [k], [efrom.(pos)] being fresh; the same association as
     [E_j + E_k - E(l_j - w) - E(l_k + w)] *)
  let move_gain j pos k =
    st.energies.(j) +. st.energies.(k) -. efrom.(pos)
    -. energy (st.loads.(k) +. weight pos)
  in
  (* is moving the item at [pos] from [j] to [k] worth pricing? The new
     load [l_k + w] is at least [l_k], so it is the heavier of the pair's
     loads after and before the move once it reaches [l_j]: then the gap
     test skips it. Otherwise it must fit, as before. *)
  let[@inline] move_open j pos k =
    let y = st.loads.(k) +. weight pos in
    (not (spreads ~hi:st.loads.(j) y)) && within y
  in
  (* the running best gain of [best_dest], in a cell so the scan is a
     loop that boxes nothing *)
  let best_gain = Array.make 1 0. in
  (* the first destination with the largest gain for the item at [pos]
     of bucket [j], its gain left in [best_gain.(0)]; -1 when none is
     open. A destination the gap test skips gains at most [eps], so it
     can never be the one that improves. *)
  let best_dest j pos =
    let best = ref (-1) in
    for k = 0 to m - 1 do
      if k <> j && move_open j pos k then begin
        let gain = move_gain j pos k in
        if !best < 0 || Float.compare gain best_gain.(0) > 0 then begin
          best := k;
          best_gain.(0) <- gain
        end
      end
    done;
    !best
  in

  let try_move () =
    (* first item (buckets ascending, newest first within) whose best
       destination improves *)
    let rec scan_items j i =
      if i < 0 then false
      else begin
        let pos = st.bidx.(j).(i) in
        removal_energy j pos;
        let k = best_dest j pos in
        if k >= 0 && Float.compare best_gain.(0) eps > 0 then begin
          relocate st j i k;
          true
        end
        else scan_items j (i - 1)
      end
    in
    let rec over j = j < m && (scan_items j (st.blen.(j) - 1) || over (j + 1)) in
    over 0
  in

  (* is an exchange that leaves loads [lj] on [j] and [lk] on [k] worth
     pricing? The gap test on the heavier loads after and before, then
     both capacity tests, as before *)
  let[@inline] swap_open j k lj lk =
    let hi =
      if Float.compare st.loads.(j) st.loads.(k) >= 0 then st.loads.(j)
      else st.loads.(k)
    in
    let y = if Float.compare lj lk >= 0 then lj else lk in
    (not (spreads ~hi y)) && within lj && within lk
  in

  let try_swap () =
    (* first improving exchange, scanned in the same order as before the
       SoA pass: j < k ascending, [a] newest-first along bucket j, [b]
       newest-first along bucket k *)
    let rec over_j j = if j > m - 2 then false else over_k j (j + 1)
    and over_k j k =
      if k > m - 1 then over_j (j + 1)
      else
        let v = swap_clean.((j * m) + k) in
        if st.stamp.(j) <= v && st.stamp.(k) <= v then over_k j (k + 1)
        else scan_a j k (st.blen.(j) - 1)
    and scan_a j k ia =
      if ia < 0 then begin
        swap_clean.((j * m) + k) <- st.clock;
        over_k j (k + 1)
      end
      else begin
        let ib = scan_b j k ia (st.blen.(k) - 1) in
        if ib < 0 then scan_a j k (ia - 1)
        else begin
          exchange st j ia k ib;
          true
        end
      end
    and scan_b j k ia ib =
      if ib < 0 then -1
      else begin
        let wa = weight st.bidx.(j).(ia) and wb = weight st.bidx.(k).(ib) in
        let lj = st.loads.(j) -. wa +. wb in
        let lk = st.loads.(k) -. wb +. wa in
        if
          swap_open j k lj lk
          && Fc.exact_gt
               (st.energies.(j) +. st.energies.(k) -. energy lj -. energy lk)
               eps
        then ib
        else scan_b j k ia (ib - 1)
      end
    in
    over_j 0
  in

  let moves = ref 0 in
  let progress = ref true in
  (* lint: allow-budget-no-poll "the budget is a move count, not wall time: each applied move strictly decreases cost and a scan is O(m x items), so max_moves bounds the work" *)
  while !progress && !moves < max_moves do
    progress := try_reject () || try_accept () || try_move () || try_swap ();
    if !progress then begin
      incr moves;
      if !moves mod renorm_every = 0 then renormalize st
    end
  done;
  (* [!progress] at exit means the loop was cut off by the budget with an
     improving move just applied — convergence is not proven *)
  (solution_of_state st, !moves, !progress)

let improve_budgeted ?(max_moves = 10_000) (p : Problem.t) (s : Solution.t) =
  let error msg = Error ("Local_search.improve: " ^ msg) in
  match Solution.cost p s with
  | Error msg -> error msg
  | Ok _ -> (
      match state_of_solution p s with
      | Error msg -> error msg
      | Ok st ->
          let solution, moves, exhausted = improve_state ~max_moves p st in
          Ok { solution; moves; exhausted })

let improve ?max_moves (p : Problem.t) (s : Solution.t) =
  match improve_budgeted ?max_moves p s with
  | Ok b -> b.solution
  | Error msg -> invalid_arg msg

let with_local_search ?max_moves algorithm p = improve ?max_moves p (algorithm p)

module Drift_test = struct
  type t = { p : Problem.t; st : state; cap : float }

  let init p s =
    match Solution.cost p s with
    | Error msg -> invalid_arg ("Local_search.Drift_test.init: " ^ msg)
    | Ok _ -> (
        match state_of_solution p s with
        | Error msg -> invalid_arg ("Local_search.Drift_test.init: " ^ msg)
        | Ok st -> { p; st; cap = Problem.capacity p })

  let random_step rng { st; cap; _ } =
    let m = st.m in
    let j = Rt_prelude.Rng.int rng ~lo:0 ~hi:(m - 1) in
    if st.blen.(j) = 0 then false
    else begin
      let i = Rt_prelude.Rng.int rng ~lo:0 ~hi:(st.blen.(j) - 1) in
      let pos = st.bidx.(j).(i) in
      let w = st.soa.Problem.weights.(pos) in
      if Rt_prelude.Rng.bool rng || m < 2 then begin
        (* relocation to a random other processor, if it fits *)
        let k = Rt_prelude.Rng.int rng ~lo:0 ~hi:(m - 1) in
        if k = j || not (Rt_prelude.Float_cmp.leq (st.loads.(k) +. w) cap)
        then false
        else begin
          relocate st j i k;
          true
        end
      end
      else begin
        (* exchange with a random item on a random other processor *)
        let k = Rt_prelude.Rng.int rng ~lo:0 ~hi:(m - 1) in
        if k = j || st.blen.(k) = 0 then false
        else begin
          let i2 = Rt_prelude.Rng.int rng ~lo:0 ~hi:(st.blen.(k) - 1) in
          let w2 = st.soa.Problem.weights.(st.bidx.(k).(i2)) in
          let lj = st.loads.(j) -. w +. w2 in
          let lk = st.loads.(k) -. w2 +. w in
          if
            Rt_prelude.Float_cmp.leq lj cap
            && Rt_prelude.Float_cmp.leq lk cap
          then begin
            exchange st j i k i2;
            true
          end
          else false
        end
      end
    end

  let renormalize { st; _ } = renormalize st
  let loads { st; _ } = Array.copy st.loads

  let cost { st; _ } =
    (* same association as [Solution.cost]: left fold over buckets, then
       the penalty sum *)
    let energy_total = Array.fold_left ( +. ) 0. st.energies in
    energy_total +. Taskset.total_penalty_items (build_rejected_list st 0 [])

  let solution { st; _ } = solution_of_state st
end
