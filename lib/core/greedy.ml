module Fc = Rt_prelude.Float_cmp

open Rt_task

type algorithm = Problem.t -> Solution.t

(* least-loaded processor on which weight [w] still fits, or -1; earliest
   index wins ties. Every LTF-shaped pack runs it once per item,
   [density_reject]'s repacks included, so it is a loop over an int best
   index that boxes nothing per step: finite loads compare with
   [Float.compare], and a load exactly within [cap] is admitted before the
   boxed [Float_cmp.leq] fallback, which for finite operands gives the
   same answer. *)
let feasible_scan loads m cap w =
  let best = ref (-1) in
  for j = 0 to m - 1 do
    let l = loads.(j) in
    let a = l +. w in
    if
      (Float.compare a cap <= 0 || Rt_prelude.Float_cmp.leq a cap)
      && (!best < 0 || Float.compare loads.(!best) l > 0)
    then best := j
  done;
  !best

(* The packing core on the SoA view: items are *positions* into
   [Problem.soa], loads live in a scratch array updated in place, and the
   partition is materialized once at the end — no per-placement bucket
   copies or list folds. [accept loads j i] may veto the least-loaded
   feasible processor [j] for positional item [i]. *)
let pack_positions (p : Problem.t) ~accept (order : int array) =
  let s = Problem.soa p in
  let cap = Problem.capacity p in
  let m = p.m in
  let loads = Array.make m 0. in
  let buckets = Array.make m [] in
  let rejected = ref [] in
  Array.iter
    (fun i ->
      let w = s.Problem.weights.(i) in
      let j = feasible_scan loads m cap w in
      if j >= 0 && accept loads j i then begin
        (* lint: allow-hot-alloc-in-loop "the bucket lists are the output partition, not churn" *)
        buckets.(j) <- s.Problem.item_arr.(i) :: buckets.(j);
        loads.(j) <- loads.(j) +. w
      end
      else
        (* lint: allow-hot-alloc-in-loop "the rejection list is the output, not churn" *)
        rejected := s.Problem.item_arr.(i) :: !rejected)
    order;
  {
    Solution.partition = Rt_partition.Partition.of_buckets buckets;
    rejected = List.rev !rejected;
  }

let positions (s : Problem.soa) = Array.init s.Problem.n (fun i -> i)

let always _ _ _ = true

let ltf_reject (p : Problem.t) =
  let s = Problem.soa p in
  pack_positions p ~accept:always s.Problem.order_weight_desc

let unsorted_reject (p : Problem.t) =
  pack_positions p ~accept:always (positions (Problem.soa p))

let marginal_greedy (p : Problem.t) =
  let s = Problem.soa p in
  (* per-processor memo of [energy loads.(j)]: [energy] is a pure
     function of the load, so reusing the previous value while the load
     is unchanged (no placement landed on [j]) yields the same bits as
     re-evaluating — halving the energy calls of a probe-heavy run. The
     NaN sentinel never matches a real load, so first probes fill in. *)
  let cached_load = Array.make p.m Float.nan in
  let cached_energy = Array.make p.m 0. in
  let accept loads j i =
    let l = loads.(j) in
    if not (Fc.exact_eq cached_load.(j) l) then begin
      cached_load.(j) <- l;
      cached_energy.(j) <- s.Problem.energy l
    end;
    let marginal =
      s.Problem.energy (l +. s.Problem.weights.(i)) -. cached_energy.(j)
    in
    Rt_prelude.Float_cmp.leq marginal s.Problem.penalties.(i)
  in
  pack_positions p ~accept s.Problem.order_weight_desc

let random_reject rng (p : Problem.t) =
  let cap = Problem.capacity p in
  let items = Rt_prelude.Rng.shuffle rng p.items in
  List.fold_left
    (fun (partition, rejected) (it : Task.item) ->
      let feasible =
        List.filter
          (fun j ->
            Rt_prelude.Float_cmp.leq
              (Rt_partition.Partition.load partition j +. it.weight)
              cap)
          (Rt_prelude.Math_util.range 0 (p.m - 1))
      in
      match feasible with
      | [] -> (partition, it :: rejected)
      | _ ->
          let j = Rt_prelude.Rng.choice rng feasible in
          (Rt_partition.Partition.add partition j it, rejected))
    (Rt_partition.Partition.empty ~m:p.m, [])
    items
  |> fun (partition, rejected) ->
  { Solution.partition; rejected = List.rev rejected }

let total_cost (p : Problem.t) solution =
  match Solution.cost p solution with
  | Ok c -> c.Solution.total
  | Error msg -> invalid_arg ("Greedy: internal solution invalid: " ^ msg)

(* positional mirror of the old density comparator: penalty per unit
   weight ascending, id ascending on ties *)
let density_asc (s : Problem.soa) a b =
  let c =
    Float.compare
      (s.Problem.penalties.(a) /. s.Problem.weights.(a))
      (s.Problem.penalties.(b) /. s.Problem.weights.(b))
  in
  if c <> 0 then c else Int.compare s.Problem.ids.(a) s.Problem.ids.(b)

(* LTF-pack the positions [accepted] marks, visiting [order_weight_desc]
   (the order the repacks sorted into); records the k-th placement as
   [placed.(k)] on processor [onto.(k)]. Returns the placement count, or
   -1 at the first item that fits nowhere, where a repack would have
   rejected it. *)
let pack_mask (s : Problem.soa) ~m ~cap accepted loads placed onto =
  Array.fill loads 0 m 0.;
  let order = s.Problem.order_weight_desc in
  let rec go t k =
    if t >= s.Problem.n then k
    else
      let i = order.(t) in
      if not accepted.(i) then go (t + 1) k
      else begin
        let w = s.Problem.weights.(i) in
        let j = feasible_scan loads m cap w in
        if j < 0 then -1
        else begin
          loads.(j) <- loads.(j) +. w;
          placed.(k) <- i;
          onto.(k) <- j;
          go (t + 1) (k + 1)
        end
      end
  in
  go 0 0

(* Start accept-all (minus items over capacity); while the LTF packing
   fails, drop the cheapest-density item; then, cheapest density first,
   drop any item whose removal still packs and lowers the total cost,
   restarting after each drop. Both phases walk one density order, and
   every pack runs over an accepted mask in the instance's LTF order.
   The rejected positions are a stack with the list head on top, as in
   [Local_search]: a drop pushes, a trial that does not pay pops. *)
let density_reject (p : Problem.t) =
  let s = Problem.soa p in
  let cap = Problem.capacity p in
  let n = s.Problem.n and m = p.m in
  let by_density = Array.init n (fun i -> i) in
  Array.sort (density_asc s) by_density;
  let accepted =
    Array.map (fun w -> Rt_prelude.Float_cmp.leq w cap) s.Problem.weights
  in
  let loads = Array.make m 0. and sums = Array.make m 0. in
  let placed = Array.make n 0 and onto = Array.make n 0 in
  let rej = Array.make n 0 and rlen = ref 0 in
  let push i =
    rej.(!rlen) <- i;
    incr rlen
  in
  let pack () = pack_mask s ~m ~cap accepted loads placed onto in
  (* [Solution.cost]'s total for the first [count] placements and the
     rejected stack, in its own summation order: each bucket summed
     newest first (as [Partition.of_buckets] does), a left fold of bucket
     energies, then a left fold of penalties along the rejected list,
     which is the stack read top-down. The folds run in the cells of
     [acc], so nothing is boxed per step. *)
  let acc = Array.make 2 0. in
  let packed_cost count =
    Array.fill sums 0 m 0.;
    for k = count - 1 downto 0 do
      let j = onto.(k) in
      sums.(j) <- sums.(j) +. s.Problem.weights.(placed.(k))
    done;
    for j = 0 to m - 1 do
      (* [Float_cmp.gt] past the exact test, as [feasible_scan] does *)
      if Float.compare sums.(j) cap > 0 && Fc.gt sums.(j) cap then
        invalid_arg
          "Greedy: internal solution invalid: Solution.cost: a processor \
           exceeds capacity"
    done;
    acc.(0) <- 0.;
    for j = 0 to m - 1 do
      acc.(0) <- acc.(0) +. s.Problem.energy sums.(j)
    done;
    acc.(1) <- 0.;
    for r = !rlen - 1 downto 0 do
      acc.(1) <- acc.(1) +. s.Problem.penalties.(rej.(r))
    done;
    acc.(0) +. acc.(1)
  in
  (* the items over capacity, in position order, end the rejected list *)
  for i = n - 1 downto 0 do
    if not accepted.(i) then push i
  done;
  (* phase 1: repair to feasibility (ltf_reject already force-rejects
     overflow; we instead choose *which* item to drop by density) *)
  let d = ref 0 in
  let count = ref (pack ()) in
  while !count < 0 do
    while not accepted.(by_density.(!d)) do
      incr d
    done;
    accepted.(by_density.(!d)) <- false;
    push by_density.(!d);
    incr d;
    count := pack ()
  done;
  (* phase 2: trimming — reject any further item that still pays off;
     a candidate that no longer packs never does. [current] is the cost
     to beat, in a cell so the loop boxes nothing for it. *)
  let current = Array.make 1 (packed_cost !count) in
  d := 0;
  while !d < n do
    let i = by_density.(!d) in
    if not accepted.(i) then incr d
    else begin
      accepted.(i) <- false;
      push i;
      let count = pack () in
      let c = if count < 0 then Float.infinity else packed_cost count in
      (* strict improvement with a relative margin; exact on purpose *)
      if Fc.exact_lt c (current.(0) -. (1e-12 *. Float.max 1. current.(0)))
      then begin
        current.(0) <- c;
        d := 0
      end
      else begin
        accepted.(i) <- true;
        decr rlen;
        incr d
      end
    end
  done;
  let count = pack () in
  let buckets = Array.make m [] in
  for k = 0 to count - 1 do
    (* lint: allow-hot-alloc-in-loop "the bucket lists are the output partition, not churn" *)
    buckets.(onto.(k)) <- s.Problem.item_arr.(placed.(k)) :: buckets.(onto.(k))
  done;
  let rejected = ref [] in
  for r = 0 to !rlen - 1 do
    (* lint: allow-hot-alloc-in-loop "the rejection list is the output, not churn" *)
    rejected := s.Problem.item_arr.(rej.(r)) :: !rejected
  done;
  {
    Solution.partition = Rt_partition.Partition.of_buckets buckets;
    rejected = !rejected;
  }

let best_of algorithms (p : Problem.t) =
  match algorithms with
  | [] -> invalid_arg "Greedy.best_of: empty list"
  | a :: rest ->
      List.fold_left
        (fun best alg ->
          let s = alg p in
          if Fc.exact_lt (total_cost p s) (total_cost p best) then s else best)
        (a p) rest

let named =
  [
    ("ltf-reject", ltf_reject);
    ("marginal", marginal_greedy);
    ("density", density_reject);
    ("unsorted", unsorted_reject);
  ]
