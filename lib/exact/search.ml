module Fc = Rt_prelude.Float_cmp
module Clock = Rt_prelude.Clock
module Pool = Rt_parallel.Pool
module Deque = Rt_parallel.Deque

open Rt_task

type solution = {
  partition : Rt_partition.Partition.t;
  rejected : Task.item list;
  cost : float;
}

type stats = {
  steals : int list;
  splits : int;
  pruned : int;
  subtrees : (int list * int) list;
}

type anytime = {
  best : solution;
  nodes : int;
  exhausted : bool;
  stats : stats;
}

(* ---------------------------------------------------------------- *)
(* Shared incumbent: a monotonically decreasing cost bound published
   across domains. Readers prune against it *strictly* (only subtrees
   that cannot even tie the published bound are cut), so the solution a
   search returns never depends on when a sibling's publication lands —
   the determinism contract docs/PARALLEL.md spells out. *)

type shared = float Atomic.t

let shared () = Atomic.make infinity

let rec publish cell cost =
  let cur = Atomic.get cell in
  if Fc.exact_lt cost cur && not (Atomic.compare_and_set cell cur cost) then
    publish cell cost

(* ---------------------------------------------------------------- *)
(* Engine and search state.

   The immutable [engine] holds the prepared instance: placeable items
   sorted largest-first, forced rejections (items too heavy for any
   processor) and their penalty. A [state] is a node of the search tree —
   the first [next] items decided, the rest open. [root] is the empty
   prefix; [expand] enumerates a node's children in depth-first visit
   order (buckets 0..used, first unused bucket for symmetry breaking,
   then rejection), which is what makes a frontier split equivalent to
   the sequential search: all leaves of child i precede all leaves of
   child i+1 in DFS order.

   A state carries each bucket's energy beside its load, so a child
   prices only the bucket it changed, and records decisions as one
   bucket index per item ([-1] = rejected) rather than as lists. Since
   [bucket_cost] is pure, a carried energy is the very float a fresh
   evaluation of the load would give. *)

type engine = {
  m : int;
  capacity : float;
  bucket_cost : float -> float;
  arr : Task.item array;
  forced : Task.item list;
  forced_penalty : float;
}

type state = {
  next : int;
  used : int;
  loads : float array;
  energies : float array;  (** [bucket_cost loads.(j)] *)
  assign : int array;  (** bucket of each decided item, [-1] if rejected *)
  penalty : float;
}

let prepare ~m ~capacity ~bucket_cost items =
  let forced, placeable =
    List.partition (fun (it : Task.item) -> Fc.gt it.weight capacity) items
  in
  {
    m;
    capacity;
    bucket_cost;
    arr = Array.of_list (List.sort Task.compare_item_weight_desc placeable);
    forced;
    forced_penalty = Taskset.total_penalty_items forced;
  }

let root e =
  let loads = Array.make e.m 0. in
  {
    next = 0;
    used = 0;
    loads;
    energies = Array.map e.bucket_cost loads;
    assign = Array.make (Array.length e.arr) (-1);
    penalty = 0.;
  }

(* children of an interior node ([st.next] < number of items) *)
let expand e st =
  let it = e.arr.(st.next) in
  let child ~used ~penalty j =
    let loads = Array.copy st.loads in
    let energies = Array.copy st.energies in
    let assign = Array.copy st.assign in
    if j >= 0 then begin
      loads.(j) <- loads.(j) +. it.weight;
      energies.(j) <- e.bucket_cost loads.(j)
    end;
    assign.(st.next) <- j;
    { next = st.next + 1; used; loads; energies; assign; penalty }
  in
  let children = ref [] in
  for j = min (e.m - 1) st.used downto 0 do
    if Fc.leq (st.loads.(j) +. it.weight) e.capacity then
      children :=
        child ~used:(max st.used (j + 1)) ~penalty:st.penalty j :: !children
  done;
  !children
  @ [ child ~used:st.used ~penalty:(st.penalty +. it.item_penalty) (-1) ]

(* The buckets (items in decision order) and the rejected items (latest
   decision first) of the first [k] items under [assign]. *)
let decode e assign k =
  let buckets = Array.make e.m [] in
  let rejected = ref [] in
  for i = 0 to k - 1 do
    let it = e.arr.(i) in
    let j = assign.(i) in
    if j < 0 then rejected := it :: !rejected
    else buckets.(j) <- it :: buckets.(j)
  done;
  (Array.map List.rev buckets, !rejected)

(* What a run found: the best leaf's assignment or, when no leaf
   strictly beat it, the start state's reject-the-rest seed. *)
type found = Leaf of int array | Seed of state

type run = { cost : float; found : found; nodes : int; stopped : bool }

(* The solution a run found. A leaf lists its buckets in decision order
   and its rejections latest first; a seed lists its open items first,
   then its prefix's rejections. *)
let solution e r =
  let n = Array.length e.arr in
  let buckets, rejected =
    match r.found with
    | Leaf a -> decode e a n
    | Seed st ->
        let buckets, rejected = decode e st.assign st.next in
        let open_items = Array.sub e.arr st.next (n - st.next) in
        (buckets, Array.to_list open_items @ rejected)
  in
  {
    partition = Rt_partition.Partition.of_buckets buckets;
    rejected = rejected @ e.forced;
    cost = r.cost;
  }

(* Depth-first exploration from [st] until done or until [stop nodes]
   holds; returns the best cost and what achieved it, the nodes visited
   and whether [stop] fired. The domain running this owns the private
   [loads]/[energies]/[assign] copies; the only cross-domain traffic is
   the optional [shared] incumbent. A placement evaluates [bucket_cost]
   once, on the changed bucket's new load; a rejection evaluates nothing.
   Backtracking restores each load and energy to the exact float it held
   before the move (rather than subtracting the weight back out), so the
   cost of a leaf is a pure function of its assignment — identical
   whether reached sequentially or from a split subtree. Bounds and leaf
   costs sum the energies in bucket order, as one evaluation per bucket
   would. Decisions live in [assign]; lists are built only for the
   solution finally returned ([solution]). Once stopped, every pending
   call returns at once, so the node count is that of the stopping
   node. *)
let run_from ?shared ~prune ~stop e st =
  let m = e.m in
  let n = Array.length e.arr in
  let loads = Array.copy st.loads in
  let energies = Array.copy st.energies in
  let assign = Array.copy st.assign in
  let nodes = ref 0 in
  let stopped = ref false in
  (* [energy] and [foreign_cut] are inlined into [go]: as calls they
     would box a float per node *)
  let energy () =
    let acc = ref 0. in
    for j = 0 to m - 1 do
      acc := !acc +. energies.(j)
    done;
    !acc
  [@@inline]
  in
  (* seed: reject every remaining item (always feasible) *)
  let remaining_penalty =
    let acc = ref 0. in
    for i = st.next to n - 1 do
      acc := !acc +. e.arr.(i).item_penalty
    done;
    !acc
  in
  let best_cost =
    ref (energy () +. st.penalty +. remaining_penalty +. e.forced_penalty)
  in
  let best = ref (Seed st) in
  let foreign_cut bound =
    match shared with
    | None -> false
    | Some cell -> Fc.exact_gt bound (Atomic.get cell)
  [@@inline]
  in
  let publish_best =
    match shared with None -> fun _ -> () | Some cell -> publish cell
  in
  publish_best !best_cost;
  let rec go i used penalty_so_far =
    if not !stopped then begin
      incr nodes;
      if stop !nodes then stopped := true
      else begin
        (* a leaf's cost, or an interior node's monotone bound *)
        let cost = energy () +. penalty_so_far +. e.forced_penalty in
        if i = n then begin
          if Fc.exact_lt cost !best_cost then begin
            best_cost := cost;
            best := Leaf (Array.copy assign);
            publish_best cost
          end
        end
        else if
          (not prune)
          || (Fc.exact_lt cost !best_cost && not (foreign_cut cost))
        then begin
          let it = e.arr.(i) in
          for j = 0 to min (m - 1) used do
            let before = loads.(j) in
            (* once stopped, nothing more is priced *)
            if (not !stopped) && Fc.leq (before +. it.weight) e.capacity
            then begin
              let energy_before = energies.(j) in
              loads.(j) <- before +. it.weight;
              energies.(j) <- e.bucket_cost loads.(j);
              assign.(i) <- j;
              go (i + 1) (max used (j + 1)) penalty_so_far;
              energies.(j) <- energy_before;
              loads.(j) <- before
            end
          done;
          (* rejection branch *)
          assign.(i) <- -1;
          go (i + 1) used (penalty_so_far +. it.item_penalty)
        end
      end
    end
  in
  go st.next st.used st.penalty;
  {
    cost = !best_cost;
    found = !best;
    nodes = !nodes;
    stopped = !stopped;
  }

let make_stop ?node_budget ?deadline () =
  let node_stop =
    match node_budget with
    | Some b -> fun nodes -> nodes > b
    | None -> fun _ -> false
  in
  let time_stop =
    match deadline with
    | None -> fun _ -> false
    (* the clock is only consulted every 1024 nodes: a clock read per
       node would dominate the search itself *)
    | Some d ->
        fun nodes -> nodes land 1023 = 0 && Fc.exact_gt (Clock.now ()) d
  in
  fun nodes -> node_stop nodes || time_stop nodes

(* a non-positive or non-finite budget is an already-expired deadline *)
let deadline_of_budget b =
  if Fc.exact_le b 0. || not (Float.is_finite b) then neg_infinity
  else Clock.now () +. b

(* ---------------------------------------------------------------- *)
(* Work-stealing search over subtrees.

   A subtree is a search-tree node labelled with its DFS path — the
   child indices from the root — so subtrees produced on demand, at any
   depth and in any order, are still totally ordered by depth-first
   position (paths compared lexicographically, a prefix first): all
   leaves of a path-lesser subtree precede all leaves of a path-greater
   one. Combining completed results by (cost, then path, keeping strict
   improvements) therefore yields the sequential search's solution for
   any carving of the tree and any execution order. *)

type subtree = { state : state; path : int list }

(* the monotone lower bound of the subtree's prefix: every leaf below
   costs at least this *)
let subtree_bound e t =
  let acc = ref (t.state.penalty +. e.forced_penalty) in
  for j = 0 to e.m - 1 do
    acc := !acc +. t.state.energies.(j)
  done;
  !acc

let default_split_factor = 4

(* The split factor maps to a *grain*: a popped subtree with more than
   [grain] undecided items is expanded (its children pushed on the
   owner's deque, stealable); at or below it, the subtree is run whole.
   Larger factors granulate finer. The floor of 3 keeps run units at
   least a few hundred raw nodes, so deque traffic never dominates. *)
let grain_of_split_factor sf =
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  max 3 (6 - log2 sf)

(* one worker's private tally, allocated inside its own call (fresh per
   domain — nothing here crosses domains) and returned through the pool *)
type worker_out = {
  results : (int list * run) list;
  steals : int;
  splits : int;
  pruned : int;
}

(* [workers + 1] deques: one per worker plus an ownerless seed deque
   holding the root subtree, so every worker's first unit of work — the
   root-taker's included — arrives by stealing; bootstrapping is not a
   special case. Each worker pops its own deque LIFO (depth-first), and
   when empty sweeps the other deques' shallow ends. Workers coordinate
   through four atomics:

   - [outstanding]: subtrees in deques plus in flight. An expansion
     converts one outstanding subtree into k (incremented *before* the
     children are pushed, so a thief finishing a child early can never
     drive the count to zero while the parent still holds work);
     completing or pruning a subtree decrements. Zero means done.
   - [shared], the incumbent, which makes pruning cooperative without
     threatening determinism: both the in-search cut and the
     whole-subtree drop below fire only on *strictly* worse bounds.
   - [drained], set on the first budget-exhausted subtree run: the
     engine stops expanding — without this, a tiny [node_budget] on a
     big instance would keep carving frontier (expansion visits no
     nodes, so per-subtree budgets alone cannot bound the spine).
   - [quit], set by every worker leaving its loop: normally (when
     [outstanding] is already zero) or because its subtree run raised,
     so the others stop hunting instead of spinning on a count that
     will never reach zero; the pool then re-raises the exception and
     stays usable.

   Idle workers spin with [Domain.cpu_relax] between sweeps rather than
   parking on a condition variable: run units are bounded by the grain
   (a few hundred nodes, microseconds), so hunger gaps are short, and
   spinning keeps every deque operation a single self-contained
   [Mutex.protect] section — no cross-deque lock nesting for the
   lock-order analysis to reason about. *)
let run_ws pool ~grain ~prune ~shared ?node_budget ?deadline e =
  let workers = Pool.size pool in
  let slots = workers + 1 in
  let deques =
    (Array.init slots (fun _ -> Deque.create ())
    [@rt.domain_safe
      "allocated and fully populated before the workers are submitted; \
       indexed reads only afterwards — all mutation is inside Deque's own \
       critical sections"])
  in
  let outstanding = Atomic.make 1 in
  let quit = Atomic.make false in
  let drained = Atomic.make false in
  Deque.push deques.(slots - 1) { state = root e; path = [] };
  let worker w =
    let results = ref [] in
    let steals = ref 0 in
    let splits = ref 0 in
    let pruned = ref 0 in
    let deadline_expired () =
      match deadline with
      | None -> false
      | Some d -> Fc.exact_gt (Clock.now ()) d
    in
    let finish t =
      (* an expired deadline turns the run into a drain: a zero node
         budget stops at the first node, returning the subtree's
         reject-the-rest seed incumbent with [exhausted = true] — every
         pending subtree still yields a valid result, cheaply *)
      let node_budget = if deadline_expired () then Some 0 else node_budget in
      let stop = make_stop ?node_budget ?deadline () in
      let r = run_from ~shared ~prune ~stop e t.state in
      if r.stopped then Atomic.set drained true;
      results := (t.path, r) :: !results;
      ignore (Atomic.fetch_and_add outstanding (-1))
    in
    let process t =
      if prune && Fc.exact_gt (subtree_bound e t) (Atomic.get shared) then begin
        (* strictly worse than a published feasible cost: no leaf below
           can match the returned optimum, so dropping the subtree whole
           preserves determinism (the subtree holding the optimum has
           bound <= optimum <= shared and is never dropped) *)
        incr pruned;
        ignore (Atomic.fetch_and_add outstanding (-1))
      end
      else if
        Array.length e.arr - t.state.next > grain
        && (not (Atomic.get drained))
        && not (deadline_expired ())
      then begin
        (* more than [grain] >= 3 open items: an interior node *)
        let children =
          List.mapi
            (fun i state -> { state; path = t.path @ [ i ] })
            (expand e t.state)
        in
        incr splits;
        ignore (Atomic.fetch_and_add outstanding (List.length children - 1));
        (* reversed, so the owner pops the first child next: the local
           order stays depth-first, and the deque's shallow end holds the
           latest (largest) unexplored siblings *)
        List.iter (Deque.push deques.(w)) (List.rev children)
      end
      else finish t
    in
    let rec loop () =
      if not (Atomic.get quit) then
        match Deque.pop deques.(w) with
        | Some t ->
            process t;
            loop ()
        | None -> hunt 0
    and hunt k =
      if not (Atomic.get quit) then
        if k = slots - 1 then begin
          if Atomic.get outstanding <> 0 then begin
            Domain.cpu_relax ();
            hunt 0
          end
        end
        else
          let victim = (w + 1 + k) mod slots in
          match Deque.steal deques.(victim) with
          | Some t ->
              incr steals;
              process t;
              loop ()
          | None -> hunt (k + 1)
    in
    Fun.protect ~finally:(fun () -> Atomic.set quit true) loop;
    { results = !results; steals = !steals; splits = !splits; pruned = !pruned }
  in
  Pool.map ~pool worker (List.init workers Fun.id)

(* Results arrive DFS-sorted (by subtree path), so keeping only strict
   improvements makes the earliest subtree win ties — the same solution
   the sequential depth-first search would have returned. Only that
   winner's solution is built. *)
let combine results =
  List.fold_left
    (fun acc (_, r) ->
      match acc with
      | None -> Some (r, r.nodes, r.stopped)
      | Some (best, total, ex) ->
          Some
            ( (if Fc.exact_lt r.cost best.cost then r else best),
              total + r.nodes,
              ex || r.stopped ))
    None results

let run_pool pool ~split_factor ~prune ~shared ?node_budget ?deadline e =
  let grain = grain_of_split_factor split_factor in
  let outs = run_ws pool ~grain ~prune ~shared ?node_budget ?deadline e in
  let sorted =
    List.sort
      (fun (p, _) (q, _) -> List.compare Int.compare p q)
      (List.concat_map (fun o -> o.results) outs)
  in
  match combine sorted with
  | None -> Error "Search: every subtree was pruned before running"
  | Some (best, nodes, exhausted) ->
      let sum f = List.fold_left (fun acc o -> acc + f o) 0 outs in
      Ok
        {
          best = solution e best;
          nodes;
          exhausted;
          stats =
            {
              steals = List.map (fun (o : worker_out) -> o.steals) outs;
              splits = sum (fun o -> o.splits);
              pruned = sum (fun o -> o.pruned);
              subtrees = List.map (fun (p, r) -> (p, r.nodes)) sorted;
            };
        }

(* ---------------------------------------------------------------- *)

let node_limit = 50_000_000

let solve ?pool ?(split_factor = default_split_factor) ?shared ?node_budget
    ?time_budget ?(prune = true) ~m ~capacity ~bucket_cost items =
  if m < 1 then Error "Search: m < 1"
  else if Fc.exact_le capacity 0. then Error "Search: capacity <= 0"
  else if split_factor < 1 then
    Error
      (Printf.sprintf "Search: split factor must be at least 1 (got %d)"
         split_factor)
  else
    match node_budget with
    | Some b when b < 0 ->
        Error
          (Printf.sprintf "Search: node budget must be non-negative (got %d)"
             b)
    | None
      when (not prune) && Option.is_none time_budget && List.length items > 16
      ->
        Error
          "Search: full enumeration of more than 16 items needs a node or \
           time budget"
    | _ -> (
        let e = prepare ~m ~capacity ~bucket_cost items in
        let deadline = Option.map deadline_of_budget time_budget in
        match pool with
        | Some pool ->
            let shared = Option.value shared ~default:(Atomic.make infinity) in
            run_pool pool ~split_factor ~prune ~shared ?node_budget ?deadline e
        | None ->
            let stop = make_stop ?node_budget ?deadline () in
            let r = run_from ?shared ~prune ~stop e (root e) in
            let stats =
              {
                steals = [];
                splits = 0;
                pruned = 0;
                subtrees = [ ([], r.nodes) ];
              }
            in
            Ok
              {
                best = solution e r;
                nodes = r.nodes;
                exhausted = r.stopped;
                stats;
              })
