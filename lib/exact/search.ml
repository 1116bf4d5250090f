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
  subtrees : int;
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
   prefix; [expand] enumerates a node's children, which partition its
   leaves: all leaves of one child precede all leaves of the next in
   depth-first visit order (buckets 0..used, first unused bucket for
   symmetry breaking, then rejection).

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

(* Children of an interior node ([st.next] < number of items), last in
   depth-first order first: rejection, then buckets [used] down to 0 —
   the order an owner pushes them, so that it pops the first child
   next. *)
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
  for j = 0 to min (e.m - 1) st.used do
    if Fc.leq (st.loads.(j) +. it.weight) e.capacity then
      children :=
        child ~used:(max st.used (j + 1)) ~penalty:st.penalty j :: !children
  done;
  child ~used:st.used ~penalty:(st.penalty +. it.item_penalty) (-1)
  :: !children

(* A node's monotone lower bound — a leaf's cost — summed as [run_from]
   sums it: energies in bucket order, then the committed penalties. *)
let bound e energies penalty =
  let acc = ref 0. in
  for j = 0 to e.m - 1 do
    acc := !acc +. energies.(j)
  done;
  !acc +. penalty +. e.forced_penalty

(* The cost of rejecting every open item of [st] (always feasible),
   summed as [run_from] sums that leaf: penalties one by one onto the
   prefix's. *)
let seed_cost e st =
  let penalty = ref st.penalty in
  for i = st.next to Array.length e.arr - 1 do
    penalty := !penalty +. e.arr.(i).item_penalty
  done;
  bound e st.energies !penalty

(* The solution a search returns: its best leaf if that strictly beats
   the root's reject-everything seed, else the seed. A leaf lists its
   buckets in decision order and its rejections latest first; the seed
   lists every item in decision order. *)
let answer e ~seed best =
  let buckets = Array.make e.m [] in
  let cost, rejected =
    match best with
    | Some (cost, assign) when Fc.exact_lt cost seed ->
        let rejected = ref [] in
        Array.iteri
          (fun i j ->
            let it = e.arr.(i) in
            if j < 0 then rejected := it :: !rejected
            else buckets.(j) <- it :: buckets.(j))
          assign;
        (cost, !rejected)
    | _ -> (seed, Array.to_list e.arr)
  in
  {
    partition = Rt_partition.Partition.of_buckets (Array.map List.rev buckets);
    rejected = rejected @ e.forced;
    cost;
  }

type run = {
  leaf : (float * int array) option;
      (* the first cheapest leaf in DFS order, if it beat [incumbent] *)
  nodes : int;
  stopped : bool;
}

(* Depth-first exploration from [st] until done or until [stop nodes]
   holds; returns the first leaf in DFS order of the least cost strictly
   below [incumbent], the nodes visited and whether [stop] fired. The
   domain running this owns the private [loads]/[energies]/[assign]
   copies; the only cross-domain traffic is the optional [shared]
   incumbent, which cuts strictly. A placement evaluates [bucket_cost]
   once, on the changed bucket's new load; a rejection evaluates nothing.
   Backtracking restores each load and energy to the exact float it held
   before the move (rather than subtracting the weight back out), so the
   cost of a leaf is a pure function of its assignment — identical
   whether reached sequentially or from a pooled unit. Bounds and leaf
   costs sum the energies in bucket order, as one evaluation per bucket
   would. Decisions live in [assign]; lists are built only for the
   solution finally returned ([answer]). Once stopped, every pending
   call returns at once, so the node count is that of the stopping
   node. *)
let run_from ?shared ~prune ~stop ~incumbent e st =
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
  let best_cost = ref incumbent in
  let best = ref None in
  let foreign_cut bound =
    match shared with
    | None -> false
    | Some cell -> Fc.exact_gt bound (Atomic.get cell)
  [@@inline]
  in
  let publish_best =
    match shared with None -> fun _ -> () | Some cell -> publish cell
  in
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
            best := Some (Array.copy assign);
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
    leaf = Option.map (fun a -> (!best_cost, a)) !best;
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
(* Work-stealing search over units.

   A unit is a search-tree node. One with more than [grain] open items
   is expanded into its children, which thieves can take; the rest are
   run whole by [run_from] with no incumbent of their own. A unit's
   reject-the-rest seed is only published to the shared bound, which
   cuts strictly, so the unit still reaches every leaf that could tie
   the optimum, and returns the first cheapest of its leaves in DFS
   order. Workers fold those leaves by [better], a total order, so the
   fold yields the first cheapest leaf of the whole tree for any carving
   and any schedule; [answer] then applies the sequential rule to it. *)

let grain = 4

(* [a] precedes [b] in depth-first order: at the first differing decision
   the lower bucket comes first and a rejection ([-1]) last, as
   [run_from] visits them *)
let dfs_before a b =
  let rec go i =
    i < Array.length a
    &&
    let x = a.(i) and y = b.(i) in
    if x = y then go (i + 1) else x >= 0 && (y < 0 || x < y)
  in
  go 0

(* the better of two leaves: lower cost, then first in DFS order *)
let better x y =
  match (x, y) with
  | None, z | z, None -> z
  | Some (c, a), Some (c', b) ->
      if Fc.exact_lt c c' || (Fc.exact_eq c c' && dfs_before a b) then x
      else y

(* one worker's private tally, allocated inside its own call (fresh per
   domain — nothing here crosses domains) and returned through the pool *)
type worker_out = {
  found : (float * int array) option;  (** best leaf of its units *)
  visited : int;
  units : int;
  steals : int;
  splits : int;
  pruned : int;
}

(* [workers + 1] deques: one per worker plus an ownerless seed deque
   holding the root, so every worker's first unit of work — the
   root-taker's included — arrives by stealing; bootstrapping is not a
   special case. Each worker pops its own deque LIFO (depth-first), and
   when empty sweeps the other deques' shallow ends. Workers coordinate
   through four atomics:

   - [outstanding]: units in deques plus in flight. An expansion
     converts one outstanding unit into k (incremented *before* the
     children are pushed, so a thief finishing a child early can never
     drive the count to zero while the parent still holds work);
     running, pruning or dropping a unit decrements. Zero means done.
   - [shared], the incumbent, which makes pruning cooperative without
     threatening determinism: both the in-search cut and the whole-unit
     drop below fire only on *strictly* worse bounds.
   - [exhausted], set when a budget stops a unit or the deadline drops
     one: the engine stops expanding — without this, a tiny
     [node_budget] on a big instance would keep carving frontier
     (expansion visits no nodes, so per-unit budgets alone cannot bound
     the spine).
   - [quit], set by every worker leaving its loop: normally (when
     [outstanding] is already zero) or because its unit raised, so the
     others stop hunting instead of spinning on a count that will never
     reach zero; the pool then re-raises the exception and stays usable.

   The clock is read once per popped unit; past the deadline the unit
   is dropped unrun, so the deques drain at the cost of a pop each.

   Idle workers spin with [Domain.cpu_relax] between sweeps rather than
   parking on a condition variable: units are bounded by the grain (tens
   of nodes, microseconds), so hunger gaps are short, and spinning keeps
   every deque operation a single self-contained [Mutex.protect]
   section — no cross-deque lock nesting for the lock-order analysis to
   reason about. *)
let run_pool pool ~prune ~shared ?node_budget ?deadline e =
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
  let exhausted = Atomic.make false in
  let start = root e in
  let seed = seed_cost e start in
  Deque.push deques.(slots - 1) start;
  let worker w =
    let stop = make_stop ?node_budget ?deadline () in
    let found = ref None in
    let visited = ref 0 in
    let units = ref 0 in
    let steals = ref 0 in
    let splits = ref 0 in
    let pruned = ref 0 in
    let settle () = ignore (Atomic.fetch_and_add outstanding (-1)) in
    let process st =
      if
        match deadline with
        | None -> false
        | Some d -> Fc.exact_gt (Clock.now ()) d
      then begin
        Atomic.set exhausted true;
        settle ()
      end
      else if
        prune
        && Fc.exact_gt (bound e st.energies st.penalty) (Atomic.get shared)
      then begin
        (* strictly worse than a published feasible cost: no leaf below
           can match the returned optimum, so dropping the unit whole
           preserves determinism (the unit holding the optimum has
           bound <= optimum <= shared and is never dropped) *)
        incr pruned;
        settle ()
      end
      else if
        Array.length e.arr - st.next > grain && not (Atomic.get exhausted)
      then begin
        let children = expand e st in
        incr splits;
        ignore (Atomic.fetch_and_add outstanding (List.length children - 1));
        List.iter (Deque.push deques.(w)) children
      end
      else begin
        publish shared (seed_cost e st);
        let r = run_from ~shared ~prune ~stop ~incumbent:infinity e st in
        if r.stopped then Atomic.set exhausted true;
        found := better !found r.leaf;
        visited := !visited + r.nodes;
        incr units;
        settle ()
      end
    in
    let rec loop () =
      if not (Atomic.get quit) then
        match Deque.pop deques.(w) with
        | Some st ->
            process st;
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
          | Some st ->
              incr steals;
              process st;
              loop ()
          | None -> hunt (k + 1)
    in
    Fun.protect ~finally:(fun () -> Atomic.set quit true) loop;
    {
      found = !found;
      visited = !visited;
      units = !units;
      steals = !steals;
      splits = !splits;
      pruned = !pruned;
    }
  in
  let outs = Pool.map ~pool worker (List.init workers Fun.id) in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outs in
  {
    best =
      answer e ~seed (List.fold_left (fun b o -> better b o.found) None outs);
    nodes = sum (fun o -> o.visited);
    exhausted = Atomic.get exhausted;
    stats =
      {
        steals = List.map (fun o -> o.steals) outs;
        splits = sum (fun o -> o.splits);
        pruned = sum (fun o -> o.pruned);
        subtrees = sum (fun o -> o.units);
      };
  }

(* ---------------------------------------------------------------- *)

let node_limit = 50_000_000

let solve ?pool ?shared ?node_budget ?time_budget ?(prune = true) ~m ~capacity
    ~bucket_cost items =
  if m < 1 then Error "Search: m < 1"
  else if Fc.exact_le capacity 0. then Error "Search: capacity <= 0"
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
            Ok (run_pool pool ~prune ~shared ?node_budget ?deadline e)
        | None ->
            let start = root e in
            let seed = seed_cost e start in
            Option.iter (fun cell -> publish cell seed) shared;
            let stop = make_stop ?node_budget ?deadline () in
            let r = run_from ?shared ~prune ~stop ~incumbent:seed e start in
            Ok
              {
                best = answer e ~seed r.leaf;
                nodes = r.nodes;
                exhausted = r.stopped;
                stats = { steals = []; splits = 0; pruned = 0; subtrees = 1 };
              })
