open Rt_task

(* [sums] caches the per-bucket weight totals so load queries are O(1)
   reads instead of list folds; [add] maintains it incrementally (one
   addition), [of_buckets] recomputes it from the lists. The cache is
   never exposed by reference — {!loads} copies — so the value stays
   observably immutable. *)
type t = { m : int; buckets : Task.item list array; sums : float array }

let empty ~m =
  if m < 1 then invalid_arg "Partition.empty: m < 1";
  { m; buckets = Array.make m []; sums = Array.make m 0. }

let add t j it =
  if j < 0 || j >= t.m then invalid_arg "Partition.add: processor out of range";
  let buckets = Array.copy t.buckets in
  let sums = Array.copy t.sums in
  buckets.(j) <- it :: buckets.(j);
  sums.(j) <- sums.(j) +. it.weight;
  { t with buckets; sums }

let all_items t = Array.to_list t.buckets |> List.concat

(* hoisted so load queries on the hot path share one static closure
   instead of building a fresh one per bucket *)
let sum_weights b =
  List.fold_left (fun acc (it : Task.item) -> acc +. it.weight) 0. b

(* hoisted so the duplicate-id sweep below allocates no per-bucket
   closures *)
let rec check_distinct seen = function
  | [] -> ()
  | (it : Task.item) :: rest ->
      if Hashtbl.mem seen it.item_id then
        invalid_arg "Partition.of_buckets: duplicate item ids";
      Hashtbl.add seen it.item_id ();
      check_distinct seen rest

let of_buckets buckets =
  if Array.length buckets = 0 then invalid_arg "Partition.of_buckets: empty";
  let t =
    {
      m = Array.length buckets;
      buckets = Array.copy buckets;
      sums = Array.map sum_weights buckets;
    }
  in
  (* O(n) duplicate-id check over the buckets in place: the former
     concat + map + [Task.distinct_ids] sort was the dominant allocation
     of a greedy run at n=10^3 and above, for a validation pass. *)
  let n = Array.fold_left (fun acc b -> acc + List.length b) 0 buckets in
  let seen = Hashtbl.create (Int.max 16 (2 * n)) in
  for j = 0 to Array.length buckets - 1 do
    check_distinct seen buckets.(j)
  done;
  t

let m t = t.m

let bucket t j =
  if j < 0 || j >= t.m then invalid_arg "Partition.bucket: out of range";
  t.buckets.(j)

let size t = Array.fold_left (fun acc b -> acc + List.length b) 0 t.buckets

let loads t = Array.copy t.sums

let load t j =
  if j < 0 || j >= t.m then invalid_arg "Partition.bucket: out of range";
  t.sums.(j)

let makespan t = Array.fold_left Float.max 0. t.sums

let min_load_index t =
  let ls = t.sums in
  let best = ref 0 in
  Array.iteri
    (fun j l -> if Rt_prelude.Float_cmp.exact_lt l ls.(!best) then best := j)
    ls;
  !best

let processor_of t id =
  let found = ref None in
  Array.iteri
    (fun j b ->
      if !found = None && List.exists (fun (it : Task.item) -> it.item_id = id) b
      then found := Some j)
    t.buckets;
  !found

let id_set b =
  List.map (fun (it : Task.item) -> it.item_id) b |> List.sort compare

let equal_shape a b =
  a.m = b.m
  && Array.for_all2 (fun x y -> id_set x = id_set y) a.buckets b.buckets
