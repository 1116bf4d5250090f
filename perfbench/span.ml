(* In-memory spans for the traced run.

   The benchmark wraps each call it makes into a layer's public function
   in a span (name, start, end, parent, op id).  Spans are aggregated as
   they close — a span's self time is its duration minus the time its
   child spans cover, and likewise for minor-heap words — and the first
   [cap] of them are kept in memory and written out at exit.  Nothing
   here runs in the untraced run. *)

let now_ns () = Int64.to_int (Rt_prelude.Clock.now_ns ())
let max_depth = 16

type agg = {
  mutable self_ns : int;
  mutable self_words : float;
}

type t = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable aggs : agg array;
  (* open spans, outermost first *)
  st_name : int array;
  st_start : int array;
  st_words : float array;
  st_child_ns : int array;
  st_child_words : float array;
  st_log : int array;
  mutable depth : int;
  mutable last_ns : int;
  mutable op : int;
  (* the kept log *)
  cap : int;
  lg_name : int array;
  lg_start : int array;
  lg_end : int array;
  lg_parent : int array;
  lg_op : int array;
  mutable logged : int;
  mutable dropped : int;
}

let create () =
  let cap = 1 lsl 16 in
  {
    ids = Hashtbl.create 32;
    names = [||];
    aggs = [||];
    st_name = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_words = Array.make max_depth 0.;
    st_child_ns = Array.make max_depth 0;
    st_child_words = Array.make max_depth 0.;
    st_log = Array.make max_depth (-1);
    depth = 0;
    last_ns = 0;
    op = 0;
    cap;
    lg_name = Array.make cap 0;
    lg_start = Array.make cap 0;
    lg_end = Array.make cap 0;
    lg_parent = Array.make cap (-1);
    lg_op = Array.make cap 0;
    logged = 0;
    dropped = 0;
  }

(* The id of a span name, registered on first use; look ids up once,
   outside the measured loop. *)
let id t name =
  match Hashtbl.find_opt t.ids name with
  | Some i -> i
  | None ->
      let i = Array.length t.names in
      Hashtbl.replace t.ids name i;
      t.names <- Array.append t.names [| name |];
      t.aggs <-
        Array.append t.aggs [| { self_ns = 0; self_words = 0. } |];
      i

let set_op t op = t.op <- op

let enter t name =
  let d = t.depth in
  if d = max_depth then invalid_arg "Span.enter: nesting too deep";
  t.st_name.(d) <- name;
  t.st_child_ns.(d) <- 0;
  t.st_child_words.(d) <- 0.;
  (if t.logged < t.cap then begin
     let k = t.logged in
     t.lg_name.(k) <- name;
     t.lg_parent.(k) <- (if d = 0 then -1 else t.st_log.(d - 1));
     t.lg_op.(k) <- t.op;
     t.st_log.(d) <- k;
     t.logged <- k + 1
   end
   else begin
     t.st_log.(d) <- -1;
     t.dropped <- t.dropped + 1
   end);
  t.depth <- d + 1;
  (* read the clock last and the heap counter first on the way out, so
     the span covers as little of its own bookkeeping as possible *)
  t.st_words.(d) <- Gc.minor_words ();
  t.st_start.(d) <- now_ns ()

let leave t =
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  let d = t.depth - 1 in
  let dur = t1 - t.st_start.(d) in
  let words = w1 -. t.st_words.(d) in
  let a = t.aggs.(t.st_name.(d)) in
  a.self_ns <- a.self_ns + dur - t.st_child_ns.(d);
  a.self_words <- a.self_words +. words -. t.st_child_words.(d);
  if d > 0 then begin
    t.st_child_ns.(d - 1) <- t.st_child_ns.(d - 1) + dur;
    t.st_child_words.(d - 1) <- t.st_child_words.(d - 1) +. words
  end;
  let k = t.st_log.(d) in
  if k >= 0 then begin
    t.lg_start.(k) <- t.st_start.(d);
    t.lg_end.(k) <- t1
  end;
  t.last_ns <- dur;
  t.depth <- d

let within t name f =
  enter t name;
  match f () with
  | v ->
      leave t;
      v
  | exception e ->
      leave t;
      raise e

(* Duration of the span that closed last, in seconds. *)
let last_s t = float_of_int t.last_ns *. 1e-9

let find t name = Option.map (fun i -> t.aggs.(i)) (Hashtbl.find_opt t.ids name)

let self_s t name =
  match find t name with Some a -> float_of_int a.self_ns *. 1e-9 | None -> 0.

let self_words t name =
  match find t name with Some a -> a.self_words | None -> 0.

let write t path =
  let oc = open_out path in
  Printf.fprintf oc "# spans kept %d, dropped %d (cap %d)\n" t.logged
    t.dropped t.cap;
  output_string oc "span\tname\tstart_ns\tend_ns\tparent\top\n";
  for k = 0 to t.logged - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" k t.names.(t.lg_name.(k))
      t.lg_start.(k) t.lg_end.(k) t.lg_parent.(k) t.lg_op.(k)
  done;
  close_out oc
