(* Growable ring buffer under one mutex. [head] indexes the oldest
   (shallowest) entry; the owner's end is [head + len - 1]. Slots are
   cleared on removal so the deque never retains a subtree (and its
   load/bucket arrays) it no longer owns. *)

type 'a t = {
  lock : Mutex.t;
  mutable buf : 'a option array; [@rt.guarded_by "lock"]
  mutable head : int; [@rt.guarded_by "lock"]
  mutable len : int; [@rt.guarded_by "lock"]
}

let create () =
  { lock = Mutex.create (); buf = Array.make 16 None; head = 0; len = 0 }

(* growth is inlined in [push] rather than a helper: the concurrency
   lint checks lock discipline lexically, and keeping every guarded
   access inside the [Mutex.protect] literal keeps the proof visible *)
let push t x =
  Mutex.protect t.lock (fun () ->
      if t.len = Array.length t.buf then begin
        (* full: double the capacity, re-packing entries from [head] *)
        let cap = Array.length t.buf in
        let buf = Array.make (2 * cap) None in
        for i = 0 to t.len - 1 do
          buf.(i) <- t.buf.((t.head + i) mod cap)
        done;
        t.buf <- buf;
        t.head <- 0
      end;
      t.buf.((t.head + t.len) mod Array.length t.buf) <- Some x;
      t.len <- t.len + 1)

let pop t =
  Mutex.protect t.lock (fun () ->
      if t.len = 0 then None
      else begin
        let i = (t.head + t.len - 1) mod Array.length t.buf in
        let x = t.buf.(i) in
        t.buf.(i) <- None;
        t.len <- t.len - 1;
        x
      end)

let steal t =
  Mutex.protect t.lock (fun () ->
      if t.len = 0 then None
      else begin
        let x = t.buf.(t.head) in
        t.buf.(t.head) <- None;
        t.head <- (t.head + 1) mod Array.length t.buf;
        t.len <- t.len - 1;
        x
      end)
