module Job = Rt_online.Job

type t = {
  mutable jobs : Job.t array;
  mutable rates : float array;  (** penalty per cycle, slot for slot *)
  mutable head : int;  (** slot of the oldest entry *)
  mutable len : int;
}

let create () = { jobs = [||]; rates = [||]; head = 0; len = 0 }
let length q = q.len

(* slot of the [i]th oldest entry, [0 <= i <= len] *)
let slot q i =
  let s = q.head + i in
  let cap = Array.length q.jobs in
  if s >= cap then s - cap else s

(* double the ring (16 slots at the first push), oldest entry first;
   [j] only seeds the fresh slots *)
let grow q (j : Job.t) =
  let cap = Int.max 16 (2 * Array.length q.jobs) in
  let jobs = Array.make cap j and rates = Array.make cap 0. in
  for i = 0 to q.len - 1 do
    let s = slot q i in
    jobs.(i) <- q.jobs.(s);
    rates.(i) <- q.rates.(s)
  done;
  q.jobs <- jobs;
  q.rates <- rates;
  q.head <- 0

let push q (j : Job.t) =
  if q.len = Array.length q.jobs then grow q j;
  let s = slot q q.len in
  q.jobs.(s) <- j;
  q.rates.(s) <- j.Job.penalty /. j.Job.cycles;
  q.len <- q.len + 1

let peek q =
  if q.len = 0 then invalid_arg "Ingress.peek: empty queue";
  q.jobs.(q.head)

let pop q =
  if q.len = 0 then invalid_arg "Ingress.pop: empty queue";
  let j = q.jobs.(q.head) in
  q.head <- slot q 1;
  q.len <- q.len - 1;
  j

let shed q =
  if q.len = 0 then invalid_arg "Ingress.shed: empty queue";
  (* the first least (rate, id) in arrival order: only a strictly
     smaller key displaces the best so far *)
  let best = ref 0 and best_s = ref q.head in
  for i = 1 to q.len - 1 do
    let s = slot q i in
    let c = Float.compare q.rates.(s) q.rates.(!best_s) in
    if c < 0 || (c = 0 && q.jobs.(s).Job.id < q.jobs.(!best_s).Job.id)
    then begin
      best := i;
      best_s := s
    end
  done;
  let j = q.jobs.(!best_s) in
  (* close the gap: every younger entry moves one slot toward the head *)
  for i = !best to q.len - 2 do
    let dst = slot q i and src = slot q (i + 1) in
    q.jobs.(dst) <- q.jobs.(src);
    q.rates.(dst) <- q.rates.(src)
  done;
  q.len <- q.len - 1;
  j
