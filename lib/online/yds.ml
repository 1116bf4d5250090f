module Fc = Rt_prelude.Float_cmp
type block = { intensity : float; length : float; work : float }

let check jobs =
  if
    not
      (Rt_task.Task.distinct_ids (List.map (fun (j : Job.t) -> j.Job.id) jobs))
  then invalid_arg "Yds: duplicate job ids"
[@@rt.cold "once per call, before the decomposition"]

(* The live jobs on the compressed timeline. Job j (its input position)
   has arrival [a.(j)], deadline [d.(j)] and cycles [c.(j)];
   [live.(0 .. k-1)] lists the live jobs in input order, the order a
   window's work is summed in, and [by_a]/[by_d] list the same jobs by
   arrival and by deadline. Block b of the result is
   [out.(3b .. 3b+2)] = intensity, length, work. *)
type state = {
  a : float array;
  d : float array;
  c : float array;
  live : int array;
  by_a : int array;
  by_d : int array;
  mutable k : int;
  cell : float array;
      (* unboxed accumulators: 0 sweep sum, 1 input-order sum; the
         critical interval so far: 2 intensity, 3 t1, 4 t2, 5 work *)
  out : float array;
  mutable nb : int;
}

let state_of jobs =
  let js = Array.of_list jobs in
  let n = Array.length js in
  {
    a = Array.map (fun (j : Job.t) -> j.Job.arrival) js;
    d = Array.map (fun (j : Job.t) -> j.Job.deadline) js;
    c = Array.map (fun (j : Job.t) -> j.Job.cycles) js;
    live = Array.init n Fun.id;
    by_a = Array.init n Fun.id;
    by_d = Array.init n Fun.id;
    k = n;
    cell = Array.make 6 0.;
    out = Array.make (3 * n) 0.;
    nb = 0;
  }
[@@rt.cold "once per call, before the decomposition"]

(* insertion sort of [idx.(0 .. k-1)] by [key]: near-linear on the
   almost-sorted orders an excision leaves behind *)
let sort_by key idx k =
  for q = 1 to k - 1 do
    let i = idx.(q) in
    let p = ref (q - 1) in
    while !p >= 0 && Float.compare key.(idx.(!p)) key.(i) > 0 do
      idx.(!p + 1) <- idx.(!p);
      decr p
    done;
    idx.(!p + 1) <- i
  done

(* the work of window [t1, t2] into [cell.(1)], summed over the live jobs
   in input order *)
let[@inline] price st t1 t2 =
  st.cell.(1) <- 0.;
  for q = 0 to st.k - 1 do
    let j = st.live.(q) in
    if Float.compare st.a.(j) t1 >= 0 && Float.compare st.d.(j) t2 <= 0 then
      st.cell.(1) <- st.cell.(1) +. st.c.(j)
  done

(* The maximum-intensity window over the candidate endpoints (arrivals ×
   deadlines), scanned in (t1, t2) order: a later window replaces the
   best only if its intensity exceeds it by more than 1e-15, so near-ties
   go to the earliest window. For each start one sweep over the jobs in
   deadline order sums every window's work. That sum adds the same
   positive terms as the input-order sum in another order, so the two
   intensities differ by under (k+1)·2^-52 of the sweep's, and the
   bound allows (4k+8)·2^-52. A window whose bound cannot beat the best
   is skipped; every other one is re-priced in input order and put
   through the rule. Since x - 1e-15 rounds monotonically, the skip
   never changes a decision, so the result is bit for bit that of
   pricing every window in input order. Returns whether a window was
   found. *)
let critical_interval st =
  let { a; d; c; by_a; by_d; k; cell; _ } = st in
  sort_by a by_a k;
  sort_by d by_d k;
  let slack = 1. +. (Float.of_int ((4 * k) + 8) *. Float.epsilon) in
  cell.(2) <- Float.neg_infinity;
  for s = 0 to k - 1 do
    let t1 = a.(by_a.(s)) in
    if s = 0 || Float.compare a.(by_a.(s - 1)) t1 < 0 then begin
      cell.(0) <- 0.;
      for q = 0 to k - 1 do
        let j = by_d.(q) in
        if Float.compare a.(j) t1 >= 0 then cell.(0) <- cell.(0) +. c.(j);
        let t2 = d.(j) in
        if
          (q = k - 1 || Float.compare d.(by_d.(q + 1)) t2 > 0)
          && Float.compare t2 t1 > 0
          && Float.compare cell.(0) 0. > 0
        then begin
          let length = t2 -. t1 in
          let bound = cell.(0) /. length *. slack in
          if Float.compare cell.(2) (bound -. 1e-15) < 0 then begin
            price st t1 t2;
            let intensity = cell.(1) /. length in
            if Float.compare cell.(2) (intensity -. 1e-15) < 0 then begin
              cell.(2) <- intensity;
              cell.(3) <- t1;
              cell.(4) <- t2;
              cell.(5) <- cell.(1)
            end
          end
        end
      done
    end
  done;
  Float.compare cell.(2) Float.neg_infinity > 0

(* a time on the timeline with [t1, t2] cut out: inside the window it
   collapses onto t1, after it shifts left by the window's length *)
let[@inline] squeeze t1 t2 length t =
  if Float.compare t t1 <= 0 then t
  else if Float.compare t t2 >= 0 then t -. length
  else t1

(* drop the jobs inside the critical interval from the three orders and
   excise the interval from the survivors' times *)
let excise st =
  let t1 = st.cell.(3) and t2 = st.cell.(4) in
  let length = t2 -. t1 in
  let compact idx =
    let k = ref 0 in
    for q = 0 to st.k - 1 do
      let j = idx.(q) in
      if Float.compare st.a.(j) t1 < 0 || Float.compare st.d.(j) t2 > 0 then begin
        idx.(!k) <- j;
        incr k
      end
    done;
    !k
  in
  ignore (compact st.by_a : int);
  ignore (compact st.by_d : int);
  st.k <- compact st.live;
  for q = 0 to st.k - 1 do
    let j = st.live.(q) in
    st.a.(j) <- squeeze t1 t2 length st.a.(j);
    st.d.(j) <- squeeze t1 t2 length st.d.(j)
  done

let to_blocks st =
  List.init st.nb (fun b ->
      {
        intensity = st.out.(3 * b);
        length = st.out.((3 * b) + 1);
        work = st.out.((3 * b) + 2);
      })
[@@rt.cold "once per call, after the decomposition"]

let blocks jobs =
  check jobs;
  let st = state_of jobs in
  while critical_interval st do
    let b = 3 * st.nb in
    st.out.(b) <- st.cell.(2);
    st.out.(b + 1) <- st.cell.(4) -. st.cell.(3);
    st.out.(b + 2) <- st.cell.(5);
    st.nb <- st.nb + 1;
    excise st
  done;
  to_blocks st

let energy ~(proc : Rt_power.Processor.t) jobs =
  if not (Rt_power.Processor.is_ideal proc) then
    Error "Yds.energy: ideal processors only"
  else begin
    let bs = blocks jobs in
    let s_max = Rt_power.Processor.s_max proc in
    match bs with
    | b :: _ when Rt_prelude.Float_cmp.gt b.intensity s_max ->
        Error "Yds.energy: infeasible (peak intensity above s_max)"
    | _ ->
        let model = proc.Rt_power.Processor.model in
        let s_floor = Rt_power.Processor.floor_speed proc in
        let p_rest = Rt_power.Processor.rest_power proc in
        Ok
          (List.fold_left
             (fun acc b ->
               let s = Float.min s_max (Float.max s_floor b.intensity) in
               if Fc.exact_le s 0. then acc
               else begin
                 let busy = b.work /. s in
                 acc
                 +. (busy *. Rt_power.Power_model.power model s)
                 +. ((b.length -. busy) *. p_rest)
               end)
             0. bs)
  end
