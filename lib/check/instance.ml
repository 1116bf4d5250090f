module Fc = Rt_prelude.Float_cmp
module Rng = Rt_prelude.Rng
module Json = Rt_prelude.Json

type proc_kind = Cubic | Xscale | Xscale_levels

type item = { id : int; wcec : int; penalty : float }

type t = {
  proc : proc_kind;
  m : int;
  frame_ticks : int;
  items : item list;
}

let dormancy_free =
  Rt_power.Processor.Dormant_enable { t_sw = 0.; e_sw = 0. }

let processor = function
  | Cubic -> Rt_power.Processor.cubic ()
  | Xscale -> Rt_power.Processor.xscale ~dormancy:dormancy_free
  | Xscale_levels -> Rt_power.Processor.xscale_levels ~dormancy:dormancy_free

let proc_name = function
  | Cubic -> "cubic"
  | Xscale -> "xscale"
  | Xscale_levels -> "xscale-levels"

let proc_of_name = function
  | "cubic" -> Ok Cubic
  | "xscale" -> Ok Xscale
  | "xscale-levels" -> Ok Xscale_levels
  | other -> Error ("unknown processor kind: " ^ other)

let make ~proc ~m ~frame_ticks items =
  if m < 1 then Error "Instance.make: m < 1"
  else if frame_ticks < 1 then Error "Instance.make: frame_ticks < 1"
  else if List.exists (fun it -> it.wcec < 1) items then
    Error "Instance.make: item with cycles < 1"
  else if
    List.exists
      (fun it -> Fc.exact_lt it.penalty 0. || not (Fc.is_finite it.penalty))
      items
  then Error "Instance.make: negative or non-finite penalty"
  else if not (Rt_task.Task.distinct_ids (List.map (fun it -> it.id) items))
  then Error "Instance.make: duplicate item ids"
  else Ok { proc; m; frame_ticks; items }

let frame_tasks t =
  List.map
    (fun it ->
      Rt_task.Task.frame ~penalty:it.penalty ~id:it.id ~cycles:it.wcec ())
    t.items

let to_problem t =
  Rt_core.Problem.of_frame ~proc:(processor t.proc) ~m:t.m
    ~frame_length:(float_of_int t.frame_ticks) (frame_tasks t)

let n t = List.length t.items

let load t =
  let total =
    List.fold_left (fun acc it -> acc +. float_of_int it.wcec) 0. t.items
  in
  total /. float_of_int t.frame_ticks /. float_of_int t.m

let label t =
  Printf.sprintf "proc=%s m=%d frame=%d n=%d load=%.2f" (proc_name t.proc)
    t.m t.frame_ticks (n t) (load t)

let equal a b =
  a.proc = b.proc && a.m = b.m && a.frame_ticks = b.frame_ticks
  && List.length a.items = List.length b.items
  && List.for_all2
       (fun x y ->
         x.id = y.id && x.wcec = y.wcec
         && Fc.exact_eq x.penalty y.penalty)
       a.items b.items

(* ------------------------------------------------------------------ *)
(* serialization *)

let format_tag = "rt-check-instance/1"

let to_json t =
  Json.Obj
    [
      ("format", Json.Str format_tag);
      ("proc", Json.Str (proc_name t.proc));
      ("m", Json.Int t.m);
      ("frame", Json.Int t.frame_ticks);
      ( "items",
        Json.List
          (List.map
             (fun it ->
               Json.Obj
                 [
                   ("id", Json.Int it.id);
                   ("cycles", Json.Int it.wcec);
                   ("penalty", Json.Float it.penalty);
                 ])
             t.items) );
    ]

let ( let* ) r f = Result.bind r f

let field name conv j =
  match Json.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match conv v with
      | Ok x -> Ok x
      | Error e -> Error (Printf.sprintf "field %S: %s" name e))

let of_json j =
  let* tag = field "format" Json.to_str j in
  if not (String.equal tag format_tag) then
    Error (Printf.sprintf "unsupported instance format %S" tag)
  else
    let* proc_s = field "proc" Json.to_str j in
    let* proc = proc_of_name proc_s in
    let* m = field "m" Json.to_int j in
    let* frame = field "frame" Json.to_int j in
    let* items_j = field "items" Json.to_list j in
    let* items =
      List.fold_left
        (fun acc ij ->
          let* acc = acc in
          let* id = field "id" Json.to_int ij in
          let* cycles = field "cycles" Json.to_int ij in
          let* penalty = field "penalty" Json.to_float ij in
          Ok ({ id; wcec = cycles; penalty } :: acc))
        (Ok []) items_j
    in
    make ~proc ~m ~frame_ticks:frame (List.rev items)

(* ------------------------------------------------------------------ *)
(* generation *)

type params = {
  n_lo : int;
  n_hi : int;
  m_hi : int;
  frame_ticks : int;
  load_lo : float;
  load_hi : float;
}

let default_params =
  { n_lo = 1; n_hi = 9; m_hi = 3; frame_ticks = 100; load_lo = 0.25;
    load_hi = 2.0 }

let generate rng p =
  let n = Rng.int rng ~lo:(max 1 p.n_lo) ~hi:(max p.n_lo p.n_hi) in
  let m = Rng.int rng ~lo:1 ~hi:(max 1 p.m_hi) in
  let proc = Rng.choice rng [ Cubic; Xscale; Xscale_levels ] in
  let load = Rng.float rng ~lo:p.load_lo ~hi:p.load_hi in
  let shares = Rng.uunifast rng ~n ~total:(load *. float_of_int m) in
  let pmax =
    Rt_power.Power_model.power (processor proc).Rt_power.Processor.model 1.
  in
  let items =
    List.mapi
      (fun id share ->
        let cycles =
          max 1
            (int_of_float
               (Float.round (share *. float_of_int p.frame_ticks)))
        in
        (* reference energy: run the item alone at top speed over the
           frame — the scale used by Rt_task.Penalty *)
        let e_ref = float_of_int cycles *. pmax in
        let penalty =
          Rng.log_uniform rng ~lo:(0.2 *. e_ref) ~hi:(3. *. e_ref)
        in
        { id; wcec = cycles; penalty })
      shares
  in
  { proc; m; frame_ticks = p.frame_ticks; items }

let qcheck_gen ?(params = default_params) () =
  let open QCheck2.Gen in
  let* m = int_range 1 (max 1 params.m_hi) in
  let* proc = oneofl [ Cubic; Xscale; Xscale_levels ] in
  let cycles_hi = 2 * params.frame_ticks in
  let pen_hi = 3. *. float_of_int params.frame_ticks *. 1.6 in
  let+ raw =
    list_size
      (int_range (max 1 params.n_lo) (max params.n_lo params.n_hi))
      (pair (int_range 1 cycles_hi) (float_range 0. pen_hi))
  in
  let items =
    List.mapi (fun id (cycles, penalty) -> { id; wcec = cycles; penalty }) raw
  in
  { proc; m; frame_ticks = params.frame_ticks; items }

(* ------------------------------------------------------------------ *)
(* shrinking *)

let remove_nth k xs = List.filteri (fun i _ -> i <> k) xs

let replace_nth k x xs = List.mapi (fun i y -> if i = k then x else y) xs

let shrink t =
  let with_items items = { t with items } in
  let indexed = List.mapi (fun i it -> (i, it)) t.items in
  let drops =
    List.to_seq indexed |> Seq.map (fun (i, _) -> with_items (remove_nth i t.items))
  in
  let fewer_procs =
    if t.m > 1 then Seq.return { t with m = t.m - 1 } else Seq.empty
  in
  let plain_proc =
    match t.proc with
    | Cubic -> Seq.empty
    | Xscale | Xscale_levels -> Seq.return { t with proc = Cubic }
  in
  let smaller_cycles =
    List.to_seq indexed
    |> Seq.filter_map (fun (i, it) ->
           if it.wcec > 1 then
             Some
               (with_items
                  (replace_nth i { it with wcec = it.wcec / 2 } t.items))
           else None)
  in
  let smaller_penalties =
    List.to_seq indexed
    |> Seq.concat_map (fun (i, it) ->
           if Fc.exact_gt it.penalty 0. then
             let zeroed =
               with_items (replace_nth i { it with penalty = 0. } t.items)
             in
             if Fc.gt ~eps:1e-6 it.penalty 0. then
               Seq.cons zeroed
                 (Seq.return
                    (with_items
                       (replace_nth i
                          { it with penalty = it.penalty /. 2. }
                          t.items)))
             else Seq.return zeroed
           else Seq.empty)
  in
  Seq.concat
    (List.to_seq
       [ drops; fewer_procs; plain_proc; smaller_cycles; smaller_penalties ])

let minimize ~still_fails t =
  let fuel = ref 500 in
  let rec go t detail =
    if !fuel <= 0 then (t, detail)
    else begin
      decr fuel;
      let next =
        Seq.find_map
          (fun c ->
            match still_fails c with
            | Some d -> Some (c, d)
            | None -> None)
          (shrink t)
      in
      match next with
      | Some (c, d) -> go c (Some d)
      | None -> (t, detail)
    end
  in
  go t (still_fails t)
