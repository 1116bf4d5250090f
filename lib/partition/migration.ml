module Fc = Rt_prelude.Float_cmp
open Rt_task

type slice = { item_id : int; proc : int; t0 : float; t1 : float }

type schedule = {
  speeds : (int * float) list;
  slices : slice list;
  energy : float;
}

(* a busy processor pays the leakage its rest power leaves out: p_ind
   when it could sleep, nothing more when idling costs p_ind anyway *)
let exec_energy (proc : Rt_power.Processor.t) ~cycles ~speed =
  let leak =
    Rt_power.Processor.idle_power proc -. Rt_power.Processor.rest_power proc
  in
  cycles /. speed
  *. (leak +. Rt_power.Power_model.dynamic_power proc.model speed)

let idle_energy (proc : Rt_power.Processor.t) ~idle =
  idle *. Rt_power.Processor.rest_power proc

let optimal ~(proc : Rt_power.Processor.t) ~m ~frame items =
  if m < 1 then Error "Migration.optimal: m < 1"
  else if Fc.exact_le frame 0. then Error "Migration.optimal: frame <= 0"
  else if not (Rt_power.Processor.is_ideal proc) then
    Error "Migration.optimal: ideal processors only"
  else if
    not (Task.distinct_ids (List.map (fun (i : Task.item) -> i.item_id) items))
  then Error "Migration.optimal: duplicate item ids"
  else if
    List.exists
      (fun (i : Task.item) -> not (Fc.exact_eq i.item_power_factor 1.))
      items
  then Error "Migration.optimal: non-unit power factors"
  else if items = [] then Ok { speeds = []; slices = []; energy = 0. }
  else begin
    let s_max = Rt_power.Processor.s_max proc in
    let total = Taskset.total_weight items in
    let w_max =
      List.fold_left (fun acc (i : Task.item) -> Float.max acc i.weight) 0. items
    in
    if
      Rt_prelude.Float_cmp.gt (total /. float_of_int m) s_max
      || Rt_prelude.Float_cmp.gt w_max s_max
    then Error "Migration.optimal: infeasible even at s_max"
    else begin
      (* the pooled KKT water-filling with the per-task frame cap *)
      let times = Hetero.estimated_times proc ~m ~horizon:frame items in
      let speeds =
        List.filter_map
          (fun (it : Task.item) ->
            Option.map
              (fun t -> (it.item_id, it.weight *. frame /. t))
              (List.assoc_opt it.item_id times))
          items
      in
      (* wrap-around fill of the m × frame rectangle *)
      let slices = ref [] in
      let row = ref 0 in
      let cursor = ref 0. in
      let overflow = ref false in
      List.iter
        (fun (it : Task.item) ->
          let exec =
            Option.value ~default:0. (List.assoc_opt it.item_id times)
          in
          (* bisection residue in the times is ~1e-10; anything below the
             tolerance is dropped rather than wrapped onto a phantom row *)
          let rec place remaining =
            if Fc.exact_gt remaining (1e-6 *. frame) then begin
              if !row >= m then overflow := true
              else begin
                let room = frame -. !cursor in
                let dt = Float.min remaining room in
                if Fc.exact_gt dt 0. then
                  slices :=
                    {
                      item_id = it.item_id;
                      proc = !row;
                      t0 = !cursor;
                      t1 = !cursor +. dt;
                    }
                    :: !slices;
                cursor := !cursor +. dt;
                if Fc.exact_ge !cursor (frame -. (1e-9 *. frame)) then begin
                  incr row;
                  cursor := 0.
                end;
                place (remaining -. dt)
              end
            end
          in
          place exec)
        items;
      if !overflow then
        Error "Migration.optimal: internal overflow in the wrap-around fill"
      else begin
        let busy =
          List.fold_left
            (fun acc (_, t) -> acc +. t)
            0.
            (List.filter
               (fun (id, _) ->
                 List.exists (fun (i : Task.item) -> i.item_id = id) items)
               times)
        in
        let energy =
          List.fold_left
            (fun acc (it : Task.item) ->
              match List.assoc_opt it.item_id speeds with
              | Some s ->
                  acc +. exec_energy proc ~cycles:(it.weight *. frame) ~speed:s
              | None -> acc)
            0. items
          +. idle_energy proc ~idle:((float_of_int m *. frame) -. busy)
        in
        Ok { speeds; slices = List.rev !slices; energy }
      end
    end
  end

let validate ~(proc : Rt_power.Processor.t) ~m ~frame items sch =
  let ( let* ) = Result.bind in
  let eps = 1e-6 in
  let* () =
    if
      List.for_all
        (fun s ->
          s.proc >= 0 && s.proc < m
          && Fc.exact_ge s.t0 (-.eps)
          && Fc.exact_le s.t1 (frame +. eps)
          && Fc.exact_gt s.t1 s.t0)
        sch.slices
    then Ok ()
    else Error "slice outside the frame rectangle"
  in
  let* () =
    List.fold_left
      (fun acc (it : Task.item) ->
        let* () = acc in
        match List.assoc_opt it.item_id sch.speeds with
        | None -> Error (Printf.sprintf "item %d has no speed" it.item_id)
        | Some s ->
            if
              Rt_power.Processor.speed_feasible ~eps proc s
              && Rt_prelude.Float_cmp.geq ~eps s it.weight
            then Ok ()
            else
              Error
                (Printf.sprintf "item %d speed %.6g infeasible" it.item_id s))
      (Ok ()) items
  in
  let by_item id = List.filter (fun s -> s.item_id = id) sch.slices in
  let* () =
    List.fold_left
      (fun acc (it : Task.item) ->
        let* () = acc in
        let mine = by_item it.item_id in
        let total = List.fold_left (fun a s -> a +. (s.t1 -. s.t0)) 0. mine in
        let speed =
          Option.value ~default:1. (List.assoc_opt it.item_id sch.speeds)
        in
        let want = it.weight *. frame /. speed in
        let* () =
          if Rt_prelude.Float_cmp.approx_eq ~eps total want then Ok ()
          else
            Error
              (Printf.sprintf "item %d runs %.9g of %.9g" it.item_id total want)
        in
        let sorted = List.sort (fun a b -> Float.compare a.t0 b.t0) mine in
        let rec disjoint = function
          | a :: (b :: _ as rest) ->
              if Fc.exact_lt b.t0 (a.t1 -. eps) then
                Error (Printf.sprintf "item %d overlaps itself" it.item_id)
              else disjoint rest
          | _ -> Ok ()
        in
        disjoint sorted)
      (Ok ()) items
  in
  let* () =
    List.fold_left
      (fun acc p ->
        let* () = acc in
        let mine = List.filter (fun s -> s.proc = p) sch.slices in
        let sorted = List.sort (fun a b -> Float.compare a.t0 b.t0) mine in
        let rec disjoint = function
          | a :: (b :: _ as rest) ->
              if Fc.exact_lt b.t0 (a.t1 -. eps) then
                Error (Printf.sprintf "processor %d double-booked" p)
              else disjoint rest
          | _ -> Ok ()
        in
        disjoint sorted)
      (Ok ())
      (Rt_prelude.Math_util.range 0 (m - 1))
  in
  let busy =
    List.fold_left (fun a s -> a +. (s.t1 -. s.t0)) 0. sch.slices
  in
  let expected =
    List.fold_left
      (fun acc (it : Task.item) ->
        match List.assoc_opt it.item_id sch.speeds with
        | Some s -> acc +. exec_energy proc ~cycles:(it.weight *. frame) ~speed:s
        | None -> acc)
      0. items
    +. idle_energy proc ~idle:((float_of_int m *. frame) -. busy)
  in
  if Rt_prelude.Float_cmp.approx_eq ~eps expected sch.energy then Ok ()
  else Error "energy disagrees with the busy/idle integral"

let energy_lower_bound ~proc ~m ~frame items =
  match optimal ~proc ~m ~frame items with
  | Ok s -> Some s.energy
  | Error _ -> None
