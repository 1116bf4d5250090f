module Fc = Rt_prelude.Float_cmp
module Json = Rt_prelude.Json

type entry = {
  name : string;
  algorithm : string;
  oracle : string;
  detail : string;
  opt_cost : float option;
  instance : Instance.t;
}

let format_tag = "rt-check-corpus/1"

let to_json e =
  Json.Obj
    [
      ("format", Json.Str format_tag);
      ("name", Json.Str e.name);
      ("algorithm", Json.Str e.algorithm);
      ("oracle", Json.Str e.oracle);
      ("detail", Json.Str e.detail);
      ( "opt_cost",
        match e.opt_cost with None -> Json.Null | Some c -> Json.Float c );
      ("instance", Instance.to_json e.instance);
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
    Error (Printf.sprintf "unsupported corpus format %S" tag)
  else
    let* name = field "name" Json.to_str j in
    let* algorithm = field "algorithm" Json.to_str j in
    let* oracle = field "oracle" Json.to_str j in
    let* detail = field "detail" Json.to_str j in
    let* opt_cost =
      match Json.member "opt_cost" j with
      | None -> Error "missing field \"opt_cost\""
      | Some Json.Null -> Ok None
      | Some v -> (
          match Json.to_float v with
          | Ok f -> Ok (Some f)
          | Error e -> Error ("field \"opt_cost\": " ^ e))
    in
    let* instance =
      match Json.member "instance" j with
      | None -> Error "missing field \"instance\""
      | Some v -> Instance.of_json v
    in
    Ok { name; algorithm; oracle; detail; opt_cost; instance }

let to_string e = Json.to_string (to_json e)

let of_string s =
  let* j = Json.parse s in
  of_json j

let save ~dir e =
  let path = Filename.concat dir (e.name ^ ".json") in
  match
    let oc = open_out path in
    output_string oc (to_string e);
    close_out oc
  with
  | () -> Ok path
  | exception Sys_error msg -> Error ("corpus save: " ^ msg)

let load_file path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with
  | exception Sys_error msg -> Error ("corpus load: " ^ msg)
  | s -> (
      match of_string s with
      | Ok e -> Ok e
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let load_dir dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error ("corpus dir: " ^ msg)
  | files ->
      let jsons =
        Array.to_list files
        |> List.filter (fun f -> Filename.check_suffix f ".json")
        |> List.sort String.compare
        |> List.map (Filename.concat dir)
      in
      List.fold_left
        (fun acc path ->
          let* acc = acc in
          let* e = load_file path in
          Ok ((path, e) :: acc))
        (Ok []) jsons
      |> Result.map List.rev

let replay ~algorithms e =
  let* ctx =
    match Oracle.context e.instance with
    | Ok ctx -> Ok ctx
    | Error msg -> Error msg
  in
  (* 1. the recorded algorithm passes every oracle today *)
  let* () =
    if String.equal e.algorithm "-" then Ok ()
    else
      match List.assoc_opt e.algorithm algorithms with
      | None -> Error (Printf.sprintf "unknown algorithm %S" e.algorithm)
      | Some alg -> (
          let s = alg (Oracle.problem ctx) in
          match Oracle.first_failure (Oracle.run_all ctx s) with
          | None -> Ok ()
          | Some (name, d) ->
              Error
                (Printf.sprintf "oracle %s fails again on %s: %s" name
                   e.algorithm d))
  in
  (* 2. every metamorphic law holds on the instance *)
  let* () =
    match Laws.first_failure (Laws.run_all e.instance) with
    | None -> Ok ()
    | Some (name, d) -> Error (Printf.sprintf "law %s fails: %s" name d)
  in
  (* 3. the recorded optimum is reproduced *)
  match (e.opt_cost, Oracle.optimal_cost ctx) with
  | None, _ -> Ok ()
  | Some recorded, Some now ->
      if Fc.approx_eq ~eps:Oracle.eps recorded now then Ok ()
      else
        Error
          (Printf.sprintf
             "recorded optimum %.9g no longer reproduces (solver now says \
              %.9g)"
             recorded now)
  | Some _, None ->
      Error "recorded an optimum but the instance now exceeds the exact cap"
