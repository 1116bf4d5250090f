module Fc = Float_cmp

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* printing *)

let float_literal f =
  if not (Fc.is_finite f) then
    invalid_arg "Json.to_string: non-finite float";
  (* shortest decimal that round-trips to the same IEEE value; always
     contains '.', 'e' or 'E' so the parser keeps Int/Float apart *)
  let candidate =
    let p15 = Printf.sprintf "%.15g" f in
    if Fc.exact_eq (float_of_string p15) f then p15
    else
      let p16 = Printf.sprintf "%.16g" f in
      if Fc.exact_eq (float_of_string p16) f then p16
      else Printf.sprintf "%.17g" f
  in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') candidate then
    candidate
  else candidate ^ "."

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\000' .. '\031' | '\127' ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let to_string v =
  let buf = Buffer.create 256 in
  let indent n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec go depth v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_literal f)
    | Str s -> Buffer.add_string buf (escape_string s)
    | List [] -> Buffer.add_string buf "[]"
    | List xs ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string buf ",\n";
            indent (depth + 1);
            go (depth + 1) x)
          xs;
        Buffer.add_char buf '\n';
        indent depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_string buf ",\n";
            indent (depth + 1);
            Buffer.add_string buf (escape_string k);
            Buffer.add_string buf ": ";
            go (depth + 1) x)
          fields;
        Buffer.add_char buf '\n';
        indent depth;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Fc.exact_eq x y
  | Str x, Str y -> String.equal x y
  | List xs, List ys ->
      List.length xs = List.length ys && List.for_all2 equal xs ys
  | Obj xs, Obj ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
           xs ys
  | _ -> false

(* ------------------------------------------------------------------ *)
(* parsing *)

exception Parse_error of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t'
                   || s.[!pos] = '\r')
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> advance (); Buffer.add_char buf '"'; go ()
          | Some '\\' -> advance (); Buffer.add_char buf '\\'; go ()
          | Some '/' -> advance (); Buffer.add_char buf '/'; go ()
          | Some 'n' -> advance (); Buffer.add_char buf '\n'; go ()
          | Some 't' -> advance (); Buffer.add_char buf '\t'; go ()
          | Some 'r' -> advance (); Buffer.add_char buf '\r'; go ()
          | Some 'b' -> advance (); Buffer.add_char buf '\b'; go ()
          | Some 'f' -> advance (); Buffer.add_char buf '\012'; go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              let code =
                match int_of_string_opt ("0x" ^ hex) with
                | Some c -> c
                | None -> fail "malformed \\u escape"
              in
              if code > 0x7f then fail "\\u escape beyond ASCII unsupported";
              pos := !pos + 4;
              Buffer.add_char buf (Char.chr code);
              go ()
          | _ -> fail "unknown escape")
      | Some c ->
          if Char.code c < 0x20 then fail "raw control byte in string";
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e'
      || c = 'E'
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    let floatish =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit
    in
    if floatish then
      match float_of_string_opt lit with
      | Some f when Fc.is_finite f -> Float f
      | _ -> fail ("malformed number " ^ lit)
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> fail ("malformed number " ^ lit)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos < n then fail "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "json parse error at offset %d: %s" at msg)

(* ------------------------------------------------------------------ *)
(* accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function
  | Int i -> Ok i
  | v -> Error (Printf.sprintf "expected int, got %s"
                  (match v with
                   | Null -> "null" | Bool _ -> "bool" | Float _ -> "float"
                   | Str _ -> "string" | List _ -> "list" | Obj _ -> "object"
                   | Int _ -> "int"))

let to_float = function
  | Float f -> Ok f
  | Int i -> Ok (float_of_int i)
  | _ -> Error "expected number"

let to_str = function Str s -> Ok s | _ -> Error "expected string"
let to_list = function List xs -> Ok xs | _ -> Error "expected list"
