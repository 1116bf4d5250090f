type align = Left | Right

type t = { headers : string list; aligns : align list; rows : string list list }

let create ?aligns headers =
  let aligns =
    match aligns with
    | None -> List.map (fun _ -> Right) headers
    | Some a ->
        if List.length a <> List.length headers then
          invalid_arg "Tablefmt.create: aligns/header arity mismatch";
        a
  in
  { headers; aligns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Tablefmt.add_row: arity mismatch";
  { t with rows = row :: t.rows }

let float_cell ?(decimals = 4) x =
  if Float.is_integer x && Float_cmp.exact_lt (Float.abs x) 1e15 && decimals = 0
  then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.*f" decimals x

let add_float_row t label xs =
  add_row t (label :: List.map (float_cell ~decimals:4) xs)

let render t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
        row)
    all;
  let pad align width s =
    let fill = String.make (width - String.length s) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  in
  let render_row row =
    row
    |> List.mapi (fun i cell -> pad (List.nth t.aligns i) widths.(i) cell)
    |> String.concat "  "
  in
  let sep =
    Array.to_list widths
    |> List.map (fun w -> String.make w '-')
    |> String.concat "  "
  in
  String.concat "\n" (render_row t.headers :: sep :: List.map render_row rows)

let csv_field s =
  let needs_quote =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n') s
  in
  if needs_quote then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let to_csv t =
  let rows = t.headers :: List.rev t.rows in
  rows
  |> List.map (fun row -> String.concat "," (List.map csv_field row))
  |> String.concat "\n"

let print t =
  (* lint: allow-no-print "Tablefmt is the sanctioned output sink" *)
  print_string (render t);
  (* lint: allow-no-print "Tablefmt is the sanctioned output sink" *)
  print_newline ()
