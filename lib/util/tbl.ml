(* Plain-text table rendering for the experiment tables and the survey
   feature matrix.  Columns are sized to their widest cell; the first row
   is treated as a header and underlined. *)

type align = Left | Right

type t = {
  title : string;
  aligns : align list;
  header : string list;
  mutable rows : string list list;  (* stored reversed *)
}

let make ~title ~aligns header =
  if List.length aligns <> List.length header then
    invalid_arg "Tbl.make: aligns/header length mismatch";
  { title; aligns; header; rows = [] }

let add_row t row =
  if List.length row <> List.length t.header then
    invalid_arg
      (Fmt.str "Tbl.add_row (%s): expected %d cells, got %d" t.title
         (List.length t.header) (List.length row));
  t.rows <- row :: t.rows

let rows t = List.rev t.rows

let pad align width s =
  let n = width - String.length s in
  if n <= 0 then s
  else
    match align with
    | Left -> s ^ String.make n ' '
    | Right -> String.make n ' ' ^ s

let render t =
  let all = t.header :: rows t in
  let ncols = List.length t.header in
  let width i =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row i))) 0 all
  in
  let widths = List.init ncols width in
  let line row =
    let cells =
      List.mapi
        (fun i cell -> pad (List.nth t.aligns i) (List.nth widths i) cell)
        row
    in
    String.concat "  " cells
  in
  let sep =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (line t.header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (line row);
      Buffer.add_char buf '\n')
    (rows t);
  Buffer.contents buf

let print t = print_string (render t)

(* Cell formatting helpers used throughout the experiment drivers. *)
let cell_int n = string_of_int n
let cell_float ?(digits = 2) f = Printf.sprintf "%.*f" digits f
let cell_pct a b =
  if b = 0 then "n/a"
  else Printf.sprintf "%+.1f%%" (100.0 *. (float_of_int a -. float_of_int b) /. float_of_int b)
