(* An independent sanity checker for mslc --trace output, on purpose not
   using the toolkit's own parser: one JSON object per line, "seq"
   strictly increasing, "ts" never decreasing in "seq" order, "ph" one
   of B/E/C/i, and B/E balanced per tid.
   Silent and exit 0 when the trace is sane; a message and exit 1
   otherwise. *)

let fail lno msg =
  Printf.eprintf "line %d: %s\n" lno msg;
  exit 1

(* Position just past ["key":] in the line. *)
let after_key lno line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let n = String.length line and pn = String.length pat in
  let rec find i =
    if i + pn > n then fail lno ("missing field " ^ key)
    else if String.sub line i pn = pat then i + pn
    else find (i + 1)
  in
  find 0

(* The numeric literal just past ["key":], converted by [conv]. *)
let num_field conv what lno line key =
  let i = after_key lno line key in
  let j = ref i in
  while
    !j < String.length line
    && (match line.[!j] with
       | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
       | _ -> false)
  do
    incr j
  done;
  match conv (String.sub line i (!j - i)) with
  | Some v -> v
  | None -> fail lno (key ^ " is not " ^ what)

let int_field = num_field int_of_string_opt "an integer"
let float_field = num_field float_of_string_opt "a number"

(* The one-character string value of ["ph":"X"]. *)
let ph_field lno line =
  let i = after_key lno line "ph" in
  if i + 2 >= String.length line || line.[i] <> '"' || line.[i + 2] <> '"'
  then fail lno "ph is not a one-character string";
  line.[i + 1]

let () =
  if Array.length Sys.argv < 2 then fail 0 "usage: check_trace FILE";
  let ic = open_in Sys.argv.(1) in
  let depth = Hashtbl.create 8 in
  let last_seq = ref 0 and last_ts = ref neg_infinity and lno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lno;
       if line <> "" then begin
         if line.[0] <> '{' || line.[String.length line - 1] <> '}' then
           fail !lno "not a JSON object";
         let seq = int_field !lno line "seq" in
         if seq <= !last_seq then fail !lno "seq not strictly increasing";
         last_seq := seq;
         let ts = float_field !lno line "ts" in
         if ts < !last_ts then fail !lno "ts decreases";
         last_ts := ts;
         let tid = int_field !lno line "tid" in
         let d = try Hashtbl.find depth tid with Not_found -> 0 in
         match ph_field !lno line with
         | 'B' -> Hashtbl.replace depth tid (d + 1)
         | 'E' ->
             if d = 0 then fail !lno "span end without a begin";
             Hashtbl.replace depth tid (d - 1)
         | 'C' | 'i' -> ()
         | c -> fail !lno (Printf.sprintf "unknown phase %C" c)
       end
     done
   with End_of_file -> ());
  close_in ic;
  Hashtbl.iter
    (fun tid d ->
      if d <> 0 then fail !lno (Printf.sprintf "tid %d: %d unclosed spans" tid d))
    depth;
  if !last_seq = 0 then fail 0 "empty trace"
