(* Character-level scanner shared by the SIMPL, EMPL and S* lexers, the
   YALLL parser, the microassembler (Masm) and the machine-description
   reader (Mdesc).

   Keeps track of line/column so every token carries an accurate [Loc.t].
   The callers layer token recognition on top of this.

   Contract: nothing here allocates per character.  [peek] returns a
   plain [char] ('\000' at end of input, so test [eof] first where a NUL
   byte in the source must not read as the end), and the skips
   ([skip_while], [skip_spaces], [skip_hspaces], [skip_line]) never copy
   the text they pass over; only [take_while], [ident] and [number] build
   a string, for text the caller keeps. *)

type t = {
  file : string;
  src : string;
  mutable offset : int;
  mutable line : int;
  mutable col : int;
}

let make ~file src = { file; src; offset = 0; line = 1; col = 1 }

let eof t = t.offset >= String.length t.src

let peek t = if eof t then '\000' else String.unsafe_get t.src t.offset

let peek2 t =
  if t.offset + 1 >= String.length t.src then '\000'
  else String.unsafe_get t.src (t.offset + 1)

let pos t : Loc.pos = { line = t.line; col = t.col; offset = t.offset }

let loc_from t (start_pos : Loc.pos) =
  Loc.make ~file:t.file ~start_pos ~end_pos:(pos t)

(* A zero-width location at the current position, for errors about the
   character under the cursor. *)
let here t = loc_from t (pos t)

let advance t =
  if not (eof t) then begin
    if String.unsafe_get t.src t.offset = '\n' then begin
      t.line <- t.line + 1;
      t.col <- 1
    end
    else t.col <- t.col + 1;
    t.offset <- t.offset + 1
  end

(* Consume [c] if it is the next character. *)
let eat t c =
  if (not (eof t)) && String.unsafe_get t.src t.offset = c then begin
    advance t;
    true
  end
  else false

let skip_while t pred =
  while (not (eof t)) && pred (String.unsafe_get t.src t.offset) do
    advance t
  done

let take_while t pred =
  let start = t.offset in
  skip_while t pred;
  String.sub t.src start (t.offset - start)

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_alnum c = is_digit c || is_alpha c
let is_ident_start c = is_alpha c || c = '_'
let is_ident_char c = is_alnum c || c = '_'

(* The hot loops, [skip_hspaces], [skip_spaces] and [ident], test the
   characters directly rather than through [skip_while]'s predicate.
   [skip_hspaces] stops at newlines: the YALLL parser is line-oriented. *)
let rec skip_hspaces t =
  if not (eof t) then
    match String.unsafe_get t.src t.offset with
    | ' ' | '\t' | '\r' ->
        t.offset <- t.offset + 1;
        t.col <- t.col + 1;
        skip_hspaces t
    | _ -> ()

let rec skip_spaces t =
  skip_hspaces t;
  if eat t '\n' then skip_spaces t

(* Skip the rest of the line, up to its newline: a line comment. *)
let skip_line t = skip_while t (fun c -> c <> '\n')

let rec ident_end s i =
  if i < String.length s && is_ident_char (String.unsafe_get s i) then
    ident_end s (i + 1)
  else i

(* An identifier holds no newline: the column moves by its length. *)
let ident t =
  let start = t.offset in
  let stop = ident_end t.src start in
  t.offset <- stop;
  t.col <- t.col + (stop - start);
  String.sub t.src start (stop - start)

let decimal_digits t = take_while t is_digit

(* A number: a digit then any letters and digits, read by [of_string]
   ([Int64.of_string], [int_of_string]).  Text it rejects is reported as
   a [phase] error at the end of the text. *)
let number t phase of_string =
  let s = take_while t is_alnum in
  try of_string s
  with Failure _ -> Diag.error ~loc:(here t) phase "malformed number %S" s

(* The spelling of [s] to look up in a case-insensitive keyword table:
   lowercased if it has an upper-case letter.  Keywords are letters
   only, so a word with a digit or '_' comes back unchanged. *)
let rec letters_with_upper s i upper =
  if i = String.length s then upper
  else
    match String.unsafe_get s i with
    | 'a' .. 'z' -> letters_with_upper s (i + 1) upper
    | 'A' .. 'Z' -> letters_with_upper s (i + 1) true
    | _ -> false

let keyword_spelling s =
  if letters_with_upper s 0 false then String.lowercase_ascii s else s
