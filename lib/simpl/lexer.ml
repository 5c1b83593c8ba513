(* Tokeniser for SIMPL. *)

module Diag = Msl_util.Diag
module Loc = Msl_util.Loc
module Scanner = Msl_util.Scanner

type token =
  | Ident of string
  | Number of int64
  | Kw of string  (* keywords, lowercased *)
  | Arrow  (* -> *)
  | Semi
  | Lparen
  | Rparen
  | Plus
  | Minus
  | Amp
  | Bar
  | Hash  (* exclusive or *)
  | Tilde  (* complement *)
  | Caret  (* shift *)
  | Caret2  (* rotate *)
  | Assign  (* := (for-loop initialisation) *)
  | Eq
  | Ne  (* <> *)
  | Lt
  | Le
  | Gt
  | Ge
  | Eof

type t = {
  sc : Scanner.t;
  mutable tok : token;
  mutable tok_loc : Loc.t;
}

let err lx fmt = Diag.error ~loc:(Scanner.here lx.sc) Diag.Lexing fmt

(* The token at the cursor, which is not at end of input. *)
let token lx sc =
  match Scanner.peek sc with
  | 'a' .. 'z' | 'A' .. 'Z' | '_' -> (
      let word = Scanner.ident sc in
      match Scanner.keyword_spelling word with
      | ( "program" | "begin" | "end" | "if" | "then" | "else" | "while" | "do"
        | "for" | "to" | "case" | "of" | "procedure" | "call" | "alias"
        | "read" | "write" | "comment" ) as k ->
          Kw k
      | _ -> Ident word)
  | '0' .. '9' -> Number (Scanner.number sc Diag.Lexing Int64.of_string)
  | '-' ->
      Scanner.advance sc;
      if Scanner.eat sc '>' then Arrow else Minus
  | ';' -> Scanner.advance sc; Semi
  | '(' -> Scanner.advance sc; Lparen
  | ')' -> Scanner.advance sc; Rparen
  | '+' -> Scanner.advance sc; Plus
  | '&' -> Scanner.advance sc; Amp
  | '|' -> Scanner.advance sc; Bar
  | '#' -> Scanner.advance sc; Hash
  | '~' -> Scanner.advance sc; Tilde
  | '^' ->
      Scanner.advance sc;
      if Scanner.eat sc '^' then Caret2 else Caret
  | ':' ->
      Scanner.advance sc;
      if Scanner.eat sc '=' then Assign else err lx "expected ':='"
  | '=' -> Scanner.advance sc; Eq
  | '<' ->
      Scanner.advance sc;
      if Scanner.eat sc '>' then Ne
      else if Scanner.eat sc '=' then Le
      else Lt
  | '>' ->
      Scanner.advance sc;
      if Scanner.eat sc '=' then Ge else Gt
  | c -> err lx "unexpected character '%c'" c

(* `comment ... ;` is skipped entirely, as in the paper's examples. *)
let rec scan_token lx =
  let sc = lx.sc in
  Scanner.skip_spaces sc;
  let start = Scanner.pos sc in
  match if Scanner.eof sc then Eof else token lx sc with
  | Kw "comment" ->
      Scanner.skip_while sc (fun ch -> ch <> ';');
      let _ : bool = Scanner.eat sc ';' in
      scan_token lx
  | tok ->
      lx.tok <- tok;
      lx.tok_loc <- Scanner.loc_from sc start

let make ?(file = "<simpl>") src =
  let lx =
    { sc = Scanner.make ~file src; tok = Eof; tok_loc = Loc.dummy }
  in
  scan_token lx;
  lx

let token lx = lx.tok
let loc lx = lx.tok_loc
let advance lx = scan_token lx

let token_name = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Number n -> Printf.sprintf "number %Ld" n
  | Kw k -> Printf.sprintf "keyword %S" k
  | Arrow -> "'->'"
  | Semi -> "';'"
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Plus -> "'+'"
  | Minus -> "'-'"
  | Amp -> "'&'"
  | Bar -> "'|'"
  | Hash -> "'#'"
  | Tilde -> "'~'"
  | Caret -> "'^'"
  | Caret2 -> "'^^'"
  | Assign -> "':='"
  | Eq -> "'='"
  | Ne -> "'<>'"
  | Lt -> "'<'"
  | Le -> "'<='"
  | Gt -> "'>'"
  | Ge -> "'>='"
  | Eof -> "end of input"
