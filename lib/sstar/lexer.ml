(* Tokeniser for S*.  Comments are '#...#' as in the survey's listing
   ("# a 16-bit constant with decimal value -1 #") and '--' to end of
   line for convenience. *)

module Diag = Msl_util.Diag
module Loc = Msl_util.Loc
module Scanner = Msl_util.Scanner

type token =
  | Ident of string
  | Number of int64
  | Kw of string
  | Assign  (* := *)
  | Semi | Comma | Colon | Dot | DotDot
  | Lparen | Rparen | Lbrack | Rbrack | Lbrace | Rbrace
  | Eq | Ne | Lt | Le | Gt | Ge
  | Plus | Minus | Amp | Bar | Tilde | Star
  | Caret | Caret2
  | Bang  (* '!' flag negation *)
  | Imp  (* => *)
  | Eof

type t = { sc : Scanner.t; mutable tok : token; mutable tok_loc : Loc.t }

let err lx fmt = Diag.error ~loc:(Scanner.here lx.sc) Diag.Lexing fmt

let rec skip_trivia lx =
  let sc = lx.sc in
  Scanner.skip_spaces sc;
  if Scanner.eat sc '#' then begin
    Scanner.skip_while sc (fun c -> c <> '#');
    if not (Scanner.eat sc '#') then err lx "unterminated '#' comment";
    skip_trivia lx
  end
  else if Scanner.peek sc = '-' && Scanner.peek2 sc = '-' then begin
    Scanner.skip_line sc;
    skip_trivia lx
  end

(* The token at the cursor, which is not at end of input. *)
let token lx sc =
  match Scanner.peek sc with
  | 'a' .. 'z' | 'A' .. 'Z' | '_' -> (
      let word = Scanner.ident sc in
      match Scanner.keyword_spelling word with
      | ( "program" | "var" | "const" | "syn" | "at" | "regs" | "mem" | "ptr"
        | "of" | "bit" | "seq" | "array" | "tuple" | "stack" | "with"
        | "begin" | "end" | "cobegin" | "coend" | "cocycle" | "dur" | "do"
        | "region" | "if" | "then" | "elif" | "else" | "fi" | "while" | "od"
        | "repeat" | "until" | "inv" | "call" | "return" | "proc" | "uses"
        | "push" | "pop" | "assert" | "pre" | "post" | "and" | "or" | "not"
        | "true" | "false" | "dec" | "hex" | "bin" ) as k ->
          Kw k
      | _ -> Ident word)
  | '0' .. '9' -> Number (Scanner.number sc Diag.Lexing Int64.of_string)
  | ':' ->
      Scanner.advance sc;
      if Scanner.eat sc '=' then Assign else Colon
  | ';' -> Scanner.advance sc; Semi
  | ',' -> Scanner.advance sc; Comma
  | '.' ->
      Scanner.advance sc;
      if Scanner.eat sc '.' then DotDot else Dot
  | '(' -> Scanner.advance sc; Lparen
  | ')' -> Scanner.advance sc; Rparen
  | '[' -> Scanner.advance sc; Lbrack
  | ']' -> Scanner.advance sc; Rbrack
  | '{' -> Scanner.advance sc; Lbrace
  | '}' -> Scanner.advance sc; Rbrace
  | '=' ->
      Scanner.advance sc;
      if Scanner.eat sc '>' then Imp else Eq
  | '<' ->
      Scanner.advance sc;
      if Scanner.eat sc '>' then Ne
      else if Scanner.eat sc '=' then Le
      else Lt
  | '>' ->
      Scanner.advance sc;
      if Scanner.eat sc '=' then Ge else Gt
  | '+' -> Scanner.advance sc; Plus
  | '-' -> Scanner.advance sc; Minus
  | '&' -> Scanner.advance sc; Amp
  | '|' -> Scanner.advance sc; Bar
  | '*' -> Scanner.advance sc; Star
  | '~' -> Scanner.advance sc; Tilde
  | '!' -> Scanner.advance sc; Bang
  | '^' ->
      Scanner.advance sc;
      if Scanner.eat sc '^' then Caret2 else Caret
  | c -> err lx "unexpected character '%c'" c

let scan lx =
  let sc = lx.sc in
  skip_trivia lx;
  let start = Scanner.pos sc in
  lx.tok <- (if Scanner.eof sc then Eof else token lx sc);
  lx.tok_loc <- Scanner.loc_from sc start

let make ?(file = "<sstar>") src =
  let lx = { sc = Scanner.make ~file src; tok = Eof; tok_loc = Loc.dummy } in
  scan lx;
  lx

let token lx = lx.tok
let loc lx = lx.tok_loc
let advance lx = scan lx

let token_name = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Number n -> Printf.sprintf "number %Ld" n
  | Kw k -> Printf.sprintf "keyword %S" k
  | Assign -> "':='"
  | Semi -> "';'"
  | Comma -> "','"
  | Colon -> "':'"
  | Dot -> "'.'"
  | DotDot -> "'..'"
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Lbrack -> "'['"
  | Rbrack -> "']'"
  | Lbrace -> "'{'"
  | Rbrace -> "'}'"
  | Eq -> "'='"
  | Ne -> "'<>'"
  | Lt -> "'<'"
  | Le -> "'<='"
  | Gt -> "'>'"
  | Ge -> "'>='"
  | Plus -> "'+'"
  | Minus -> "'-'"
  | Amp -> "'&'"
  | Bar -> "'|'"
  | Tilde -> "'~'"
  | Star -> "'*'"
  | Caret -> "'^'"
  | Caret2 -> "'^^'"
  | Bang -> "'!'"
  | Imp -> "'=>'"
  | Eof -> "end of input"
