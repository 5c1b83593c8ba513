(* Tokeniser for EMPL.  PL/I flavour: case-insensitive keywords,
   slash-star comments, '^=' for not-equal. *)

module Diag = Msl_util.Diag
module Loc = Msl_util.Loc
module Scanner = Msl_util.Scanner

type token =
  | Ident of string  (* original spelling *)
  | Number of int64
  | Kw of string  (* keyword, lowercased *)
  | Lparen
  | Rparen
  | Comma
  | Semi
  | Colon
  | Dot
  | Eq  (* '=': assignment or equality, by context *)
  | Ne  (* '^=' or '<>' *)
  | Lt
  | Le
  | Gt
  | Ge
  | Plus
  | Minus
  | Star
  | Slash
  | Amp
  | Bar
  | Eof

type t = { sc : Scanner.t; mutable tok : token; mutable tok_loc : Loc.t }

let err lx fmt = Diag.error ~loc:(Scanner.here lx.sc) Diag.Lexing fmt

let rec skip_trivia lx =
  let sc = lx.sc in
  Scanner.skip_spaces sc;
  if Scanner.peek sc = '/' && Scanner.peek2 sc = '*' then begin
    Scanner.advance sc;
    Scanner.advance sc;
    let rec loop () =
      Scanner.skip_while sc (fun c -> c <> '*');
      if Scanner.eof sc then err lx "unterminated comment";
      Scanner.advance sc;
      if not (Scanner.eat sc '/') then loop ()
    in
    loop ();
    skip_trivia lx
  end

(* The token at the cursor, which is not at end of input. *)
let token lx sc =
  match Scanner.peek sc with
  | 'a' .. 'z' | 'A' .. 'Z' | '_' -> (
      let word = Scanner.ident sc in
      match Scanner.keyword_spelling word with
      | ( "declare" | "fixed" | "type" | "endtype" | "initially" | "do" | "end"
        | "while" | "operation" | "accepts" | "returns" | "microop" | "if"
        | "then" | "else" | "goto" | "call" | "return" | "error" | "procedure"
        | "xor" | "nand" | "nor" | "nxor" | "mod" | "not" | "neg" | "shl"
        | "shr" | "sar" | "rol" | "ror" ) as k ->
          Kw k
      | _ -> Ident word)
  | '0' .. '9' -> Number (Scanner.number sc Diag.Lexing Int64.of_string)
  | '(' -> Scanner.advance sc; Lparen
  | ')' -> Scanner.advance sc; Rparen
  | ',' -> Scanner.advance sc; Comma
  | ';' -> Scanner.advance sc; Semi
  | ':' -> Scanner.advance sc; Colon
  | '.' -> Scanner.advance sc; Dot
  | '=' -> Scanner.advance sc; Eq
  | '^' ->
      Scanner.advance sc;
      if Scanner.eat sc '=' then Ne else err lx "expected '^='"
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
  | '*' -> Scanner.advance sc; Star
  | '/' -> Scanner.advance sc; Slash
  | '&' -> Scanner.advance sc; Amp
  | '|' -> Scanner.advance sc; Bar
  | c -> err lx "unexpected character '%c'" c

let scan lx =
  let sc = lx.sc in
  skip_trivia lx;
  let start = Scanner.pos sc in
  lx.tok <- (if Scanner.eof sc then Eof else token lx sc);
  lx.tok_loc <- Scanner.loc_from sc start

let make ?(file = "<empl>") src =
  let lx = { sc = Scanner.make ~file src; tok = Eof; tok_loc = Loc.dummy } in
  scan lx;
  lx

let token lx = lx.tok
let loc lx = lx.tok_loc
let advance lx = scan lx

let token_name = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Number n -> Printf.sprintf "number %Ld" n
  | Kw k -> Printf.sprintf "keyword %S" (String.uppercase_ascii k)
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Comma -> "','"
  | Semi -> "';'"
  | Colon -> "':'"
  | Dot -> "'.'"
  | Eq -> "'='"
  | Ne -> "'^='"
  | Lt -> "'<'"
  | Le -> "'<='"
  | Gt -> "'>'"
  | Ge -> "'>='"
  | Plus -> "'+'"
  | Minus -> "'-'"
  | Star -> "'*'"
  | Slash -> "'/'"
  | Amp -> "'&'"
  | Bar -> "'|'"
  | Eof -> "end of input"
