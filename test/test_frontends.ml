(* The frontends' observable output, pinned.

   One transcript covers every token the SIMPL, EMPL and S* lexers
   produce (its name and its full location) and every YALLL parse (the
   AST), over the example sources, a few hand-written sources that reach
   every token and lexical error, and seeded mutations and noise of all
   of them, as the fuzzer makes them.  A failure is recorded with its
   full diagnostic: phase, location and message.  The transcript's digest
   is fixed, so a change to a frontend that moves any token, location or
   diagnostic fails here.  The keyword tests guard each lexer's keyword
   table one keyword at a time. *)

module Core = Msl_core
module Diag = Msl_util.Diag
module Loc = Msl_util.Loc
module Rtl = Msl_machine.Rtl
module Y = Msl_yalll.Ast

let pos (p : Loc.pos) = Printf.sprintf "%d.%d.%d" p.line p.col p.offset

let loc (l : Loc.t) =
  Printf.sprintf "%s:%s-%s" l.file (pos l.start_pos) (pos l.end_pos)

let diag (d : Diag.t) =
  Printf.sprintf "error[%s] %s: %S" (Diag.phase_name d.phase) (loc d.loc)
    d.message

module type LEXER = sig
  type token
  type t

  val make : ?file:string -> string -> t
  val token : t -> token
  val loc : t -> Loc.t
  val advance : t -> unit
  val token_name : token -> string
end

(* Every token up to and including end of input, with its location, and
   the diagnostic that stopped the lexer if one did. *)
let tokens (type tok) (module L : LEXER with type token = tok) src =
  let out = ref [] in
  let stop =
    match
      let lx = L.make ~file:"t" src in
      let rec go () =
        let tok = L.token lx in
        out := (tok, L.loc lx) :: !out;
        if L.token_name tok <> "end of input" then begin
          L.advance lx;
          go ()
        end
      in
      go ()
    with
    | () -> None
    | exception Diag.Error d -> Some d
  in
  (List.rev !out, stop)

let lex_transcript (type tok) (module L : LEXER with type token = tok) buf src
    =
  let toks, stop = tokens (module L) src in
  List.iter
    (fun (tok, l) -> Printf.bprintf buf "%s %s\n" (L.token_name tok) (loc l))
    toks;
  Option.iter (fun d -> Printf.bprintf buf "%s\n" (diag d)) stop

let operand = function
  | Y.Reg r -> "reg " ^ r
  | Y.Lit n -> Int64.to_string n

let condition = function
  | Y.Eq_zero r -> r ^ " = 0"
  | Y.Ne_zero r -> r ^ " <> 0"
  | Y.Mask (r, m) -> r ^ " mask " ^ m

let instr = function
  | Y.Move (d, s) -> Printf.sprintf "move %s, %s" d (operand s)
  | Y.Binop (op, d, a, b) ->
      Printf.sprintf "%s %s, %s, %s" (Rtl.abinop_name op) d (operand a)
        (operand b)
  | Y.Binop_f (op, d, a, b) ->
      Printf.sprintf "%s.f %s, %s, %s" (Rtl.abinop_name op) d (operand a)
        (operand b)
  | Y.Inc (d, s) -> Printf.sprintf "inc %s, %s" d s
  | Y.Dec (d, s) -> Printf.sprintf "dec %s, %s" d s
  | Y.Neg (d, s) -> Printf.sprintf "neg %s, %s" d s
  | Y.Not (d, s) -> Printf.sprintf "not %s, %s" d s
  | Y.Shift (op, d, s, n) ->
      Printf.sprintf "%s %s, %s, %d" (Rtl.abinop_name op) d s n
  | Y.Load (d, a) -> Printf.sprintf "load %s, %s" d a
  | Y.Stor (s, a) -> Printf.sprintf "stor %s, %s" s a
  | Y.Jump l -> "jump " ^ l
  | Y.Jump_if (l, c) -> Printf.sprintf "jump %s if %s" l (condition c)
  | Y.Call l -> "call " ^ l
  | Y.Ret -> "ret"
  | Y.Exit None -> "exit"
  | Y.Exit (Some r) -> "exit " ^ r

let yalll_transcript buf src =
  match Msl_yalll.Parser.parse ~file:"t" src with
  | p ->
      List.iter
        (fun (d : Y.decl) ->
          Printf.bprintf buf "reg %s = %s %s\n" d.d_name
            (Option.value d.d_binding ~default:"-")
            (loc d.d_loc))
        p.decls;
      List.iter
        (function
          | Y.Label (l, lc) -> Printf.bprintf buf "%s: %s\n" l (loc lc)
          | Y.Instr (i, lc) -> Printf.bprintf buf "%s %s\n" (instr i) (loc lc))
        p.items
  | exception Diag.Error d -> Printf.bprintf buf "%s\n" (diag d)

let examples_with ext =
  let dir =
    if Sys.file_exists "../examples" then "../examples" else "examples"
  in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ext)
  |> List.map (fun f ->
         let ic = open_in_bin (Filename.concat dir f) in
         let src = really_input_string ic (in_channel_length ic) in
         close_in ic;
         src)

(* Hand-written sources: every token of each language, keywords in
   every case, and each lexical error, NUL bytes included. *)
let simpl_extra =
  [ "program P; begin a -> b; (c + d) - e & f | g # h ~ i ^ 1 ^^ 2;\n\
     for i := 0 to 9 do x = 1 <> 2 < 3 <= 4 > 5 >= 6 end";
    "PROGRAM Q; Comment this; is skipped;\nBEGIN While X Do Call P END";
    "comment no terminator";
    "commentary; comment; COMMENT x;y";
    "a : b"; "a @ b"; "a \000 b"; "x := 99999999999999999999";
    "x := 12ab"; "x := 0x1F + 0b101 + 0o17"; "" ]

let empl_extra =
  [ "DECLARE A FIXED; /* comment */ A = (B, C): D . E = F ^= G <> H\n\
     < I <= J > K >= L + M - N * O / P & Q | R;";
    "declare x fixed initially 0x10; Do While (X); End; ENDTYPE EndType";
    "/* unterminated"; "/* \000 */ a"; "a ^ b"; "a @ b"; "a \000 b";
    "x = 0x"; "x = 123456789012345678901"; "" ]

let sstar_extra =
  [ "program P; # comment # var x : seq [15..0] bit at R1; -- to eol\n\
     begin x := (x + 1) - 2 & 3 | 4 * 5; y[1] := {a, b}; if a = b => c \
     <> d < e <= f > g >= h then ~x !y ^ 1 ^^ 2 . z fi end";
    "PROGRAM Q; VAR X; Begin CoBegin CoEnd End";
    "# unterminated"; "# \000 # a"; "-- \000\na"; "a @ b"; "a \000 b";
    "x := 0b102"; "x := 99999999999999999999"; "-"; "" ]

let yalll_extra =
  [ "reg a = R1\nreg b\nloop: move a,b ; comment\n  add a,a,1\n\
     \  jump loop if a = 0\n  jump out if b <> 0\n  jump loop if a mask 1x0\n\
     \  lsl a,b,3\nout: exit a\n";
    "set a,-5\nset a,#7\nset a,0x1f\nset a,12ab\n";
    "exit\000"; "move a,\000"; "\000"; "frob a,b"; "jump l if a = 1";
    "lsl a,b,-1"; "" ]

let mutations = 40

(* The source plus [mutations] seeded mutations and as many seeded runs
   of noise, as the fuzzer draws them. *)
let variants src =
  src
  :: List.concat
       (List.init mutations (fun i ->
            let rng = Random.State.make [| i; String.length src; 97 |] in
            let m = Core.Workloads.mutate rng src in
            [ m; Core.Workloads.noise rng (Random.State.int rng 160) ]))

let transcript () =
  let buf = Buffer.create (1 lsl 20) in
  let over name f srcs =
    List.iteri
      (fun i src ->
        List.iteri
          (fun j v ->
            Printf.bprintf buf "== %s %d.%d\n" name i j;
            f buf v)
          (variants src))
      srcs
  in
  over "simpl"
    (lex_transcript (module Msl_simpl.Lexer))
    (examples_with ".simpl" @ [ Core.Handcoded.simpl_fpmul ] @ simpl_extra);
  over "empl"
    (lex_transcript (module Msl_empl.Lexer))
    (examples_with ".empl"
    @ [ Core.Experiments.o1_empl_src;
        Core.Workloads.pressure_program ~seed:7 ~nvars:12 ~nops:32 ]
    @ empl_extra);
  over "sstar"
    (lex_transcript (module Msl_sstar.Lexer))
    (Core.Experiments.o1_sstar_src :: sstar_extra);
  over "yalll" yalll_transcript
    (examples_with ".yll" @ [ Core.Handcoded.yalll_translit ] @ yalll_extra);
  Buffer.contents buf

let pinned_digest = "3b2efeebe93671e6773270d787ed0b76"

let test_transcript () =
  let t = transcript () in
  let got = Digest.to_hex (Digest.string t) in
  if got <> pinned_digest then begin
    let oc = open_out_bin "frontends.transcript" in
    output_string oc t;
    close_out oc;
    Alcotest.failf "frontend transcript digest %s (written to %s)" got
      (Filename.concat (Sys.getcwd ()) "frontends.transcript")
  end

(* -- keyword tables ----------------------------------------------------- *)

let mixed k =
  String.mapi (fun i c -> if i mod 2 = 0 then Char.uppercase_ascii c else c) k

(* Each keyword in lower, UPPER and MiXeD case lexes to [Kw k]; a
   near-miss one letter longer or shorter lexes to [Ident] of its own
   spelling.  [classify] reads a token as one or the other. *)
let check_keywords (type tok) (module L : LEXER with type token = tok)
    ~(classify : tok -> [ `Kw of string | `Ident of string | `Other ])
    keywords =
  let single src =
    match tokens (module L) src with
    | [ (tok, _); _eof ], None -> classify tok
    | _ -> Alcotest.failf "%S is not one token" src
  in
  List.iter
    (fun k ->
      List.iter
        (fun spelling ->
          if single spelling <> `Kw k then
            Alcotest.failf "%S does not lex to keyword %S" spelling k)
        [ k; String.uppercase_ascii k; mixed k ];
      let n = String.length k in
      List.iter
        (fun miss ->
          if not (List.mem (String.lowercase_ascii miss) keywords) then
            List.iter
              (fun spelling ->
                if single spelling <> `Ident spelling then
                  Alcotest.failf "near-miss %S is not an identifier" spelling)
              [ miss; String.uppercase_ascii miss; mixed miss ])
        [ k ^ "q"; String.sub k 0 (n - 1) ])
    keywords

let simpl_keywords =
  [ "program"; "begin"; "end"; "if"; "then"; "else"; "while"; "do"; "for";
    "to"; "case"; "of"; "procedure"; "call"; "alias"; "read"; "write" ]

let empl_keywords =
  [ "declare"; "fixed"; "type"; "endtype"; "initially"; "do"; "end"; "while";
    "operation"; "accepts"; "returns"; "microop"; "if"; "then"; "else";
    "goto"; "call"; "return"; "error"; "procedure"; "xor"; "nand"; "nor";
    "nxor"; "mod"; "not"; "neg"; "shl"; "shr"; "sar"; "rol"; "ror" ]

let sstar_keywords =
  [ "program"; "var"; "const"; "syn"; "at"; "regs"; "mem"; "ptr"; "of";
    "bit"; "seq"; "array"; "tuple"; "stack"; "with"; "begin"; "end";
    "cobegin"; "coend"; "cocycle"; "dur"; "do"; "region"; "if"; "then";
    "elif"; "else"; "fi"; "while"; "od"; "repeat"; "until"; "inv"; "call";
    "return"; "proc"; "uses"; "push"; "pop"; "assert"; "pre"; "post";
    "and"; "or"; "not"; "true"; "false"; "dec"; "hex"; "bin" ]

let test_simpl_keywords () =
  let module L = Msl_simpl.Lexer in
  Alcotest.(check int) "17 keywords" 17 (List.length simpl_keywords);
  check_keywords (module L)
    ~classify:(function L.Kw k -> `Kw k | L.Ident s -> `Ident s | _ -> `Other)
    simpl_keywords;
  let names src =
    List.map (fun (t, _) -> L.token_name t) (fst (tokens (module L) src))
  in
  let check what expected src =
    Alcotest.(check (list string)) what expected (names src)
  in
  check "comment skipped" [ "identifier \"x\""; "end of input" ]
    "comment a b c; x";
  check "COMMENT skipped" [ "identifier \"x\""; "end of input" ]
    "COMMENT a b c; x";
  check "commentary is an identifier"
    [ "identifier \"commentary\""; "end of input" ]
    "commentary";
  check "unterminated comment ends at Eof" [ "identifier \"a\""; "end of input" ]
    "a comment b c"

let test_empl_keywords () =
  let module L = Msl_empl.Lexer in
  Alcotest.(check int) "32 keywords" 32 (List.length empl_keywords);
  check_keywords (module L)
    ~classify:(function L.Kw k -> `Kw k | L.Ident s -> `Ident s | _ -> `Other)
    empl_keywords

let test_sstar_keywords () =
  let module L = Msl_sstar.Lexer in
  Alcotest.(check int) "50 keywords" 50 (List.length sstar_keywords);
  check_keywords (module L)
    ~classify:(function L.Kw k -> `Kw k | L.Ident s -> `Ident s | _ -> `Other)
    sstar_keywords

(* -- allocation ------------------------------------------------------------ *)

(* Lexing allocates per token, not per character: the token's location
   and, for a word or number, its text.  The bound is on minor-heap
   words, so it is exact and machine-independent. *)
let words_per_token (type tok) (module L : LEXER with type token = tok)
    ~(eof : tok) src =
  let w0 = Gc.minor_words () in
  let lx = L.make ~file:"t" src and n = ref 1 in
  while L.token lx != eof do
    L.advance lx;
    incr n
  done;
  (Gc.minor_words () -. w0) /. float !n

let test_alloc_bound () =
  let bound name words =
    if words > 24. then
      Alcotest.failf "%s: %.2f minor words per token (bound 24)" name words
  in
  List.iter
    (fun src ->
      bound "SIMPL"
        (words_per_token (module Msl_simpl.Lexer) ~eof:Msl_simpl.Lexer.Eof src))
    (examples_with ".simpl");
  List.iter
    (fun src ->
      bound "EMPL"
        (words_per_token (module Msl_empl.Lexer) ~eof:Msl_empl.Lexer.Eof src))
    (examples_with ".empl"
    @ [ Core.Workloads.pressure_program ~seed:7 ~nvars:12 ~nops:32 ])

let () =
  Alcotest.run "frontends"
    [
      ( "transcript",
        [ Alcotest.test_case "tokens, ASTs and diagnostics pinned" `Quick
            test_transcript ] );
      ( "keywords",
        [
          Alcotest.test_case "SIMPL keywords and comments" `Quick
            test_simpl_keywords;
          Alcotest.test_case "EMPL keywords" `Quick test_empl_keywords;
          Alcotest.test_case "S* keywords" `Quick test_sstar_keywords;
        ] );
      ( "allocation",
        [ Alcotest.test_case "at most 24 minor words per token" `Quick
            test_alloc_bound ] );
    ]
