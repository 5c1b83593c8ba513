(* The .mdesc machine-description format.

   A machine description is data, not code (survey §2.2.5): the four
   shipped machines live in machines/*.mdesc and user machines arrive
   through [mslc --machine-file].  This module is the whole round trip:
   a lexer/parser/elaborator from source text to a validated {!Desc.t},
   and a canonical printer back to source.  Every failure — lexical,
   syntactic or semantic — is a located {!Msl_util.Diag.Error}; the
   parser never raises anything else on any input, which the fuzzer
   holds it to.

   The concrete syntax is line-insensitive and declaration-ordered:
   scalar parameters, caps, units, fields and registers must all appear
   before the first template, because template bodies are checked
   against them as they parse (giving every error a precise location).
   Registers take their ids from declaration order, and templates keep
   declaration order too — instruction selection prefers earlier
   templates, so order is semantically significant, not cosmetic. *)

module Diag = Msl_util.Diag
module Loc = Msl_util.Loc
module Scanner = Msl_util.Scanner
module Bitvec = Msl_bitvec.Bitvec

(* -- tokens -------------------------------------------------------------- *)

type token =
  | Tident of string
  | Tint of int64
  | Tstr of string
  | Tpunct of char  (* one of  { } ( ) [ ] , : @ $ + - & | ^ ~  *)
  | Teof

type tok = { tk : token; tloc : Loc.t }

let token_desc = function
  | Tident s -> Printf.sprintf "identifier %S" s
  | Tint v -> Printf.sprintf "integer %Ld" v
  | Tstr _ -> "string literal"
  | Tpunct c -> Printf.sprintf "%C" c
  | Teof -> "end of input"

let is_punct = function
  | '{' | '}' | '(' | ')' | '[' | ']' | ',' | ':' | '@' | '$' | '+' | '-'
  | '&' | '|' | '^' | '~' ->
      true
  | _ -> false

let lex ~file src =
  let s = Scanner.make ~file src in
  let toks = ref [] in
  let emit tk tloc = toks := { tk; tloc } :: !toks in
  let rec skip () =
    Scanner.skip_spaces s;
    if Scanner.peek s = '#' then begin
      Scanner.skip_line s;
      skip ()
    end
  in
  let lex_string start =
    Scanner.advance s;
    let buf = Buffer.create 32 in
    (* The next character, consumed; the literal must not end first. *)
    let next () =
      if Scanner.eof s then
        Diag.error ~loc:(Scanner.loc_from s start) Diag.Lexing
          "unterminated string literal";
      let c = Scanner.peek s in
      Scanner.advance s;
      c
    in
    let rec loop () =
      match next () with
      | '"' -> ()
      | '\\' -> (
          match next () with
          | '\\' -> Buffer.add_char buf '\\'; loop ()
          | '"' -> Buffer.add_char buf '"'; loop ()
          | 'n' -> Buffer.add_char buf '\n'; loop ()
          | c ->
              Diag.error ~loc:(Scanner.loc_from s start) Diag.Lexing
                "unknown escape '\\%c' in string literal" c)
      | '\n' ->
          Diag.error ~loc:(Scanner.loc_from s start) Diag.Lexing
            "newline in string literal"
      | c -> Buffer.add_char buf c; loop ()
    in
    loop ();
    emit (Tstr (Buffer.contents buf)) (Scanner.loc_from s start)
  in
  let lex_int start =
    let text =
      match (Scanner.peek s, Scanner.peek2 s) with
      | '0', ('x' | 'X') ->
          Scanner.advance s;
          Scanner.advance s;
          let digits =
            Scanner.take_while s (fun c ->
                Scanner.is_digit c
                || (c >= 'a' && c <= 'f')
                || (c >= 'A' && c <= 'F'))
          in
          "0x" ^ digits
      | _ -> Scanner.decimal_digits s
    in
    match Int64.of_string_opt text with
    | Some v -> emit (Tint v) (Scanner.loc_from s start)
    | None ->
        Diag.error ~loc:(Scanner.loc_from s start) Diag.Lexing
          "malformed integer literal %S" text
  in
  let rec loop () =
    skip ();
    let start = Scanner.pos s in
    match Scanner.peek s with
    | _ when Scanner.eof s -> emit Teof (Scanner.here s)
    | '"' -> lex_string start; loop ()
    | '0' .. '9' -> lex_int start; loop ()
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let id = Scanner.ident s in
        emit (Tident id) (Scanner.loc_from s start);
        loop ()
    | c when is_punct c ->
        Scanner.advance s;
        emit (Tpunct c) (Scanner.loc_from s start);
        loop ()
    | c -> Diag.error ~loc:(Scanner.here s) Diag.Lexing "stray character %C" c
  in
  loop ();
  Array.of_list (List.rev !toks)

(* -- token-stream parser state ------------------------------------------- *)

type parser_state = {
  toks : tok array;
  mutable pos : int;
}

let cur p = p.toks.(p.pos)

let advance p = if p.pos < Array.length p.toks - 1 then p.pos <- p.pos + 1

let perr loc fmt = Diag.error ~loc Diag.Parsing fmt

let serr loc fmt = Diag.error ~loc Diag.Semantic fmt

let expect_punct p c =
  match (cur p).tk with
  | Tpunct c' when c' = c -> advance p
  | tk -> perr (cur p).tloc "expected %C, found %s" c (token_desc tk)

let expect_ident p what =
  match (cur p).tk with
  | Tident s ->
      let loc = (cur p).tloc in
      advance p;
      (s, loc)
  | tk -> perr (cur p).tloc "expected %s, found %s" what (token_desc tk)

let expect_int p what =
  match (cur p).tk with
  | Tint v ->
      let loc = (cur p).tloc in
      advance p;
      (v, loc)
  | tk -> perr (cur p).tloc "expected %s, found %s" what (token_desc tk)

let expect_small_int p ?(min = 0) ?(max = max_int) what =
  let v, loc = expect_int p what in
  if v < Int64.of_int min || v > Int64.of_int max then
    serr loc "%s %Ld outside %d..%d" what v min max;
  (Int64.to_int v, loc)

(* A bracketed identifier list: [a b c]. *)
let ident_list p what =
  expect_punct p '[';
  let rec loop acc =
    match (cur p).tk with
    | Tpunct ']' ->
        advance p;
        List.rev acc
    | Tident s ->
        let loc = (cur p).tloc in
        advance p;
        loop ((s, loc) :: acc)
    | tk -> perr (cur p).tloc "expected %s or ']', found %s" what (token_desc tk)
  in
  loop []

(* -- elaboration state --------------------------------------------------- *)

(* Scalar machine parameters, each recorded with the location of its
   declaration so duplicates are reported at the second occurrence. *)
type 'a slot = { mutable value : 'a option; key : string }

let set_slot slot loc v =
  (match slot.value with
  | Some _ -> serr loc "duplicate '%s' declaration" slot.key
  | None -> ());
  slot.value <- Some v

let get_slot slot ~loc =
  match slot.value with
  | Some v -> v
  | None -> serr loc "missing '%s' declaration" slot.key

type st = {
  name : string;
  name_loc : Loc.t;
  word : int slot;
  addr : int slot;
  phases : int slot;
  mem_extra : int slot;
  store : int slot;
  scratch : int slot;
  vertical : bool slot;
  note : string slot;
  caps : Desc.cond_cap list slot;
  units : (string * Loc.t) list slot;
  mutable fields : (Desc.field * Loc.t) list;  (* reverse order *)
  mutable regs : (Desc.reg * Loc.t) list;  (* reverse order *)
  mutable templates : (Desc.template * Loc.t) list;  (* reverse order *)
}

let ci = String.lowercase_ascii

let find_dup_ci name items key_of =
  List.exists (fun it -> ci (key_of it) = ci name) items

(* -- field / register declarations --------------------------------------- *)

(* field NAME WIDTH LO *)
let parse_field p st =
  let name, nloc = expect_ident p "field name" in
  if find_dup_ci name st.fields (fun (f, _) -> f.Desc.f_name) then
    serr nloc "duplicate field name %S (field names are case-insensitive)" name;
  let width, _ = expect_small_int p ~min:1 ~max:62 "field width" in
  let lo, _ = expect_small_int p ~min:0 ~max:4096 "field offset" in
  List.iter
    (fun (f, _) ->
      if lo < f.Desc.f_lo + f.Desc.f_width && f.Desc.f_lo < lo + width then
        serr nloc "field %s overlaps field %s" name f.Desc.f_name)
    st.fields;
  st.fields <-
    ({ Desc.f_name = name; f_width = width; f_lo = lo }, nloc) :: st.fields

(* reg NAME WIDTH [classes...] macro? *)
let parse_reg p st =
  let name, nloc = expect_ident p "register name" in
  if find_dup_ci name st.regs (fun (r, _) -> r.Desc.r_name) then
    serr nloc "duplicate register name %S (register names are case-insensitive)"
      name;
  let width, _ = expect_small_int p ~min:1 ~max:64 "register width" in
  let classes = List.map fst (ident_list p "register class") in
  if classes = [] then serr nloc "register %s has an empty class list" name;
  List.iter
    (fun c -> if c = "macro" then serr nloc "'macro' is not a register class")
    classes;
  let macro =
    match (cur p).tk with
    | Tident "macro" ->
        advance p;
        true
    | _ -> false
  in
  let id = List.length st.regs in
  st.regs <-
    ( { Desc.r_id = id; r_name = name; r_width = width; r_classes = classes;
        r_macro = macro },
      nloc )
    :: st.regs

(* -- template bodies ----------------------------------------------------- *)

let abinop_of_name loc = function
  | "add" -> Rtl.A_add
  | "adc" -> Rtl.A_adc
  | "sub" -> Rtl.A_sub
  | "and" -> Rtl.A_and
  | "or" -> Rtl.A_or
  | "xor" -> Rtl.A_xor
  | "mul" -> Rtl.A_mul
  | "shl" -> Rtl.A_shl
  | "shr" -> Rtl.A_shr
  | "sra" -> Rtl.A_sra
  | "rol" -> Rtl.A_rol
  | "ror" -> Rtl.A_ror
  | s -> serr loc "unknown ALU operator %S" s

let flag_of_name loc = function
  | "C" -> Rtl.C
  | "V" -> Rtl.V
  | "Z" -> Rtl.Z
  | "N" -> Rtl.N
  | "U" -> Rtl.U
  | s -> serr loc "unknown flag %S (flags are C, V, Z, N, U)" s

let parse_sem p =
  let s, loc = expect_ident p "semantic class" in
  match s with
  | "move" -> Desc.S_move
  | "const" -> Desc.S_const
  | "not" -> Desc.S_not
  | "neg" -> Desc.S_neg
  | "inc" -> Desc.S_inc
  | "dec" -> Desc.S_dec
  | "mem_read" -> Desc.S_mem_read
  | "mem_write" -> Desc.S_mem_write
  | "test" -> Desc.S_test
  | "nop" -> Desc.S_nop
  | "binop" ->
      let op, oloc = expect_ident p "ALU operator" in
      Desc.S_binop (abinop_of_name oloc op)
  | "special" ->
      let n, _ = expect_ident p "special name" in
      Desc.S_special n
  | _ -> serr loc "unknown semantic class %S" s

(* Per-template parsing context: the operand list grows as [op]
   declarations parse, and '@name' references resolve against it. *)
type tctx = {
  st : st;
  t_name : string;
  t_loc : Loc.t;
  mutable ops : (Desc.operand_spec * Loc.t) list;  (* reverse order *)
}

let opnd_index tc loc name =
  let n = List.length tc.ops in
  let rec find i = function
    | [] ->
        serr loc "template %s: unknown operand @%s (operands must be declared \
                  before use)" tc.t_name name
    | (o, _) :: rest ->
        if o.Desc.o_name = name then n - 1 - i else find (i + 1) rest
  in
  find 0 tc.ops

let reg_exists tc name =
  List.exists (fun (r, _) -> r.Desc.r_name = name) tc.st.regs

let check_reg tc loc name =
  if not (reg_exists tc name) then
    serr loc "template %s: unknown register $%s" tc.t_name name

(* op NAME (reg CLASS | lit WIDTH) (read | write | rw) *)
let parse_op p tc =
  let name, nloc = expect_ident p "operand name" in
  if List.exists (fun (o, _) -> o.Desc.o_name = name) tc.ops then
    serr nloc "template %s: duplicate operand name %S" tc.t_name name;
  let kind =
    let k, kloc = expect_ident p "'reg' or 'lit'" in
    match k with
    | "reg" ->
        let cls, cloc = expect_ident p "register class" in
        if
          not
            (List.exists
               (fun (r, _) -> List.mem cls r.Desc.r_classes)
               tc.st.regs)
        then
          serr cloc "template %s: no register carries class %S" tc.t_name cls;
        Desc.O_reg cls
    | "lit" ->
        let w, _ = expect_small_int p ~min:1 ~max:64 "immediate width" in
        Desc.O_imm w
    | _ -> perr kloc "expected 'reg' or 'lit', found identifier %S" k
  in
  let role =
    let r, rloc = expect_ident p "operand role" in
    match r with
    | "read" -> Desc.Read
    | "write" -> Desc.Write
    | "rw" -> Desc.Read_write
    | _ -> perr rloc "expected 'read', 'write' or 'rw', found %S" r
  in
  tc.ops <- ({ Desc.o_name = name; o_kind = kind; o_role = role }, nloc) :: tc.ops

(* -- RTL expressions ----------------------------------------------------- *)

let parse_dest p tc =
  match (cur p).tk with
  | Tpunct '@' ->
      advance p;
      let name, loc = expect_ident p "operand name" in
      Rtl.D_opnd (opnd_index tc loc name)
  | Tpunct '$' ->
      advance p;
      let name, loc = expect_ident p "register name" in
      check_reg tc loc name;
      Rtl.D_reg name
  | tk ->
      perr (cur p).tloc "expected a destination (@operand or $register), \
                         found %s" (token_desc tk)

let parse_const p tc v vloc =
  expect_punct p ':';
  let w, _ = expect_small_int p ~min:1 ~max:64 "constant width" in
  if w < 64 && Int64.shift_right_logical v w <> 0L then
    serr vloc "template %s: constant %Ld does not fit in %d bits" tc.t_name v w;
  Rtl.Const (Bitvec.of_int64 ~width:w v)

let rec parse_expr p tc =
  let lhs = parse_unary p tc in
  let rec loop lhs =
    match (cur p).tk with
    | Tpunct '+' -> advance p; loop (Rtl.Add (lhs, parse_unary p tc))
    | Tpunct '-' -> advance p; loop (Rtl.Sub (lhs, parse_unary p tc))
    | Tpunct '&' -> advance p; loop (Rtl.And (lhs, parse_unary p tc))
    | Tpunct '|' -> advance p; loop (Rtl.Or (lhs, parse_unary p tc))
    | Tpunct '^' -> advance p; loop (Rtl.Xor (lhs, parse_unary p tc))
    | _ -> lhs
  in
  loop lhs

and parse_unary p tc =
  match (cur p).tk with
  | Tpunct '~' ->
      advance p;
      Rtl.Not (parse_unary p tc)
  | _ -> parse_primary p tc

and parse_primary p tc =
  match (cur p).tk with
  | Tpunct '@' ->
      advance p;
      let name, loc = expect_ident p "operand name" in
      Rtl.Opnd (opnd_index tc loc name)
  | Tpunct '$' ->
      advance p;
      let name, loc = expect_ident p "register name" in
      check_reg tc loc name;
      Rtl.Reg name
  | Tint v ->
      let vloc = (cur p).tloc in
      advance p;
      parse_const p tc v vloc
  | Tpunct '(' ->
      advance p;
      let e = parse_expr p tc in
      expect_punct p ')';
      e
  | Tident "flag" ->
      advance p;
      expect_punct p '(';
      let f, floc = expect_ident p "flag name" in
      expect_punct p ')';
      Rtl.Flag (flag_of_name floc f)
  | Tident "zext" ->
      advance p;
      expect_punct p '(';
      let w, _ = expect_small_int p ~min:1 ~max:64 "zext width" in
      expect_punct p ',';
      let e = parse_expr p tc in
      expect_punct p ')';
      Rtl.Zext (w, e)
  | Tident "slice" ->
      advance p;
      expect_punct p '(';
      let e = parse_expr p tc in
      expect_punct p ',';
      let hi, _ = expect_small_int p ~min:0 ~max:63 "slice high bit" in
      expect_punct p ',';
      let lo, lloc = expect_small_int p ~min:0 ~max:63 "slice low bit" in
      expect_punct p ')';
      if lo > hi then
        serr lloc "template %s: slice low bit %d above high bit %d" tc.t_name
          lo hi;
      Rtl.Slice (e, hi, lo)
  | Tident "concat" ->
      advance p;
      expect_punct p '(';
      let a = parse_expr p tc in
      expect_punct p ',';
      let b = parse_expr p tc in
      expect_punct p ')';
      Rtl.Concat (a, b)
  | Tident "mux" ->
      advance p;
      expect_punct p '(';
      let c = parse_expr p tc in
      expect_punct p ',';
      let a = parse_expr p tc in
      expect_punct p ',';
      let b = parse_expr p tc in
      expect_punct p ')';
      Rtl.Mux (c, a, b)
  | tk -> perr (cur p).tloc "expected an expression, found %s" (token_desc tk)

(* -- actions ------------------------------------------------------------- *)

(* act assign DEST, E | act arith OP DEST, E, E | act arithq OP DEST, E, E
   | act flags OP E, E | act read DEST, E | act write E, E
   | act setflag F, E | act intack *)
let parse_action p tc =
  let head, hloc = expect_ident p "action kind" in
  let comma () = expect_punct p ',' in
  match head with
  | "assign" ->
      let d = parse_dest p tc in
      comma ();
      let e = parse_expr p tc in
      Rtl.Assign (d, e)
  | "arith" | "arithq" ->
      let op, oloc = expect_ident p "ALU operator" in
      let op = abinop_of_name oloc op in
      let d = parse_dest p tc in
      comma ();
      let a = parse_expr p tc in
      comma ();
      let b = parse_expr p tc in
      if head = "arith" then Rtl.Arith (d, op, a, b)
      else Rtl.Arith_nf (d, op, a, b)
  | "flags" ->
      let op, oloc = expect_ident p "ALU operator" in
      let op = abinop_of_name oloc op in
      let a = parse_expr p tc in
      comma ();
      let b = parse_expr p tc in
      Rtl.Arith_flags (op, a, b)
  | "read" ->
      let d = parse_dest p tc in
      comma ();
      let addr = parse_expr p tc in
      Rtl.Mem_read (d, addr)
  | "write" ->
      let addr = parse_expr p tc in
      comma ();
      let v = parse_expr p tc in
      Rtl.Mem_write (addr, v)
  | "setflag" ->
      let f, floc = expect_ident p "flag name" in
      comma ();
      let e = parse_expr p tc in
      Rtl.Set_flag (flag_of_name floc f, e)
  | "intack" -> Rtl.Int_ack
  | _ -> perr hloc "unknown action kind %S" head

(* -- templates ----------------------------------------------------------- *)

let parse_enc p tc =
  let fname, floc = expect_ident p "field name" in
  let field =
    match
      List.find_opt (fun (f, _) -> f.Desc.f_name = fname) tc.st.fields
    with
    | Some (f, _) -> f
    | None -> serr floc "template %s: unknown field %S" tc.t_name fname
  in
  match (cur p).tk with
  | Tpunct '@' ->
      advance p;
      let name, loc = expect_ident p "operand name" in
      { Desc.fs_field = fname; fs_value = Desc.Fv_opnd (opnd_index tc loc name) }
  | Tint v ->
      let vloc = (cur p).tloc in
      advance p;
      if v < 0L then serr vloc "field values are unsigned";
      if
        field.Desc.f_width < 62
        && Int64.shift_right_logical v field.Desc.f_width <> 0L
      then
        serr vloc "template %s: value %Ld does not fit field %s (%d bits)"
          tc.t_name v fname field.Desc.f_width;
      { Desc.fs_field = fname; fs_value = Desc.Fv_const (Int64.to_int v) }
  | tk ->
      perr (cur p).tloc "expected a field value (integer or @operand), \
                         found %s" (token_desc tk)

let parse_template p st =
  let name, nloc = expect_ident p "template name" in
  if find_dup_ci name st.templates (fun (t, _) -> t.Desc.t_name) then
    serr nloc "duplicate template name %S (template names are \
               case-insensitive)" name;
  let phases = get_slot st.phases ~loc:nloc in
  let units = get_slot st.units ~loc:nloc in
  let tc = { st; t_name = name; t_loc = nloc; ops = [] } in
  let sem = ref None in
  let phase = ref 0 in
  let extra = ref 0 in
  let t_units = ref [] in
  let result = ref Desc.R_operands in
  let encs = ref [] in
  let acts = ref [] in
  expect_punct p '{';
  let rec body () =
    match (cur p).tk with
    | Tpunct '}' -> advance p
    | Tident "sem" ->
        advance p;
        (match !sem with
        | Some _ -> serr (cur p).tloc "template %s: duplicate 'sem'" name
        | None -> ());
        sem := Some (parse_sem p);
        body ()
    | Tident "phase" ->
        advance p;
        let v, vloc = expect_small_int p ~min:0 ~max:63 "phase" in
        if v >= phases then
          serr vloc "template %s: phase %d outside 0..%d" name v (phases - 1);
        phase := v;
        body ()
    | Tident "extra" ->
        advance p;
        let v, _ = expect_small_int p ~min:0 ~max:1_000_000 "extra cycles" in
        extra := v;
        body ()
    | Tident "units" ->
        advance p;
        let us = ident_list p "unit name" in
        List.iter
          (fun (u, uloc) ->
            if not (List.exists (fun (u', _) -> u' = u) units) then
              serr uloc "template %s: unknown unit %S" name u)
          us;
        t_units := List.map fst us;
        body ()
    | Tident "op" ->
        advance p;
        parse_op p tc;
        body ()
    | Tident "result" ->
        advance p;
        (match (cur p).tk with
        | Tident "operands" ->
            advance p;
            result := Desc.R_operands
        | Tident "none" ->
            advance p;
            result := Desc.R_none
        | Tpunct '$' ->
            advance p;
            let r, rloc = expect_ident p "register name" in
            check_reg tc rloc r;
            result := Desc.R_reg r
        | tk ->
            perr (cur p).tloc "expected 'operands', 'none' or $register, \
                               found %s" (token_desc tk));
        body ()
    | Tident "enc" ->
        advance p;
        encs := parse_enc p tc :: !encs;
        body ()
    | Tident "act" ->
        advance p;
        acts := parse_action p tc :: !acts;
        body ()
    | tk ->
        perr (cur p).tloc
          "expected a template item (sem, phase, extra, units, op, result, \
           enc, act) or '}', found %s" (token_desc tk)
  in
  body ();
  let sem =
    match !sem with
    | Some s -> s
    | None -> serr nloc "template %s: missing 'sem'" name
  in
  let operands = Array.of_list (List.rev_map fst tc.ops) in
  let tmpl =
    {
      Desc.t_name = name;
      t_sem = sem;
      t_operands = operands;
      t_result = !result;
      t_phase = !phase;
      t_units = !t_units;
      t_fields = List.rev !encs;
      t_actions = List.rev !acts;
      t_extra_cycles = !extra;
      t_facts = Desc.unresolved;
    }
  in
  (* Role discipline: actions may only write writable operands.  Checked
     here (rather than left to Desc.make) for the located message. *)
  List.iter
    (fun (a : Rtl.action) ->
      let _, opnds = Rtl.action_writes a in
      List.iter
        (fun i ->
          if operands.(i).Desc.o_role = Desc.Read then
            serr tc.t_loc "template %s: action writes read-only operand @%s"
              name operands.(i).Desc.o_name)
        opnds)
    tmpl.Desc.t_actions;
  st.templates <- (tmpl, nloc) :: st.templates

(* -- the machine block --------------------------------------------------- *)

let cap_of_name loc = function
  | "flag" -> Desc.Cap_flag
  | "reg_zero" -> Desc.Cap_reg_zero
  | "reg_mask" -> Desc.Cap_reg_mask
  | "int" -> Desc.Cap_int
  | "dispatch" -> Desc.Cap_dispatch
  | s ->
      serr loc "unknown condition capability %S (known: flag, reg_zero, \
                reg_mask, int, dispatch)" s

let cap_name = function
  | Desc.Cap_flag -> "flag"
  | Desc.Cap_reg_zero -> "reg_zero"
  | Desc.Cap_reg_mask -> "reg_mask"
  | Desc.Cap_int -> "int"
  | Desc.Cap_dispatch -> "dispatch"

let islot key = { value = None; key }

let parse_machine p =
  (match (cur p).tk with
  | Tident "machine" -> advance p
  | tk -> perr (cur p).tloc "expected 'machine', found %s" (token_desc tk));
  let name, name_loc = expect_ident p "machine name" in
  let st =
    {
      name;
      name_loc;
      word = islot "word";
      addr = islot "addr";
      phases = islot "phases";
      mem_extra = islot "mem_extra";
      store = islot "store";
      scratch = islot "scratch";
      vertical = islot "layout";
      note = islot "note";
      caps = islot "caps";
      units = islot "units";
      fields = [];
      regs = [];
      templates = [];
    }
  in
  expect_punct p '{';
  let scalar slot ~min ~max =
    let loc = (cur p).tloc in
    advance p;
    let v, _ = expect_small_int p ~min ~max slot.key in
    set_slot slot loc v
  in
  let rec body () =
    match (cur p).tk with
    | Tpunct '}' -> advance p
    | Tident "word" ->
        scalar st.word ~min:1 ~max:64;
        body ()
    | Tident "addr" ->
        scalar st.addr ~min:1 ~max:30;
        body ()
    | Tident "phases" ->
        scalar st.phases ~min:1 ~max:16;
        body ()
    | Tident "mem_extra" ->
        scalar st.mem_extra ~min:0 ~max:1_000_000;
        body ()
    | Tident "store" ->
        scalar st.store ~min:1 ~max:(1 lsl 30);
        body ()
    | Tident "scratch" ->
        scalar st.scratch ~min:0 ~max:max_int;
        body ()
    | Tident "horizontal" ->
        set_slot st.vertical (cur p).tloc false;
        advance p;
        body ()
    | Tident "vertical" ->
        set_slot st.vertical (cur p).tloc true;
        advance p;
        body ()
    | Tident "note" ->
        let loc = (cur p).tloc in
        advance p;
        (match (cur p).tk with
        | Tstr s ->
            advance p;
            set_slot st.note loc s
        | tk -> perr (cur p).tloc "expected a string, found %s" (token_desc tk));
        body ()
    | Tident "caps" ->
        let loc = (cur p).tloc in
        advance p;
        let caps =
          List.map (fun (c, cloc) -> cap_of_name cloc c)
            (ident_list p "condition capability")
        in
        set_slot st.caps loc caps;
        body ()
    | Tident "units" ->
        let loc = (cur p).tloc in
        advance p;
        let us = ident_list p "unit name" in
        List.iteri
          (fun i (u, uloc) ->
            if
              List.exists (fun (u', _) -> ci u' = ci u)
                (List.filteri (fun j _ -> j < i) us)
            then
              serr uloc "duplicate unit name %S (unit names are \
                         case-insensitive)" u)
          us;
        set_slot st.units loc us;
        body ()
    | Tident "field" ->
        advance p;
        parse_field p st;
        body ()
    | Tident "reg" ->
        advance p;
        parse_reg p st;
        body ()
    | Tident "tmpl" ->
        advance p;
        parse_template p st;
        body ()
    | tk ->
        perr (cur p).tloc
          "expected a machine item (word, addr, phases, mem_extra, store, \
           scratch, horizontal, vertical, note, caps, units, field, reg, \
           tmpl) or '}', found %s" (token_desc tk)
  in
  body ();
  (match (cur p).tk with
  | Teof -> ()
  | tk -> perr (cur p).tloc "expected end of input, found %s" (token_desc tk));
  let loc = name_loc in
  if st.regs = [] then serr loc "machine %s declares no registers" name;
  if st.templates = [] then serr loc "machine %s declares no templates" name;
  let word = get_slot st.word ~loc in
  let desc () =
    Desc.make ~name ~word ~addr:(get_slot st.addr ~loc)
      ~phases:(get_slot st.phases ~loc)
      ~regs:(List.rev_map fst st.regs)
      ~units:(List.map fst (Option.value st.units.value ~default:[]))
      ~fields:(List.rev_map fst st.fields)
      ~templates:(List.rev_map fst st.templates)
      ~cond_caps:(Option.value st.caps.value ~default:[])
      ~mem_extra_cycles:(Option.value st.mem_extra.value ~default:0)
      ~store_words:(get_slot st.store ~loc)
      ~vertical:(Option.value st.vertical.value ~default:false)
      ~scratch_base:(Option.value st.scratch.value ~default:0)
      ~note:(Option.value st.note.value ~default:"")
      ()
  in
  (* The elaborator above checks everything with precise locations, but
     [Desc.make] revalidates; anything it still rejects surfaces as a
     located diagnostic rather than an Invalid_argument escape. *)
  try desc () with Invalid_argument msg -> serr loc "%s" msg

let parse ~file src =
  let toks = lex ~file src in
  parse_machine { toks; pos = 0 }

(* -- canonical printer --------------------------------------------------- *)

let bprintf = Printf.bprintf

let print_expr buf (d : Desc.template) =
  let opname i = d.t_operands.(i).Desc.o_name in
  let rec go = function
    | Rtl.Opnd i -> bprintf buf "@%s" (opname i)
    | Rtl.Reg r -> bprintf buf "$%s" r
    | Rtl.Const c ->
        bprintf buf "0x%Lx:%d" (Bitvec.to_int64 c) (Bitvec.width c)
    | Rtl.Flag f -> bprintf buf "flag(%s)" (Rtl.flag_name f)
    | Rtl.Add (a, b) -> bin "+" a b
    | Rtl.Sub (a, b) -> bin "-" a b
    | Rtl.And (a, b) -> bin "&" a b
    | Rtl.Or (a, b) -> bin "|" a b
    | Rtl.Xor (a, b) -> bin "^" a b
    | Rtl.Not e ->
        bprintf buf "~";
        atom e
    | Rtl.Slice (e, hi, lo) ->
        bprintf buf "slice(";
        go e;
        bprintf buf ", %d, %d)" hi lo
    | Rtl.Concat (a, b) ->
        bprintf buf "concat(";
        go a;
        bprintf buf ", ";
        go b;
        bprintf buf ")"
    | Rtl.Zext (w, e) ->
        bprintf buf "zext(%d, " w;
        go e;
        bprintf buf ")"
    | Rtl.Mux (c, a, b) ->
        bprintf buf "mux(";
        go c;
        bprintf buf ", ";
        go a;
        bprintf buf ", ";
        go b;
        bprintf buf ")"
  and bin op a b =
    bprintf buf "(";
    go a;
    bprintf buf " %s " op;
    go b;
    bprintf buf ")"
  and atom e =
    match e with
    | Rtl.Add _ | Rtl.Sub _ | Rtl.And _ | Rtl.Or _ | Rtl.Xor _ ->
        bprintf buf "(";
        go e;
        bprintf buf ")"
    | _ -> go e
  in
  go

let print_dest buf (d : Desc.template) = function
  | Rtl.D_opnd i -> bprintf buf "@%s" d.t_operands.(i).Desc.o_name
  | Rtl.D_reg r -> bprintf buf "$%s" r

let sem_source = function
  | Desc.S_move -> "move"
  | Desc.S_const -> "const"
  | Desc.S_binop op -> "binop " ^ Rtl.abinop_name op
  | Desc.S_not -> "not"
  | Desc.S_neg -> "neg"
  | Desc.S_inc -> "inc"
  | Desc.S_dec -> "dec"
  | Desc.S_mem_read -> "mem_read"
  | Desc.S_mem_write -> "mem_write"
  | Desc.S_test -> "test"
  | Desc.S_nop -> "nop"
  | Desc.S_special s -> "special " ^ s

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_source (d : Desc.t) =
  let buf = Buffer.create 4096 in
  bprintf buf "# Machine description (.mdesc).  Grammar: DESIGN.md.\n";
  bprintf buf "machine %s {\n" d.d_name;
  bprintf buf "  note \"%s\"\n" (escape_string d.d_note);
  bprintf buf "  word %d\n" d.d_word;
  bprintf buf "  addr %d\n" d.d_addr;
  bprintf buf "  phases %d\n" d.d_phases;
  bprintf buf "  mem_extra %d\n" d.d_mem_extra_cycles;
  bprintf buf "  store %d\n" d.d_store_words;
  bprintf buf "  scratch %d\n" d.d_scratch_base;
  bprintf buf "  %s\n" (if d.d_vertical then "vertical" else "horizontal");
  bprintf buf "  caps [%s]\n"
    (String.concat " " (List.map cap_name d.d_cond_caps));
  bprintf buf "  units [%s]\n" (String.concat " " d.d_units);
  bprintf buf "\n";
  Array.iter
    (fun (f : Desc.field) ->
      bprintf buf "  field %-8s %2d %3d\n" f.f_name f.f_width f.f_lo)
    d.d_fields;
  bprintf buf "\n";
  Array.iter
    (fun (r : Desc.reg) ->
      bprintf buf "  reg %-4s %2d [%s]%s\n" r.r_name r.r_width
        (String.concat " " r.r_classes)
        (if r.r_macro then " macro" else ""))
    d.d_regs;
  Array.iter
    (fun (t : Desc.template) ->
      bprintf buf "\n  tmpl %s {\n" t.t_name;
      bprintf buf "    sem %s\n" (sem_source t.t_sem);
      bprintf buf "    phase %d\n" t.t_phase;
      if t.t_extra_cycles <> 0 then
        bprintf buf "    extra %d\n" t.t_extra_cycles;
      bprintf buf "    units [%s]\n" (String.concat " " t.t_units);
      Array.iter
        (fun (o : Desc.operand_spec) ->
          let kind =
            match o.o_kind with
            | Desc.O_reg cls -> "reg " ^ cls
            | Desc.O_imm w -> Printf.sprintf "lit %d" w
          in
          let role =
            match o.o_role with
            | Desc.Read -> "read"
            | Desc.Write -> "write"
            | Desc.Read_write -> "rw"
          in
          bprintf buf "    op %s %s %s\n" o.o_name kind role)
        t.t_operands;
      (match t.t_result with
      | Desc.R_operands -> bprintf buf "    result operands\n"
      | Desc.R_none -> bprintf buf "    result none\n"
      | Desc.R_reg r -> bprintf buf "    result $%s\n" r);
      List.iter
        (fun (fs : Desc.field_setting) ->
          match fs.fs_value with
          | Desc.Fv_const v -> bprintf buf "    enc %s %d\n" fs.fs_field v
          | Desc.Fv_opnd i ->
              bprintf buf "    enc %s @%s\n" fs.fs_field
                t.t_operands.(i).Desc.o_name)
        t.t_fields;
      List.iter
        (fun (a : Rtl.action) ->
          bprintf buf "    act ";
          (match a with
          | Rtl.Assign (dst, e) ->
              bprintf buf "assign ";
              print_dest buf t dst;
              bprintf buf ", ";
              print_expr buf t e
          | Rtl.Arith (dst, op, a1, a2) | Rtl.Arith_nf (dst, op, a1, a2) ->
              bprintf buf "%s %s "
                (match a with Rtl.Arith _ -> "arith" | _ -> "arithq")
                (Rtl.abinop_name op);
              print_dest buf t dst;
              bprintf buf ", ";
              print_expr buf t a1;
              bprintf buf ", ";
              print_expr buf t a2
          | Rtl.Arith_flags (op, a1, a2) ->
              bprintf buf "flags %s " (Rtl.abinop_name op);
              print_expr buf t a1;
              bprintf buf ", ";
              print_expr buf t a2
          | Rtl.Mem_read (dst, addr) ->
              bprintf buf "read ";
              print_dest buf t dst;
              bprintf buf ", ";
              print_expr buf t addr
          | Rtl.Mem_write (addr, v) ->
              bprintf buf "write ";
              print_expr buf t addr;
              bprintf buf ", ";
              print_expr buf t v
          | Rtl.Set_flag (f, e) ->
              bprintf buf "setflag %s, " (Rtl.flag_name f);
              print_expr buf t e
          | Rtl.Int_ack -> bprintf buf "intack");
          bprintf buf "\n")
        t.t_actions;
      bprintf buf "  }\n")
    d.d_templates;
  bprintf buf "}\n";
  Buffer.contents buf
