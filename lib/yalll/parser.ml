(* Line-oriented parser for YALLL.

   Syntax (one item per line, ';' starts a comment):

     reg str = db          ; bind YALLL name to machine register
     reg tmp               ; unbound: symbolic variable
     loop:                 ; label (may share a line with an instruction)
       load  char,str
       jump  out if char = 0
       add   mar,char,tbl
       stor  char,str
       add   str,str,1
       lsl   x,y,3
       jump  loop
     out: exit
*)

open Msl_machine
module Diag = Msl_util.Diag
module Scanner = Msl_util.Scanner

type st = { sc : Scanner.t }

let err st fmt = Diag.error ~loc:(Scanner.here st.sc) Diag.Parsing fmt

let skip_line_junk st =
  Scanner.skip_hspaces st.sc;
  if Scanner.peek st.sc = ';' then Scanner.skip_line st.sc

let at_eol st =
  skip_line_junk st;
  Scanner.eof st.sc || Scanner.peek st.sc = '\n'

let next_line st =
  if not (at_eol st) then err st "trailing characters on line";
  ignore (Scanner.eat st.sc '\n')

let ident st =
  Scanner.skip_hspaces st.sc;
  if Scanner.is_ident_start (Scanner.peek st.sc) then Scanner.ident st.sc
  else err st "expected identifier"

let number st =
  Scanner.skip_hspaces st.sc;
  let neg = Scanner.eat st.sc '-' in
  if Scanner.is_digit (Scanner.peek st.sc) then
    let v = Scanner.number st.sc Diag.Parsing Int64.of_string in
    if neg then Int64.neg v else v
  else err st "expected number"

let comma st =
  Scanner.skip_hspaces st.sc;
  if not (Scanner.eat st.sc ',') then err st "expected ','"

let operand st : Ast.operand =
  Scanner.skip_hspaces st.sc;
  match Scanner.peek st.sc with
  | '0' .. '9' | '-' -> Ast.Lit (number st)
  | '#' ->
      Scanner.advance st.sc;
      Ast.Lit (number st)
  | _ -> Ast.Reg (ident st)

let reg_operand st =
  match operand st with
  | Ast.Reg r -> r
  | Ast.Lit _ -> err st "expected a register"

let shift_op = function
  | "lsl" -> Some Rtl.A_shl
  | "lsr" -> Some Rtl.A_shr
  | "asr" -> Some Rtl.A_sra
  | "rol" -> Some Rtl.A_rol
  | "ror" -> Some Rtl.A_ror
  | _ -> None

let binop = function
  | "add" -> Some (Rtl.A_add, false)
  | "addf" -> Some (Rtl.A_add, true)
  | "adc" -> Some (Rtl.A_adc, false)
  | "sub" -> Some (Rtl.A_sub, false)
  | "subf" -> Some (Rtl.A_sub, true)
  | "and" -> Some (Rtl.A_and, false)
  | "or" -> Some (Rtl.A_or, false)
  | "xor" -> Some (Rtl.A_xor, false)
  | _ -> None

(* jump TARGET [if cond] *)
let jump st =
  let target = ident st in
  Scanner.skip_hspaces st.sc;
  if at_eol st then Ast.Jump target
  else begin
    let kw = ident st in
    if kw <> "if" then err st "expected 'if', found %S" kw;
    let r = ident st in
    Scanner.skip_hspaces st.sc;
    match Scanner.peek st.sc with
    | '=' ->
        Scanner.advance st.sc;
        if number st <> 0L then err st "only comparison with 0 is supported";
        Ast.Jump_if (target, Ast.Eq_zero r)
    | '<' when Scanner.peek2 st.sc = '>' ->
        Scanner.advance st.sc;
        Scanner.advance st.sc;
        if number st <> 0L then err st "only comparison with 0 is supported";
        Ast.Jump_if (target, Ast.Ne_zero r)
    | _ ->
        let kw2 = ident st in
        if kw2 <> "mask" then err st "expected '=', '<>' or 'mask'";
        Scanner.skip_hspaces st.sc;
        let m =
          Scanner.take_while st.sc (fun c ->
              c = '0' || c = '1' || c = 'x' || c = 'X')
        in
        if m = "" then err st "expected mask bits after 'mask'";
        Ast.Jump_if (target, Ast.Mask (r, m))
  end

let instr st mnemonic : Ast.instr =
  match mnemonic with
  | "move" ->
      let d = ident st in
      comma st;
      Ast.Move (d, operand st)
  | "set" ->
      let d = ident st in
      comma st;
      let n = number st in
      Ast.Move (d, Ast.Lit n)
  | "inc" ->
      let d = ident st in
      comma st;
      Ast.Inc (d, reg_operand st)
  | "dec" ->
      let d = ident st in
      comma st;
      Ast.Dec (d, reg_operand st)
  | "neg" ->
      let d = ident st in
      comma st;
      Ast.Neg (d, reg_operand st)
  | "not" ->
      let d = ident st in
      comma st;
      Ast.Not (d, reg_operand st)
  | "load" ->
      let d = ident st in
      comma st;
      Ast.Load (d, reg_operand st)
  | "stor" ->
      let s = ident st in
      comma st;
      Ast.Stor (s, reg_operand st)
  | "jump" -> jump st
  | "call" -> Ast.Call (ident st)
  | "ret" -> Ast.Ret
  | "exit" ->
      if at_eol st then Ast.Exit None else Ast.Exit (Some (ident st))
  | m -> (
      match shift_op m with
      | Some op ->
          let d = ident st in
          comma st;
          let s = reg_operand st in
          comma st;
          let n = Int64.to_int (number st) in
          if n < 0 then err st "negative shift amount";
          Ast.Shift (op, d, s, n)
      | None -> (
          match binop m with
          | Some (op, set_flags) ->
              let d = ident st in
              comma st;
              let a = operand st in
              comma st;
              let b = operand st in
              if set_flags then Ast.Binop_f (op, d, a, b)
              else Ast.Binop (op, d, a, b)
          | None -> err st "unknown mnemonic %S" m))

let parse ?(file = "<yalll>") src : Ast.program =
  let st = { sc = Scanner.make ~file src } in
  let decls = ref [] and items = ref [] in
  let rec line () =
    skip_line_junk st;
    match Scanner.peek st.sc with
    | _ when Scanner.eof st.sc -> ()
    | '\n' ->
        Scanner.advance st.sc;
        line ()
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let start = Scanner.pos st.sc in
        let word = Scanner.ident st.sc in
        let loc () = Scanner.loc_from st.sc start in
        (if word = "reg" && not (at_eol st) then begin
           (* declaration: reg NAME [= MACHINEREG] *)
           let name = ident st in
           Scanner.skip_hspaces st.sc;
           let binding =
             if Scanner.eat st.sc '=' then Some (ident st) else None
           in
           decls := { Ast.d_name = name; d_binding = binding; d_loc = loc () } :: !decls
         end
         else begin
           (* label? *)
           Scanner.skip_hspaces st.sc;
           if Scanner.eat st.sc ':' then begin
             items := Ast.Label (word, loc ()) :: !items;
             (* an instruction may follow on the same line *)
             skip_line_junk st;
             if Scanner.is_ident_start (Scanner.peek st.sc) then begin
               let start2 = Scanner.pos st.sc in
               let m = Scanner.ident st.sc in
               let i = instr st m in
               items := Ast.Instr (i, Scanner.loc_from st.sc start2) :: !items
             end
           end
           else begin
             let i = instr st word in
             items := Ast.Instr (i, loc ()) :: !items
           end
         end);
        next_line st;
        line ()
    | c -> err st "unexpected character '%c'" c
  in
  line ();
  { Ast.decls = List.rev !decls; items = List.rev !items }
