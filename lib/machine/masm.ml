(* Microassembler: the textual form of horizontal microcode.

   Hand-written reference microprograms (the survey's efficiency baselines)
   are written in this format and assembled against a machine description;
   every microinstruction is checked with the DeWitt conflict model, so a
   "hand-optimised" program cannot cheat the hardware.

   Syntax (';' starts a comment, '|' separates parallel microoperations):

     loop:
       [ mov MAR, STR | dec CNT ]
       [ rd ] -> if Z goto out
       [ add R1, R1, R2 ] -> goto loop
     out:
       [ ] -> halt

   Sequencing: goto L | if <cond> goto L | call L | return | halt |
   dispatch R<hi..lo> + L.   Conditions: Z / !Z / C / ... / R = 0 /
   R <> 0 / R match 1x0 (MSB first) / int. *)

open Msl_bitvec
module Diag = Msl_util.Diag
module Scanner = Msl_util.Scanner

type target = T_label of string | T_addr of int

(* Instruction with unresolved targets, before label resolution. *)
type pnext =
  | P_next
  | P_goto of target
  | P_if of Desc.cond * target
  | P_dispatch of int * int * int * target  (* reg, hi, lo, base *)
  | P_call of target
  | P_return
  | P_halt

type pinst = { p_ops : Inst.op list; p_next : pnext; p_loc : Msl_util.Loc.t }

type state = { d : Desc.t; sc : Scanner.t }

let err st fmt = Diag.error ~loc:(Scanner.here st.sc) Diag.Assembly fmt

let rec skip st =
  Scanner.skip_spaces st.sc;
  if Scanner.peek st.sc = ';' then begin
    Scanner.skip_line st.sc;
    skip st
  end

let expect st c =
  skip st;
  if not (Scanner.eat st.sc c) then err st "expected '%c'" c

let expect_str st s =
  skip st;
  String.iter
    (fun c -> if not (Scanner.eat st.sc c) then err st "expected %S" s)
    s

let ident st =
  skip st;
  match Scanner.peek st.sc with
  | _ when Scanner.eof st.sc -> err st "expected identifier, found end of input"
  | c when Scanner.is_ident_start c -> Scanner.ident st.sc
  | c -> err st "expected identifier, found '%c'" c

let number st =
  skip st;
  let neg = Scanner.eat st.sc '-' in
  if Scanner.is_digit (Scanner.peek st.sc) then
    let v = Scanner.number st.sc Diag.Assembly int_of_string in
    if neg then -v else v
  else err st "expected number"

let reg_by_name st name =
  match Desc.find_reg st.d name with
  | Some r -> r.Desc.r_id
  | None -> err st "unknown register %S on %s" name st.d.Desc.d_name

(* An operand is a register name or '#'-prefixed immediate; the expected
   kind comes from the template's operand spec. *)
let operand st (spec : Desc.operand_spec) =
  skip st;
  if Scanner.eat st.sc '#' then begin
    let v = number st in
    match spec.o_kind with
    | Desc.O_imm w -> Inst.A_imm (Bitvec.of_int ~width:w v)
    | Desc.O_reg _ -> err st "operand %s must be a register" spec.o_name
  end
  else
    let name = ident st in
    match spec.o_kind with
    | Desc.O_reg _ -> Inst.A_reg (reg_by_name st name)
    | Desc.O_imm _ -> err st "operand %s must be an immediate" spec.o_name

let microop st =
  let name = ident st in
  let tm =
    match Desc.find_template st.d name with
    | Some tm -> tm
    | None -> err st "unknown microoperation %S on %s" name st.d.Desc.d_name
  in
  let n = Array.length tm.Desc.t_operands in
  let args = ref [] in
  for i = 0 to n - 1 do
    if i > 0 then expect st ',';
    args := operand st tm.Desc.t_operands.(i) :: !args
  done;
  Inst.make st.d name (List.rev !args)

let flag_of_name = function
  | "C" -> Some Rtl.C
  | "V" -> Some Rtl.V
  | "Z" -> Some Rtl.Z
  | "N" -> Some Rtl.N
  | "U" -> Some Rtl.U
  | _ -> None

let parse_mask st s =
  let n = String.length s in
  Array.init n (fun i ->
      (* textual masks are MSB first; bit 0 of the array is the LSB *)
      match s.[n - 1 - i] with
      | '1' | 't' -> Desc.Mt
      | '0' | 'f' -> Desc.Mf
      | 'x' | 'X' -> Desc.Mx
      | c -> err st "bad mask character '%c'" c)

let target st =
  skip st;
  if Scanner.is_digit (Scanner.peek st.sc) then T_addr (number st)
  else T_label (ident st)

(* Flags are the single letters C/V/Z/N/U; machine models must not name a
   register with a bare flag letter, so the first identifier decides the
   condition form without backtracking. *)
let cond st =
  skip st;
  if Scanner.eat st.sc '!' then begin
    let name = ident st in
    match flag_of_name name with
    | Some f -> Desc.C_flag (f, false)
    | None -> err st "unknown flag %S" name
  end
  else
    let name = ident st in
    if name = "int" then Desc.C_int_pending
    else
      match flag_of_name name with
      | Some f -> Desc.C_flag (f, true)
      | None -> begin
          let r = reg_by_name st name in
          skip st;
          match Scanner.peek st.sc with
          | '=' ->
              Scanner.advance st.sc;
              if number st <> 0 then
                err st "only comparison with 0 is supported";
              Desc.C_reg_zero (r, true)
          | '<' when Scanner.peek2 st.sc = '>' ->
              Scanner.advance st.sc;
              Scanner.advance st.sc;
              if number st <> 0 then
                err st "only comparison with 0 is supported";
              Desc.C_reg_zero (r, false)
          | _ ->
              let kw = ident st in
              if kw <> "match" then
                err st "expected '=', '<>' or 'match' after register %S" name;
              skip st;
              let s =
                Scanner.take_while st.sc (fun c ->
                    c = '0' || c = '1' || c = 'x' || c = 'X' || c = 't'
                    || c = 'f')
              in
              if s = "" then err st "expected mask after 'match'";
              Desc.C_reg_mask (r, parse_mask st s)
        end

let seqspec st =
  let kw = ident st in
  match kw with
  | "goto" -> P_goto (target st)
  | "if" ->
      let c = cond st in
      if not (Desc.cond_supported st.d c) then
        err st "machine %s cannot test this condition" st.d.Desc.d_name;
      expect_str st "goto";
      P_if (c, target st)
  | "call" -> P_call (target st)
  | "return" -> P_return
  | "halt" -> P_halt
  | "dispatch" ->
      if not (Desc.has_cap st.d Desc.Cap_dispatch) then
        err st "machine %s has no dispatch (multiway branch)" st.d.Desc.d_name;
      let r = reg_by_name st (ident st) in
      expect st '<';
      let hi = number st in
      expect_str st "..";
      let lo = number st in
      expect st '>';
      expect st '+';
      P_dispatch (r, hi, lo, target st)
  | _ -> err st "unknown sequencing keyword %S" kw

let instruction st =
  let start = Scanner.pos st.sc in
  expect st '[';
  let ops = ref [] in
  skip st;
  if Scanner.peek st.sc <> ']' then begin
    ops := [ microop st ];
    skip st;
    while Scanner.peek st.sc = '|' do
      Scanner.advance st.sc;
      ops := microop st :: !ops;
      skip st
    done
  end;
  expect st ']';
  skip st;
  let next =
    if Scanner.peek st.sc = '-' && Scanner.peek2 st.sc = '>' then begin
      Scanner.advance st.sc;
      Scanner.advance st.sc;
      seqspec st
    end
    else P_next
  in
  let loc = Scanner.loc_from st.sc start in
  let p = { p_ops = List.rev !ops; p_next = next; p_loc = loc } in
  (match Conflict.check_inst st.d { Inst.ops = p.p_ops; next = Inst.Next } with
  | Ok () -> ()
  | Error reason ->
      Diag.error ~loc Diag.Compaction "microoperations conflict: %a"
        Conflict.pp_reason reason);
  p

(* Parse the full program: labels and instructions, then resolve targets. *)
let parse (d : Desc.t) ?(file = "<masm>") src =
  let st = { d; sc = Scanner.make ~file src } in
  let items = ref [] in
  let labels = Hashtbl.create 16 in
  let count = ref 0 in
  let rec loop () =
    skip st;
    if not (Scanner.eof st.sc) then begin
      (match Scanner.peek st.sc with
      | '[' -> begin
          items := instruction st :: !items;
          incr count
        end
      | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
          let name = ident st in
          expect st ':';
          if Hashtbl.mem labels name then err st "duplicate label %S" name;
          Hashtbl.replace labels name !count
      | c -> err st "unexpected character '%c'" c);
      loop ()
    end
  in
  loop ();
  let items = List.rev !items in
  let resolve loc = function
    | T_addr a -> a
    | T_label l -> (
        match Hashtbl.find_opt labels l with
        | Some a -> a
        | None -> Diag.error ~loc Diag.Assembly "undefined label %S" l)
  in
  let insts =
    List.map
      (fun p ->
        let next =
          match p.p_next with
          | P_next -> Inst.Next
          | P_goto t -> Inst.Jump (resolve p.p_loc t)
          | P_if (c, t) -> Inst.Branch (c, resolve p.p_loc t)
          | P_dispatch (dreg, hi, lo, t) ->
              Inst.Dispatch { dreg; hi; lo; base = resolve p.p_loc t }
          | P_call t -> Inst.Call (resolve p.p_loc t)
          | P_return -> Inst.Return
          | P_halt -> Inst.Halt
        in
        { Inst.ops = p.p_ops; next })
      items
  in
  (insts, labels)

let parse_program d ?file src = fst (parse d ?file src)

(* Listing: addresses, ops and sequencing, one instruction per line. *)
let print d insts =
  let buf = Buffer.create 512 in
  List.iteri
    (fun i inst ->
      Printf.bprintf buf "%4d: " i;
      Inst.add_inst d buf inst;
      Buffer.add_char buf '\n')
    insts;
  Buffer.contents buf
