(* The micro intermediate representation shared by all four frontends.

   A MIR program is a control-flow graph of basic blocks over registers
   that are either *virtual* (languages with symbolic variables: EMPL) or
   *physical* (languages that identify variables with machine registers:
   SIMPL, S*, YALLL).  The survey's two big implementation problems map
   onto two passes over this IR: register allocation (§2.1.3, Regalloc)
   and microinstruction composition (§2.1.4, Compaction). *)

open Msl_bitvec
module Machine = Msl_machine
module Rtl = Msl_machine.Rtl

type reg =
  | Virt of int  (* symbolic variable, to be allocated *)
  | Phys of int  (* machine register id, fixed by the programmer *)

type label = string

type rvalue =
  | R_const of Bitvec.t
  | R_copy of reg
  | R_not of reg
  | R_neg of reg
  | R_inc of reg
  | R_dec of reg
  | R_binop of Rtl.abinop * reg * reg
  | R_div of reg * reg  (* unsigned; no machine has it: Lower expands *)
  | R_rem of reg * reg
  | R_shift_imm of Rtl.abinop * reg * int  (* shl/shr/sra/rol/ror by constant *)
  | R_mem of reg  (* memory[address register] *)
  | R_mem_abs of int  (* memory[constant address]: spill reloads *)

type stmt =
  | Assign of { dst : reg; rv : rvalue; set_flags : bool }
      (* [set_flags] forces a flag-updating encoding, for a later flag test
         (e.g. SIMPL's UF after a shift) *)
  | Store of { addr : reg; src : reg }
  | Store_abs of { addr : int; src : reg }  (* spill stores *)
  | Test of reg  (* set flags from a register *)
  | Intack  (* acknowledge pending interrupt (poll points, §2.1.5) *)
  | Special of { op : string; args : reg list }
      (* raw machine microoperation by name (EMPL's MICROOP hint,
         §2.2.2); treated conservatively by all analyses *)

type cond =
  | Zero of reg
  | Nonzero of reg
  | Flag_set of Rtl.flag
  | Flag_clear of Rtl.flag
  | Mask_match of reg * Machine.Desc.mask_bit array
  | Int_pending

type term =
  | Goto of label
  | If of cond * label * label  (* then-target, else-target *)
  | Switch of { sel : reg; hi : int; lo : int; targets : label list }
  | Call of { proc : label; cont : label }
  | Ret
  | Halt

type block = { b_label : label; b_stmts : stmt list; b_term : term }

type proc = { p_name : label; p_blocks : block list }
(* [p_blocks] is nonempty; the first block is the entry. *)

type program = {
  main : block list;  (* entry is the first block *)
  procs : proc list;
  vreg_names : (int * string) list;  (* for diagnostics and listings *)
  next_vreg : int;
}

(* -- small helpers ------------------------------------------------------- *)

let assign ?(set_flags = false) dst rv = Assign { dst; rv; set_flags }

let rvalue_reads = function
  | R_const _ | R_mem_abs _ -> []
  | R_copy r | R_not r | R_neg r | R_inc r | R_dec r | R_shift_imm (_, r, _)
  | R_mem r ->
      [ r ]
  | R_binop (_, a, b) | R_div (a, b) | R_rem (a, b) -> [ a; b ]

let stmt_reads = function
  | Assign { rv; _ } -> rvalue_reads rv
  | Store { addr; src } -> [ addr; src ]
  | Store_abs { src; _ } -> [ src ]
  | Test r -> [ r ]
  | Intack -> []
  | Special { args; _ } -> args

let stmt_writes = function
  | Assign { dst; _ } -> [ dst ]
  | Special { args; _ } -> args  (* conservative: may write any operand *)
  | Store _ | Store_abs _ | Test _ | Intack -> []

let cond_reads = function
  | Zero r | Nonzero r | Mask_match (r, _) -> [ r ]
  | Flag_set _ | Flag_clear _ | Int_pending -> []

let term_reads = function
  | If (c, _, _) -> cond_reads c
  | Switch { sel; _ } -> [ sel ]
  | Goto _ | Call _ | Ret | Halt -> []

let term_targets = function
  | Goto l -> [ l ]
  | If (_, a, b) -> [ a; b ]
  | Switch { targets; _ } -> targets
  | Call { proc; cont } -> [ proc; cont ]
  | Ret | Halt -> []

let all_blocks p = p.main @ List.concat_map (fun pr -> pr.p_blocks) p.procs

(* Every virtual register mentioned anywhere in the program. *)
let program_vregs p =
  let add acc = function Virt v -> v :: acc | Phys _ -> acc in
  let of_block acc b =
    let acc =
      List.fold_left
        (fun acc s ->
          List.fold_left add
            (List.fold_left add acc (stmt_reads s))
            (stmt_writes s))
        acc b.b_stmts
    in
    List.fold_left add acc (term_reads b.b_term)
  in
  List.fold_left of_block [] (all_blocks p) |> List.sort_uniq compare

(* -- validation ---------------------------------------------------------- *)

let invalid fmt = Msl_util.Diag.error Msl_util.Diag.Semantic fmt

let validate p =
  let blocks = all_blocks p in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun b ->
      if Hashtbl.mem seen b.b_label then
        invalid "duplicate block label %S" b.b_label;
      Hashtbl.replace seen b.b_label ())
    blocks;
  let proc_entries = Hashtbl.create 8 in
  List.iter
    (fun pr ->
      match pr.p_blocks with
      | [] -> invalid "empty procedure %S" pr.p_name
      | b :: _ -> Hashtbl.replace proc_entries pr.p_name b.b_label)
    p.procs;
  List.iter
    (fun b ->
      List.iter
        (fun l ->
          let is_block = Hashtbl.mem seen l in
          let is_proc = Hashtbl.mem proc_entries l in
          if not (is_block || is_proc) then
            invalid "block %S targets unknown label %S (undefined jump \
                     target in the source?)" b.b_label l)
        (term_targets b.b_term))
    blocks;
  p

(* -- printing ------------------------------------------------------------ *)

let pp_reg names ppf = function
  | Virt v -> (
      match List.assoc_opt v names with
      | Some n -> Fmt.pf ppf "%%%s" n
      | None -> Fmt.pf ppf "%%v%d" v)
  | Phys r -> Fmt.pf ppf "$%d" r

let pp_rvalue names ppf rv =
  let reg = pp_reg names in
  match rv with
  | R_const c -> Bitvec.pp ppf c
  | R_copy r -> reg ppf r
  | R_not r -> Fmt.pf ppf "not %a" reg r
  | R_neg r -> Fmt.pf ppf "neg %a" reg r
  | R_inc r -> Fmt.pf ppf "%a + 1" reg r
  | R_dec r -> Fmt.pf ppf "%a - 1" reg r
  | R_binop (op, a, b) ->
      Fmt.pf ppf "%s %a, %a" (Rtl.abinop_name op) reg a reg b
  | R_div (a, b) -> Fmt.pf ppf "udiv %a, %a" reg a reg b
  | R_rem (a, b) -> Fmt.pf ppf "urem %a, %a" reg a reg b
  | R_shift_imm (op, r, n) -> Fmt.pf ppf "%s %a, #%d" (Rtl.abinop_name op) reg r n
  | R_mem r -> Fmt.pf ppf "mem[%a]" reg r
  | R_mem_abs a -> Fmt.pf ppf "mem[#%d]" a

let pp_stmt names ppf = function
  | Assign { dst; rv; set_flags } ->
      Fmt.pf ppf "%a := %a%s" (pp_reg names) dst (pp_rvalue names) rv
        (if set_flags then " !flags" else "")
  | Store { addr; src } ->
      Fmt.pf ppf "mem[%a] := %a" (pp_reg names) addr (pp_reg names) src
  | Store_abs { addr; src } ->
      Fmt.pf ppf "mem[#%d] := %a" addr (pp_reg names) src
  | Test r -> Fmt.pf ppf "test %a" (pp_reg names) r
  | Intack -> Fmt.string ppf "intack"
  | Special { op; args } ->
      Fmt.pf ppf "special %s(%a)" op
        (Fmt.list ~sep:Fmt.comma (pp_reg names))
        args

let pp_cond names ppf = function
  | Zero r -> Fmt.pf ppf "%a = 0" (pp_reg names) r
  | Nonzero r -> Fmt.pf ppf "%a <> 0" (pp_reg names) r
  | Flag_set f -> Fmt.string ppf (Rtl.flag_name f)
  | Flag_clear f -> Fmt.pf ppf "!%s" (Rtl.flag_name f)
  | Mask_match (r, _) -> Fmt.pf ppf "%a match <mask>" (pp_reg names) r
  | Int_pending -> Fmt.string ppf "int"

let pp_term names ppf = function
  | Goto l -> Fmt.pf ppf "goto %s" l
  | If (c, a, b) -> Fmt.pf ppf "if %a goto %s else %s" (pp_cond names) c a b
  | Switch { sel; hi; lo; targets } ->
      Fmt.pf ppf "switch %a<%d..%d> [%s]" (pp_reg names) sel hi lo
        (String.concat "; " targets)
  | Call { proc; cont } -> Fmt.pf ppf "call %s then %s" proc cont
  | Ret -> Fmt.string ppf "ret"
  | Halt -> Fmt.string ppf "halt"

let pp_block names ppf b =
  Fmt.pf ppf "@[<v2>%s:@,%a%a@]" b.b_label
    (Fmt.list ~sep:Fmt.cut (fun ppf s -> Fmt.pf ppf "%a" (pp_stmt names) s))
    b.b_stmts
    (fun ppf t ->
      if b.b_stmts = [] then Fmt.pf ppf "%a" (pp_term names) t
      else Fmt.pf ppf "@,%a" (pp_term names) t)
    b.b_term

let pp ppf p =
  let names = p.vreg_names in
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut (pp_block names))
    (all_blocks p)
