(** The micro intermediate representation shared by all four frontends.

    A program is a control-flow graph of basic blocks over registers that
    are either *virtual* (symbolic-variable languages: EMPL, unbound
    YALLL names) or *physical* (languages identifying variables with
    machine registers: SIMPL, S*, bound YALLL).  The survey's two central
    implementation problems map onto two passes over this IR: register
    allocation (§2.1.3, {!Regalloc}) and microinstruction composition
    (§2.1.4, {!Compaction}). *)

module Machine = Msl_machine
module Rtl = Msl_machine.Rtl

type reg =
  | Virt of int  (** symbolic variable, to be allocated *)
  | Phys of int  (** machine register id, fixed by the programmer *)

type label = string

type rvalue =
  | R_const of Msl_bitvec.Bitvec.t
  | R_copy of reg
  | R_not of reg
  | R_neg of reg
  | R_inc of reg
  | R_dec of reg
  | R_binop of Rtl.abinop * reg * reg
  | R_div of reg * reg  (** unsigned; no machine has it: {!Lower} expands *)
  | R_rem of reg * reg
  | R_shift_imm of Rtl.abinop * reg * int  (** shift/rotate by a constant *)
  | R_mem of reg  (** memory[address register] *)
  | R_mem_abs of int  (** memory[constant address]: spill reloads *)

type stmt =
  | Assign of { dst : reg; rv : rvalue; set_flags : bool }
      (** [set_flags] asks for a flag-updating encoding, for a later flag
          test (e.g. SIMPL's UF after a shift) *)
  | Store of { addr : reg; src : reg }
  | Store_abs of { addr : int; src : reg }
  | Test of reg  (** set flags from a register *)
  | Intack  (** acknowledge a pending interrupt (§2.1.5) *)
  | Special of { op : string; args : reg list }
      (** raw machine microoperation by name (EMPL's MICROOP hint);
          analyses treat it conservatively *)

type cond =
  | Zero of reg
  | Nonzero of reg
  | Flag_set of Rtl.flag
  | Flag_clear of Rtl.flag
  | Mask_match of reg * Machine.Desc.mask_bit array
  | Int_pending

type term =
  | Goto of label
  | If of cond * label * label  (** then-target, else-target *)
  | Switch of { sel : reg; hi : int; lo : int; targets : label list }
      (** multiway branch on [sel<hi..lo>]; needs 2^(hi-lo+1) targets *)
  | Call of { proc : label; cont : label }
  | Ret
  | Halt

type block = { b_label : label; b_stmts : stmt list; b_term : term }

type proc = { p_name : label; p_blocks : block list }
(** Nonempty; the first block is the entry. *)

type program = {
  main : block list;  (** entry is the first block *)
  procs : proc list;
  vreg_names : (int * string) list;  (** diagnostics only *)
  next_vreg : int;
}

(** {1 Construction and queries} *)

val assign : ?set_flags:bool -> reg -> rvalue -> stmt

val rvalue_reads : rvalue -> reg list
val stmt_reads : stmt -> reg list
val stmt_writes : stmt -> reg list
val term_reads : term -> reg list
val term_targets : term -> label list
val all_blocks : program -> block list

val program_vregs : program -> int list
(** Every virtual register mentioned anywhere, sorted. *)

val validate : program -> program
(** Duplicate labels, empty procedures, dangling targets.
    @raise Msl_util.Diag.Error (Semantic) on a malformed program. *)

(** {1 Printing} *)

val pp_reg : (int * string) list -> Format.formatter -> reg -> unit
val pp_cond : (int * string) list -> Format.formatter -> cond -> unit
val pp : Format.formatter -> program -> unit
