(** Machine-driven instruction selection.

    Lowers MIR statements and terminators to microoperation instances of
    one machine, from the description alone.  When a machine lacks an
    operation (the survey's §2.1.2 mismatch between language primitives
    and microoperations) an equivalent sequence is synthesised: missing
    inc/dec via constants, missing neg via not+inc, fixed-ACC ALUs with a
    move out, single-bit shifters unrolled, wide constants via a
    high-deposit special, untestable conditions via a flag-setting test,
    mask matches via xor/and/test.  Synthesised code uses only the
    machine's reserved scratch registers. *)

open Msl_machine

type label = string

(** Sequencing with unresolved labels; {!Pipeline.link} assigns addresses. *)
type lnext =
  | L_next
  | L_goto of label
  | L_branch of Desc.cond * label
  | L_dispatch of { dreg : int; hi : int; lo : int; table : label list }
  | L_call of label
  | L_return
  | L_halt

type tail_inst = { t_ops : Inst.op list; t_next : lnext }

type lowered_block = {
  lb_label : label;
  lb_body : Inst.op list;  (** to be compacted *)
  lb_tail : tail_inst list;  (** sequencing epilogue, one word each *)
}

(** Per-machine selection context: the reserved scratch registers and the
    fixed special registers, resolved once. *)
type ctx = {
  d : Desc.t;
  at : int;
  at2 : int option;
  acc : int option;
  mar : int option;
  mbr : int option;
}

val make_ctx : Desc.t -> ctx
(** @raise Msl_util.Diag.Error when the machine reserves no scratch
    register. *)

(** {1 Emission primitives} (used directly by the S* compiler) *)

val emit_const : ctx -> int -> Msl_bitvec.Bitvec.t -> Inst.op list
val emit_const_int : ctx -> int -> int -> Inst.op list

val emit_binop :
  ?set_flags:bool -> ctx -> int -> Rtl.abinop -> int -> int -> Inst.op list
(** With [set_flags], prefers the machine's flag-setting variant (["f"]
    suffix), falls back to a naturally flag-setting base (V11), and
    otherwise appends a test. *)

val emit_shift_imm :
  ctx -> set_flags:bool -> int -> Rtl.abinop -> int -> int -> Inst.op list

val emit_inc : ctx -> int -> int -> Inst.op list
val emit_dec : ctx -> int -> int -> Inst.op list
val emit_not : ctx -> int -> int -> Inst.op list
val emit_load : ctx -> int -> int -> Inst.op list
val emit_load_abs : ctx -> int -> int -> Inst.op list
val emit_store : ctx -> int -> int -> Inst.op list
val emit_store_abs : ctx -> int -> int -> Inst.op list

(** {1 Statement and block lowering} *)

val select_block : ctx -> Mir.block -> lowered_block
(** @raise Msl_util.Diag.Error on virtual registers (run the allocator
    first), on division (run {!Lower.expand} first), and on operations the
    machine cannot express. *)
