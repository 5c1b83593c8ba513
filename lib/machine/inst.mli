(** Microoperation instances and microinstructions.

    An {!op} is a machine template applied to concrete arguments; a {!t}
    is one horizontal microinstruction — a set of ops executed in one
    microcycle across the machine's phases, plus a sequencing action. *)

type arg = A_reg of int | A_imm of Msl_bitvec.Bitvec.t

type op = { op_t : Desc.template; op_args : arg array }

(** The sequencing part of a microinstruction.  Targets are control-store
    addresses; the assembler and linker resolve labels to them. *)
type next =
  | Next
  | Jump of int
  | Branch of Desc.cond * int  (** taken target; otherwise fall through *)
  | Dispatch of { dreg : int; hi : int; lo : int; base : int }
      (** goto [base + reg<hi..lo>]: the multiway branch of SIMPL's case
          and YALLL's "sophisticated branch facility" *)
  | Call of int
  | Return
  | Halt

type t = { ops : op list; next : next }

val make : Desc.t -> string -> arg list -> op
(** [make d template_name args] builds an instance, checking operand count,
    register classes and immediate widths.
    @raise Invalid_argument on a mismatch. *)

(** {1 Static accessors} (feed the hazard and conflict analyses) *)

val op_reads : Desc.t -> op -> int list
(** Register ids read: read-role operands plus named registers in the RTL
    actions; sorted, without duplicates. *)

val op_writes : Desc.t -> op -> int list
val op_phase : op -> int

val first_common : int list -> int list -> int
(** The first id two sorted lists share, or [-1]. *)

val identical : op -> op -> bool
(** The same template (physically: one machine's own) applied to the
    same arguments. *)

val setting_value : Desc.facts -> op -> int -> int
(** [setting_value (Desc.facts d op.op_t) op k]: what the template's
    [k]th field setting puts in its field.  Register operands encode as
    their id, immediates as their value. *)

val inst_extra_cycles : t -> int
(** Largest stall among the instruction's ops. *)

val ops_by_phase : Desc.t -> op list -> op list array
(** A word's ops split by phase, each phase's in source order: the order
    every engine runs them in. *)

(** {1 Printing} *)

val add_inst : Desc.t -> Buffer.t -> t -> unit
(** Appends [[op | op | ...] -> sequencing], ops ordered by phase: the
    one printer, with no formatter per word. *)

val pp : Desc.t -> Format.formatter -> t -> unit
(** {!add_inst} for Format users. *)
