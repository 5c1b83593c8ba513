(** Machine descriptions: the declarative model of one microprogrammable
    machine.

    A description carries the registers (with classes, since micro
    register sets "are generally not homogeneous" — survey §2.1.3),
    functional units, control-word fields, microoperation templates with
    interpretable {!Rtl} semantics, testable-condition capabilities and
    timing parameters.  Compilers never hard-code a machine: instruction
    selection, conflict detection, encoding, simulation and S*
    instantiation are all driven by this data — the survey's MPGL idea
    (§2.2.5) taken as an architecture principle. *)

type reg = {
  r_id : int;  (** index into the register file *)
  r_name : string;
  r_width : int;
  r_classes : string list;
      (** e.g. ["gpr"], ["addr"], ["alloc"] (allocator pool), ["at"]/["at2"]
          (reserved scratch), ["acc"], ["mbr"], ["sp"] *)
  r_macro : bool;
      (** part of the macroarchitecture: saved/restored around microtraps,
          the root of the survey's §2.1.5 "incread" hazard *)
}

type operand_role = Read | Write | Read_write

type operand_kind =
  | O_reg of string  (** any register of the named class *)
  | O_imm of int  (** immediate literal of the given width *)

type operand_spec = {
  o_name : string;
  o_kind : operand_kind;
  o_role : operand_role;
}

(** Where a template's result lands when it has no [Write] operand. *)
type result_loc = R_operands | R_reg of string | R_none

(** A control-word field: [f_width] bits at offset [f_lo]. *)
type field = { f_name : string; f_width : int; f_lo : int }

type fvalue = Fv_const of int | Fv_opnd of int

type field_setting = { fs_field : string; fs_value : fvalue }

(** Semantic class used by machine-independent instruction selection. *)
type sem =
  | S_move
  | S_const
  | S_binop of Rtl.abinop
  | S_not
  | S_neg
  | S_inc
  | S_dec
  | S_mem_read
  | S_mem_write
  | S_test  (** set flags from a register *)
  | S_nop
  | S_special of string  (** machine-specific (push/pop/orh/addf ...) *)

(** What {!make} derives once per template for its machine, read through
    {!facts}: no consumer walks RTL or matches names per op or word. *)
type facts = {
  x_index : int;  (** position in [d_templates]; -1 if not resolved *)
  x_read_opnds : int array;  (** operands with a read role *)
  x_write_opnds : int array;  (** operands with a write role *)
  x_read_regs : int list;  (** named registers read: sorted ids *)
  x_write_regs : int list;  (** named registers written: sorted ids *)
  x_read_flags : int;  (** bit {!Rtl.flag_index} per flag read *)
  x_set_flags : int;  (** bit per flag set *)
  x_mem : bool;  (** reads or writes main memory *)
  x_units : int;  (** bit [i] per unit [i] of [d_units] *)
  x_slots : int array;  (** per setting: its field's index in [d_fields] *)
  x_values : int array;  (** per setting: the constant, or [-1 - operand] *)
}

val unresolved : facts
(** For template records built outside {!make}. *)

(** A microoperation template: one operation the machine can place in a
    microinstruction. *)
type template = {
  t_name : string;  (** mnemonic, unique within the machine *)
  t_sem : sem;
  t_operands : operand_spec array;
  t_result : result_loc;
  t_phase : int;  (** phase of the microcycle in which it executes *)
  t_units : string list;  (** functional units occupied *)
  t_fields : field_setting list;  (** control-word encoding *)
  t_actions : Rtl.action list;  (** executable semantics *)
  t_extra_cycles : int;  (** stall cycles beyond the base microcycle *)
  t_facts : facts;  (** set by {!make} *)
}

type mask_bit = Mt | Mf | Mx
(** One position of a YALLL-style branch mask: must-be-1, must-be-0,
    don't-care.  Index 0 of a mask array is the least significant bit. *)

(** Conditions a sequencer may test. *)
type cond =
  | C_flag of Rtl.flag * bool
  | C_reg_zero of int * bool  (** [(reg = 0) = bool] *)
  | C_reg_mask of int * mask_bit array
  | C_int_pending  (** an interrupt is waiting (survey §2.1.5) *)

(** Capability groups; code generators synthesise tests the machine's
    sequencer lacks. *)
type cond_cap = Cap_flag | Cap_reg_zero | Cap_reg_mask | Cap_int | Cap_dispatch

type t = {
  d_name : string;
  d_word : int;  (** datapath width in bits *)
  d_addr : int;  (** control-store address width *)
  d_phases : int;  (** phases per microcycle; 1 = monophase *)
  d_regs : reg array;
  d_units : string list;
  d_fields : field array;
  d_word_bits : int;  (** control-word width: the highest field bit + 1 *)
  d_seq_slots : int array;  (** indices of {!seq_fields} in [d_fields], or -1 *)
  d_templates : template array;
  d_cond_caps : cond_cap list;
  d_mem_extra_cycles : int;
  d_store_words : int;  (** control-store capacity *)
  d_vertical : bool;  (** one microoperation per microinstruction *)
  d_scratch_base : int;  (** main-memory base reserved for spills *)
  d_note : string;
  d_digest : string;
      (** hex digest of every field given to {!make}, taken once there:
          two descriptions with equal digests describe the same machine *)
  by_name : (string, reg) Hashtbl.t;  (** lookup cache; use {!find_reg} *)
  by_lower_name : (string, reg) Hashtbl.t;  (** cache; use {!find_reg_ci} *)
  by_class : (string, reg list) Hashtbl.t;  (** cache; use {!regs_of_class} *)
  t_by_name : (string, template) Hashtbl.t;  (** cache; use {!find_template} *)
}

val make :
  name:string ->
  word:int ->
  addr:int ->
  phases:int ->
  regs:reg list ->
  units:string list ->
  fields:field list ->
  templates:template list ->
  cond_caps:cond_cap list ->
  mem_extra_cycles:int ->
  store_words:int ->
  vertical:bool ->
  scratch_base:int ->
  note:string ->
  unit ->
  t
(** Builds and validates a description (see {!validate}). *)

val validate : t -> t
(** The invariant check {!make} ends with, exposed so loaders can
    re-validate descriptions they did not construct: non-overlapping
    control-word fields that each fit the word (offset >= 0, width
    1..62), template field/operand references that resolve, constant
    field values that fit their field, non-empty register classes
    behind every register operand, case-insensitively unique
    register/field/template/unit names, at most 62 units, in-range
    phases, and actions that only write writable operands.  Returns its
    argument.
    @raise Invalid_argument naming the violated invariant. *)

(** {1 Lookups} *)

val regs : t -> reg list
val templates : t -> template list

val reg : t -> int -> reg
(** @raise Invalid_argument on an out-of-range id. *)

val reg_name : t -> int -> string
val find_reg : t -> string -> reg option

val find_reg_ci : t -> string -> reg option
(** The first register whose name equals [name] ignoring ASCII case, as
    the language frontends name registers. *)

val get_reg : t -> string -> reg
(** @raise Invalid_argument when the register does not exist. *)

val regs_of_class : t -> string -> reg list
(** Registers carrying the class, in declaration order; [[]] if none. *)

val reg_in_class : reg -> string -> bool
val find_template : t -> string -> template option

val get_template : t -> string -> template
(** @raise Invalid_argument when the template does not exist. *)

val templates_with_sem : t -> sem -> template list
val has_cap : t -> cond_cap -> bool
val cond_supported : t -> cond -> bool

val negate_cond : cond -> cond option
(** The complementary test, when the sequencer can express one: flag and
    reg-zero tests negate by flipping the expected value; mask matches
    and the interrupt test have no complement ([None]). *)

val seq_fields : string array
(** The sequencing fields every description reserves by convention:
    ["seq"], ["cond"], ["addr"], ["breg"], ["mask"], ["dspec"]. *)

val facts : t -> template -> facts
(** The facts {!make} resolved for one of the machine's own templates.
    @raise Invalid_argument when the template is not this machine's own
    (another machine's, a hand-built record, a copy). *)

val template_index : t -> template -> int
(** The template's position in [d_templates].
    @raise Invalid_argument when it is not this machine's own. *)

(** {1 Authoring helpers} *)

val mkreg : ?classes:string list -> int -> string -> int -> reg

val add_cond : t -> Buffer.t -> cond -> unit
(** Appends a sequencer condition as listings show it ([Z], [!C],
    [R1 = 0], [R1 <> 0], [R1 match 1x0], [int_pending]). *)

val pp_cond : t -> Format.formatter -> cond -> unit
(** {!add_cond} for Format users. *)
