(** The control-word conflict model (DeWitt 1975, survey ref [7]).

    Decides whether microoperation instances may share one
    microinstruction: encoding (field) clashes, functional-unit clashes
    within a phase, the single memory port, same-phase double writes, and
    same-phase double flag updates.  Data dependence is deliberately not
    checked here — that is the scheduler's job ({!Msl_mir.Dataflow}). *)

type reason =
  | Field_clash of string * int * int  (** field, conflicting values *)
  | Unit_clash of string * int  (** unit, phase *)
  | Memory_port
  | Write_clash of string  (** register written twice in one phase *)
  | Flag_clash of Rtl.flag

val pp_reason : Format.formatter -> reason -> unit

val pair_conflict : Desc.t -> Inst.op -> Inst.op -> reason option
(** [None] when the two ops may coexist.  Two literally identical
    instances always coexist (they ask for the same control-word bits). *)

val fits : Desc.t -> Inst.op list -> Inst.op -> (unit, reason) result
(** May [op] join the ops already placed in a word under construction? *)

val check_inst : Desc.t -> Inst.t -> (unit, reason) result
(** Validate a fully-formed microinstruction (used on hand-written and
    S*-composed code). *)
