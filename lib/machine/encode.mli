(** Binary encoding of microinstructions into control words.

    Descriptions reserve sequencing fields by convention — ["seq"],
    ["cond"], ["addr"], ["breg"], plus optional ["mask"] and ["dspec"] —
    and each template contributes its own field settings.  Encoding fails
    on a field clash, making the encoder an independent check of the
    conflict model.  Control words may exceed 64 bits, so a word is a
    [bool array] with bit 0 the LSB. *)

type word = bool array

val word_bits : Desc.t -> int
(** Width of the machine's control word. *)

val field : Desc.t -> string -> Desc.field
(** @raise Msl_util.Diag.Error when the field does not exist. *)

val seq_halt : int
(** The halt opcode of the ["seq"] field. *)

val encode_inst : Desc.t -> Inst.t -> word
(** @raise Msl_util.Diag.Error on a field clash or an over-wide value. *)

val program_bits : Desc.t -> Inst.t list -> int
(** Control-store bits the program occupies (experiment T7). *)

val decode_fields : Desc.t -> word -> (string * int) list

val word_to_hex : word -> string

(** {1 Disassembly} *)

val decode_inst : Desc.t -> word -> Inst.t
