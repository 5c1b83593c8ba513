(** Binary encoding of microinstructions into control words.

    Descriptions reserve sequencing fields by convention
    ({!Desc.seq_fields}) and each template contributes its own field
    settings.  Encoding fails on a field clash, making the encoder an
    independent check of the conflict model.  Control words may exceed
    64 bits, so a word is a [bool array] with bit 0 the LSB. *)

type word = bool array

val seq_halt : int
(** The halt opcode of the ["seq"] field. *)

val encode_inst : Desc.t -> Inst.t -> word
(** @raise Msl_util.Diag.Error on a field clash or an over-wide value. *)

val program_bits : Desc.t -> Inst.t list -> int
(** Control-store bits the program occupies (experiment T7). *)

val read_field : word -> Desc.field -> int
(** The value a word holds in one field: what the disassembler reads. *)

val word_to_hex : word -> string

(** {1 Disassembly} *)

val decode_inst : Desc.t -> word -> Inst.t
