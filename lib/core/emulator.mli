(** MAC-16: a macroarchitecture realised in microcode.

    "Traditionally, microprogramming has been used for the realization of
    macroarchitectures" (survey §1).  MAC-16 is a small accumulator ISA
    whose interpreter is a hand-written HP3 microprogram; experiment T6
    compares running a computation under it against microcoding the
    computation directly. *)

(** MAC-16 instructions: 16-bit words, opcode in bits 15..12, a 12-bit
    address/immediate below. *)
type minst =
  | Halt
  | Loadi of int  (** ACC := n *)
  | Load of int  (** ACC := mem[a] *)
  | Store of int
  | Add of int  (** ACC := ACC + mem[a] *)
  | Sub of int
  | Jmp of int
  | Jnz of int  (** if ACC <> 0 then PC := a *)
  | Loadx of int  (** ACC := mem[mem[a]] *)
  | Stox of int  (** mem[mem[a]] := ACC *)
  | Incm of int  (** mem[a] := mem[a] + 1 *)
  | Decm of int

val encode : minst -> int
(** @raise Invalid_argument when the operand exceeds 12 bits. *)

val assemble : minst list -> int list

val run :
  ?fuel:int -> ?setup:(Msl_machine.Sim.t -> unit) -> minst list ->
  Msl_machine.Sim.t
(** Install the interpreter, load the macroprogram, run to HALT.
    @raise Msl_util.Diag.Error when it does not halt within [fuel]. *)

val acc : Msl_machine.Sim.t -> int
(** The macro accumulator after a run. *)

(** {1 A macro assembler with labels} *)

type masm_item =
  | L of string  (** define a label *)
  | I of minst
  | Iref of (int -> minst) * string  (** instruction taking a label address *)

val link : masm_item list -> minst list
(** @raise Invalid_argument on unknown labels. *)

(** {1 The T6 workload} *)

val dot_macro : minst list
(** Dot product over pointers/counters in page-zero memory. *)

val dot_setup : x:int list -> y:int list -> Msl_machine.Sim.t -> unit
val dot_reference : int list -> int list -> int
