(** Fixed-width bitvectors, 1 to 64 bits.

    Microprograms manipulate fixed-length bitstrings (survey §2.1.7), so
    every register, memory word and ALU datum in the toolkit is a [Bitvec.t].
    Values are always kept normalised: bits above [width] are zero. *)

type t

(** Condition flags produced by arithmetic/shift operations, mirroring the
    status bits a horizontal microarchitecture exposes to branch tests. *)
type flags = {
  carry : bool;      (** carry / borrow out of the MSB *)
  overflow : bool;   (** two's-complement signed overflow *)
  zero : bool;       (** result is all zeros *)
  negative : bool;   (** MSB of the result *)
  shifted_out : bool (** last bit shifted out (the "UF" bit of SIMPL) *)
}

val no_flags : flags

(** {1 Construction} *)

val zero : int -> t
(** [zero w] is the all-zeros vector of width [w], one shared value
    per width.
    @raise Invalid_argument if [w] is outside 1..64. *)

val ones : int -> t
(** All-ones vector of width [w]. *)

val of_int : width:int -> int -> t
(** Truncates to [width] bits; negative ints are two's-complement encoded. *)

val of_int64 : width:int -> int64 -> t

val of_bool : bool -> t
(** 1-bit vector: one of two shared values, so it allocates nothing. *)

val of_string : width:int -> string -> t
(** Accepts decimal, [0x...], [0o...], [0b...] and [-]decimal.
    @raise Invalid_argument on malformed input or overflow of [width]. *)

(** {1 Observation} *)

val width : t -> int
val to_int64 : t -> int64
val to_int : t -> int
(** @raise Invalid_argument if the value does not fit in an OCaml [int]. *)

val to_signed_int64 : t -> int64
(** Two's-complement interpretation. *)

val is_zero : t -> bool
val msb : t -> bool
val lsb : t -> bool
val bit : t -> int -> bool
val popcount : t -> int
val equal : t -> t -> bool
val compare_unsigned : t -> t -> int
val compare_signed : t -> t -> int

(** {1 Arithmetic}

    All binary operations require equal widths and raise [Invalid_argument]
    otherwise.  The [*_f] variants also return condition flags. *)

val add : t -> t -> t
val add_f : t -> t -> t * flags
val adc : t -> t -> bool -> t * flags
(** Add with carry-in. *)

val sub : t -> t -> t
val sub_f : t -> t -> t * flags
val neg : t -> t
val succ : t -> t
val pred : t -> t
val mul : t -> t -> t
val mul_f : t -> t -> t * flags
(** [overflow] is set when the full product does not fit the width. *)

val udiv : t -> t -> t
val urem : t -> t -> t
(** @raise Division_by_zero *)

(** {1 Logic} *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

(** {1 Shifts}

    Shift amounts are plain ints; shifting by [>= width] yields zero (or
    sign-fill for [shift_right_arith]).  The [_f] variants report the last
    bit shifted out in [shifted_out]. *)

val shift_left : t -> int -> t
val shift_left_f : t -> int -> t * flags
val shift_right : t -> int -> t
val shift_right_f : t -> int -> t * flags
val shift_right_arith : t -> int -> t
val rotate_left : t -> int -> t
val rotate_right : t -> int -> t

(** {1 Structure} *)

val extract : hi:int -> lo:int -> t -> t
(** Bits [hi..lo] inclusive, as a vector of width [hi-lo+1].
    @raise Invalid_argument unless [width > hi >= lo >= 0]. *)

val insert : hi:int -> lo:int -> into:t -> t -> t
(** Replace bits [hi..lo] of [into] with the given vector (whose width must
    be [hi-lo+1]). *)

val concat : t -> t -> t
(** [concat hi lo]: [hi] becomes the high-order bits.
    @raise Invalid_argument if the combined width exceeds 64. *)

val resize : width:int -> t -> t
(** Zero-extend or truncate; the argument itself when the width is
    unchanged. *)

val sign_extend : width:int -> t -> t

(** {1 Printing} *)

val to_string : ?base:int -> t -> string
(** [base] is 2, 8, 10 (default) or 16.  Non-decimal bases are zero-padded
    to the full width. *)

val pp : Format.formatter -> t -> unit
(** Prints as [w'dvalue], e.g. [16'd42]. *)

