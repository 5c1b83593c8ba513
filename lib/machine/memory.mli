(** Word-addressed, paged main memory.

    Pages can be marked absent so accesses raise {!Page_fault} — the
    microtrap of survey §2.1.5.  The simulator decides how a fault is
    serviced; this module only detects it and counts traffic. *)

exception Page_fault of int  (** faulting word address *)

type t

val create : word_width:int -> words:int -> t
(** Pages are 256 words.
    @raise Invalid_argument when [words <= 0]. *)

val size : t -> int
val word_width : t -> int
val page_of : t -> int -> int

val read : t -> int -> Msl_bitvec.Bitvec.t
(** Counted access.
    @raise Page_fault on an absent page.
    @raise Msl_util.Diag.Error on an out-of-range address. *)

val read_int64 : t -> int -> int64
(** [read t addr]'s bits without the bitvector box: same bounds check,
    page-fault discipline and read accounting.  The compiled engine's
    fast path. *)

val write : t -> int -> Msl_bitvec.Bitvec.t -> unit

val peek : t -> int -> Msl_bitvec.Bitvec.t
(** Uncounted, non-faulting access for test setup and inspection. *)

val poke : t -> int -> Msl_bitvec.Bitvec.t -> unit

val mark_absent : t -> page:int -> unit
val mark_present : t -> page:int -> unit

val load : t -> base:int -> Msl_bitvec.Bitvec.t list -> unit
val load_ints : t -> base:int -> int list -> unit

val reads : t -> int
val writes : t -> int
val faults : t -> int

val reset : t -> unit
(** Back to the post-{!create} state, in place: all words zero, all pages
    present, counters cleared.  In place matters — the simulator and the
    compiled engine hold on to this [t]. *)
