(** Cycle-accurate microprogram simulator.

    Timing: one base cycle per microinstruction plus the largest declared
    stall among its ops.  Within a cycle the machine's phases run in
    order; within a phase all reads sample the phase-start state and all
    writes commit together (transport-delay model), which is what lets a
    single horizontal word swap two registers and gives S*'s [cocycle] its
    phase-by-phase meaning.

    Interrupts (survey §2.1.5): the harness schedules arrival cycles; a
    pending interrupt is visible to [C_int_pending] and cleared by the
    [Int_ack] action, with service latency recorded.  Microtraps: a memory
    access to an absent page aborts the current word (its phase's writes
    are discarded), services the fault and — in [Restart] mode — resumes
    at word 0, reproducing the survey's [incread] hazard. *)

type trap_mode =
  | Restart
      (** service the fault (200 cycles), restart the microprogram at
          word 0 *)
  | Fault_is_error  (** surface the fault as a diagnostic *)

type status = Halted | Out_of_fuel

type t

(** The run counters, one record both engines update in place.  Read
    them through {!pc}, {!cycles} and {!insts_executed}. *)
type counters = {
  mutable pc : int;
  mutable cycles : int;
  mutable insts : int;
  mutable halted : bool;
}

val create : ?trap_mode:trap_mode -> Desc.t -> t
(** Fresh machine state: registers zero, 4096 words of main memory with
    every page present.  [trap_mode] defaults to [Fault_is_error]. *)

val desc : t -> Desc.t
val memory : t -> Memory.t

val load_store : t -> Inst.t list -> unit
(** Install a program and reset the micro PC.  The interpreter prepares
    each word on its first execution, which moves no failure earlier.
    @raise Msl_util.Diag.Error when it exceeds the control store. *)

val reset : t -> unit
(** Back to the freshly-loaded state {e without} touching the store:
    registers, flags and memory zeroed in place, counters and interrupt
    state cleared, micro PC at 0.  The trap mode survives.  Because the
    reset is in place, a {!Simc} translation of this simulator stays
    valid — that is the point: re-run a program without re-paying
    decode. *)

(** {1 Execution} *)

val step : t -> unit
(** Execute one microinstruction (no-op once halted). *)

val run : ?fuel:int -> t -> status
(** Step until [Halt] or [fuel] instructions (default 2,000,000).  When
    {!Msl_util.Trace} is enabled, the run is a ["sim"/"run"] span with
    periodic cycle/instruction/poll counters and instant events for
    microtraps and interrupt delivery/acknowledgement. *)

(** {1 State access} *)

val get_reg : t -> string -> Msl_bitvec.Bitvec.t
val get_reg_id : t -> int -> Msl_bitvec.Bitvec.t
val set_reg : t -> string -> Msl_bitvec.Bitvec.t -> unit
val set_reg_int : t -> string -> int -> unit
val get_flag : t -> Rtl.flag -> bool
val set_flag : t -> Rtl.flag -> bool -> unit

(** {1 Metrics} *)

val pc : t -> int
(** The current micro program counter (where a stopped run stood). *)

val cycles : t -> int
val insts_executed : t -> int
val traps_taken : t -> int

(** {1 Interrupts and traps} *)

val schedule_interrupts : t -> int list -> unit
(** Cycle numbers at which the interrupt line is raised (one pending at a
    time; later arrivals wait for the acknowledgement). *)

val interrupts_serviced : t -> int

val interrupt_latency_stats : t -> float * int
(** (average, maximum) cycles between arrival and acknowledgement. *)

(** {1 Differential observation} *)

val state_digest : t -> string
(** Every observable fact about the machine, one per line: pc, halt
    flag, cycle and instruction counts, trap/interrupt accounting,
    memory traffic counters, the microstack, all registers, the flags,
    and every nonzero memory word.  Two engines that executed the same
    program correctly produce byte-identical digests — the contract the
    differential oracle checks. *)

val arch_digest : t -> string
(** The architectural state alone: the register, flag and nonzero-memory
    lines that end {!state_digest}.  It leaves out the pc, cycle, trap
    and traffic counters, which legitimately differ between a compacted
    program and its sequential reference. *)

(** {1 Engine internals}

    Mutable-state access for {!Simc}, the compiled engine.  Not a stable
    API for anything else: these bypass the width checks and invariants
    the public setters maintain. *)

module Engine : sig
  val regs : t -> Msl_bitvec.Bitvec.t array
  val flags : t -> bool array
  val store : t -> Inst.t array

  val counters : t -> counters
  (** The record itself: a word retires with three stores into it. *)

  val buffer_capacity : t -> int
  (** The most actions any one word of the store runs, which bounds the
      register writes a phase buffers. *)

  val push_call : t -> int -> unit
  val pop_call : t -> int option

  val has_interrupt_work : t -> bool
  (** Whether interrupt delivery can still occur (schedule nonempty). *)

  val deliver_interrupts : t -> unit
  val poll_int_pending : t -> bool
  (** Counted [C_int_pending] evaluation, exactly as the interpreter's. *)

  val service_page_fault : t -> int -> unit
  (** The shared microtrap path: raises in [Fault_is_error] mode,
      services and redirects to word 0 in [Restart] mode. *)

  val emit_counters : t -> unit
end
