(** The toolkit façade: compile any of the four surveyed languages to any
    machine model, assemble hand-written microcode, run programs, and
    collect the metrics the experiments report. *)

open Msl_machine

type language = Simpl | Empl | Sstar | Yalll

val language_name : language -> string

val language_of_string : string -> language
(** @raise Invalid_argument on unknown names. *)

type engine = Interp | Compiled
(** Which simulation engine executes a program: the cycle-accurate
    interpreter ({!Msl_machine.Sim}), or the compiled closure engine
    ({!Msl_machine.Simc}) — observationally identical and roughly an
    order of magnitude faster.  Library entry points default to
    [Interp] (the reference semantics); the [mslc run] driver defaults
    to [Compiled]. *)

val engine_name : engine -> string

val engine_of_string : string -> engine
(** Accepts "interp"/"interpreter" and "compiled"/"simc".
    @raise Invalid_argument on unknown names. *)

val exec : ?fuel:int -> engine:engine -> Sim.t -> Sim.status
(** Run an already-loaded simulator on the chosen engine (translating
    first when [engine = Compiled]). *)

val is_broken_pipe : exn -> bool
(** A write to a closed pipe or socket, in either of the shapes OCaml
    surfaces it: [Unix.Unix_error (EPIPE, _, _)] from syscalls, or a
    [Sys_error] whose text mentions "Broken pipe" from channel writes. *)

val capture : (unit -> 'a) -> ('a, Msl_util.Diag.t) result
(** Exception firewall.  Run a thunk and convert {e any} raise into a
    structured diagnostic: a {!Msl_util.Diag.Error} is captured as-is,
    while every other exception becomes an [Internal] finding carrying
    the exception text (and backtrace, when recording is on — see
    [Printexc.record_backtrace]).  [Stdlib.Exit], [Sys.Break] and
    broken-pipe exceptions ({!is_broken_pipe}) are re-raised: they are
    driver control flow — respectively an orderly exit, an interrupt,
    and "the reader went away" — not compile faults. *)

type compiled = {
  c_language : language;
  c_machine : Desc.t;
  c_insts : Inst.t list;
  c_labels : (string * int) list;
  c_words : int;  (** control-store words *)
  c_ops : int;  (** microoperations *)
  c_bits : int;  (** control-store bits *)
  c_alloc : Msl_mir.Regalloc.stats option;
      (** present when the register allocator ran (symbolic-variable
          programs) *)
  c_inexact_blocks : int;
      (** blocks whose branch-and-bound compaction hit the node budget
          and fell back to the heuristic schedule (0 unless
          [algo = Optimal]; drivers warn when nonzero) *)
  c_superopt : Msl_mir.Superopt.stats option;
      (** the superoptimizer's counters, when [-O2]/[superopt] ran *)
  c_timings : Msl_mir.Passmgr.timing list;
      (** per-pass wall clock of the pipeline run; empty for S* and
          assembled programs (no pass pipeline) *)
}

(** A compiled program with its machine taken out, the form the
    service's disk cache persists: each op names its template by its
    index in the machine's [d_templates]. *)
type unlinked = {
  u_language : language;
  u_insts : ((int * Inst.arg array) list * Inst.next) list;
      (** each word's ops as (template index, arguments), and its
          sequencing *)
  u_labels : (string * int) list;
  u_alloc : Msl_mir.Regalloc.stats option;
  u_inexact_blocks : int;
  u_superopt : Msl_mir.Superopt.stats option;
  u_timings : Msl_mir.Passmgr.timing list;
}

val unlink : compiled -> unlinked
(** @raise Invalid_argument when an op's template is not physically one
    of [c_machine]'s. *)

val relink : Desc.t -> unlinked -> compiled
(** The inverse of {!unlink} against the given description, which must
    be the one the program was compiled for (the caller checks, e.g. by
    [d_digest]): the result's [c_machine] and every op's template are
    that description's own values.
    @raise Invalid_argument on a template index outside [d_templates]. *)

val compile :
  ?options:Msl_mir.Pipeline.options ->
  ?use_microops:bool ->
  ?observe:(string -> Msl_mir.Mir.program -> unit) ->
  ?superopt_memo:Msl_mir.Superopt.memo ->
  language ->
  Desc.t ->
  string ->
  compiled
(** Parse and compile source text.  [use_microops] applies to EMPL only;
    [observe] sees the MIR after every executed pass (ignored for S*,
    which has no MIR pipeline).  [superopt_memo] is forwarded to
    {!Msl_mir.Pipeline.compile} when the superoptimizer runs.
    @raise Msl_util.Diag.Error on any front- or back-end failure. *)

(** What translation validation needs from one compile, in emission
    order: each lowered block's artifact and each superopt rewrite. *)
type proof_inputs = {
  p_artifacts : Msl_mir.Tv.artifact list;
  p_rewrites : Msl_mir.Superopt.rewrite list;
}

val compile_for_proof :
  ?options:Msl_mir.Pipeline.options ->
  ?use_microops:bool ->
  ?observe:(string -> Msl_mir.Mir.program -> unit) ->
  ?superopt_memo:Msl_mir.Superopt.memo ->
  language ->
  Desc.t ->
  string ->
  compiled * proof_inputs
(** {!compile}, also returning the proof inputs that compile captured
    into fresh buffers (none for S*, which has no compaction). *)

val prove :
  Desc.t -> proof_inputs -> Msl_mir.Tv.result * Msl_mir.Superopt.rewrite list
(** Validate every block artifact and replay every rewrite's proof; the
    list holds the rewrites that did not replay [Validated]. *)

val assemble : Desc.t -> string -> compiled
(** Assemble hand-written microcode (see {!Msl_machine.Masm}), with the
    same metrics. *)

val load : ?trap_mode:Sim.trap_mode -> compiled -> Sim.t

val run_status :
  ?engine:engine -> ?fuel:int -> ?setup:(Sim.t -> unit) -> compiled ->
  Sim.t * Sim.status
(** Load, apply [setup], and run for at most [fuel] steps (default
    2,000,000) on [engine] (default [Interp]).  Never raises on
    non-termination: the simulator state is returned with the status so
    drivers can report pc/cycles and apply their own exit-code
    discipline. *)

val run : ?engine:engine -> ?fuel:int -> ?setup:(Sim.t -> unit) -> compiled -> Sim.t
(** Load, apply [setup], and run to halt.
    @raise Msl_util.Diag.Error when the program does not halt in [fuel];
    the diagnostic reports the fuel, final pc, cycles and instruction
    count. *)
