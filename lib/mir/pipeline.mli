(** The compiler back end shared by all four frontends.

    The middle-end is a {!Passmgr} pass list built from [options]:
    validate → ({!Opt} passes, at [-O1]) → {!Lower.expand} →
    ({!Trapsafe.rewrite}) → ({!Pollpoints.insert}) → ({!Regalloc.run}),
    then {!Select} per block, {!Compaction} per block, layout and link.

    S* uses the lower-level {!link} directly, because its programmer
    composes the microinstructions. *)

open Msl_machine

type options = {
  algo : Compaction.algo;
  chain : bool;  (** transport chaining on polyphase machines *)
  strategy : Regalloc.strategy;
  pool_limit : int option;  (** cap on allocatable registers (T5) *)
  poll : bool;  (** insert interrupt poll points on back edges (§2.1.5) *)
  trap_safe : bool;
      (** restart-safe recompilation: redirect pre-fault register writes to
          temporaries committed after the block's last faulting statement
          (the repair for the survey's §2.1.5 incread hazard) *)
  opt_level : int;
      (** 0: survey-faithful pipeline with no machine-independent
          optimizer (§2.1.4); 1 (the default): the {!Opt} passes run
          before lowering; >= 2 additionally implies [superopt] *)
  bb_budget : int;
      (** search-node budget for [Optimal] compaction (the CLI's
          [--bb-budget]; default {!Compaction.default_node_budget}).
          Past it the block falls back to the critical-path schedule and
          is counted in [m_inexact_blocks].  The superoptimizer's window
          searches reuse the same budget. *)
  superopt : bool;
      (** run the post-compaction {!Superopt} pass (the CLI's
          [--superopt]; also switched on by [opt_level >= 2]) *)
}

val default_options : options
(** Critical-path compaction, chaining on, priority allocation, full pool,
    no poll points, optimization level 1, default B&B budget. *)

val options_id : options -> string
(** The canonical textual identity of an option record — every field,
    rendered deterministically.  This is the string the service
    fingerprints into cache keys; it is defined by an exhaustive record
    pattern so a new [options] field cannot silently produce stale
    cache hits. *)

type metrics = {
  m_instructions : int;  (** control-store words *)
  m_ops : int;  (** microoperations emitted *)
  m_bits : int;  (** control-store bits *)
  m_blocks : int;
  m_alloc : Regalloc.stats option;  (** when the allocator ran *)
  m_search_nodes : int;  (** B&B nodes, when [Optimal] ran *)
  m_inexact_blocks : int;
      (** blocks whose [Optimal] search hit [bb_budget] and fell back to
          the heuristic schedule (0 unless [algo = Optimal]) *)
  m_superopt : Superopt.stats option;
      (** the superoptimizer's counters, when the pass ran *)
  m_timings : Passmgr.timing list;
      (** elapsed time of every executed pass, in execution order, ending
          with the [select+compact] and [link] back-end pseudo-passes *)
}

val pass_names : string list
(** Every middle-end pass name {!compile} can run, in pipeline order. *)

(** A block already lowered to explicit microinstructions with labelled
    targets (the S* entry path). *)
type linked_block = {
  k_label : string;
  k_mis : (Inst.op list * Select.lnext) list;
}

val link :
  ?aliases:(string * string) list ->
  Desc.t ->
  linked_block list ->
  Inst.t list * (string * int) list
(** Lay blocks out in order, expand dispatch tables, resolve labels
    (procedure names alias their entry blocks), and convert fallthrough
    jumps to [Next].  Returns the program and the label table.
    @raise Msl_util.Diag.Error on undefined labels. *)

val compile :
  ?options:options ->
  ?observe:(string -> Mir.program -> unit) ->
  ?capture:(Tv.artifact -> unit) ->
  ?superopt_memo:Superopt.memo ->
  ?superopt_capture:(Superopt.rewrite -> unit) ->
  Desc.t ->
  Mir.program ->
  Inst.t list * (string * int) list * metrics
(** [observe name p'] is called after every executed middle-end pass
    with the program it produced (the `--dump-after` hook).  [capture] is
    called once per lowered block with its {!Tv.artifact} — the
    translation validator's input — in layout order; the artifacts
    describe the {e pre-superopt} words, and each accepted superopt
    rewrite is reported through [superopt_capture] so a validator can
    replay its proof and compose the two.  [superopt_memo] backs the
    superoptimizer's window-search cache. *)

val load :
  ?options:options ->
  ?trap_mode:Sim.trap_mode ->
  Desc.t ->
  Mir.program ->
  Sim.t * (string * int) list * metrics
(** Compile and install into a fresh simulator. *)
