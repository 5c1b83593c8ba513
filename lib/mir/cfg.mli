(** Whole-program control-flow graph and block-level liveness.

    {!Dataflow} orders microoperations inside one block; this module
    connects the blocks so the machine-independent optimizer ({!Opt})
    can reason about reachability and cross-block register lifetimes.
    It also centralizes the *effect* model: which statements touch
    memory, flags or unknown machine state — facts the register-level
    helpers in {!Mir} do not express. *)

(** {1 Statement effects} *)

type effects = {
  e_reads : Mir.reg list;
  e_writes : Mir.reg list;  (** definite register writes *)
  e_mem_read : bool;
  e_mem_write : bool;
  e_sets_flags : bool;
  e_barrier : bool;
      (** unknown reads/writes ([Special], [Intack]): touches everything *)
  e_removable : bool;
      (** deletable when every written register is dead; never true for
          stores, flag writers, loads (they may fault) or barriers *)
}

val stmt_effects : Mir.stmt -> effects

(** {1 The graph} *)

type node = {
  n_block : Mir.block;
  n_succ : int list;  (** successor node indices *)
  n_pred : int list;
}

type t = {
  c_program : Mir.program;
  c_nodes : node array;  (** node 0 is the entry of [main] *)
  c_index : (Mir.label, int) Hashtbl.t;
  c_proc_entry : (Mir.label, Mir.label) Hashtbl.t;
}

val build : Mir.program -> t
(** A [Call] has both the procedure entry and its continuation as
    successors; [Ret] and [Halt] have none. *)

val block_index : t -> Mir.label -> int option

val reachable : t -> bool array
(** Per-node flag: reachable from the entry of [main], following calls
    into procedure bodies. *)

(** {1 Block-level liveness} *)

module RSet : Set.S with type elt = Mir.reg

type liveness = { live_in : RSet.t array; live_out : RSet.t array }

val universe : Mir.program -> RSet.t
(** Every register the program mentions. *)

val exit_live : univ:RSet.t -> Mir.term -> RSet.t
(** Registers live after leaving the graph: at [Halt] every physical
    register (machine state is observable at the console), no virtual
    ones (they are the compiler's fiction); at [Ret] everything. *)

val live_before : univ:RSet.t -> Mir.stmt -> RSet.t -> RSet.t
(** Transfer one statement backwards over a live set. *)

val liveness : t -> liveness
(** Backward fixpoint over the whole graph. *)
