(** Dependence analysis at two granularities: machine microoperations
    (feeding compaction, §2.1.4's data dependence) and MIR statements
    (SIMPL's single-identity partial order, experiment F1 — the RAW + WAR
    + WAW order of §2.2.1). *)

open Msl_machine

(** {1 Over machine microoperations} *)

type edge = { e_src : int; e_delta : int }
(** An edge into an op from the earlier op [e_src]: the dependent op goes
    at least [e_delta] words later.  [e_delta] is 0 when the two may
    share a word: a WAR edge whose writer's phase is not earlier than the
    reader's, or a register RAW/WAW by transport chaining (producer phase
    strictly earlier, [chain] enabled); flag and memory dependences never
    share.  One edge stands for every dependence between its two ops. *)

type graph = {
  g_preds : edge list array;  (** edges into each op, by op index *)
  g_paths : int array;
      (** longest dependence chain (in words) starting at each op: the
          list-scheduling priority and the branch-and-bound lower bound *)
}
(** The dependence graph of a straight-line block. *)

val graph : chain:bool -> Desc.t -> Inst.op array -> graph
(** Built once per block, under [chain]; raises [Invalid_argument] on an
    op of another machine. *)

(** {1 Over MIR statements (the single-identity order)} *)

val stmt_levels : Mir.stmt list -> int list
(** ASAP level of each statement; WAR edges allow sharing a level. *)

val parallelism : Mir.stmt list -> float
(** Statements divided by dependence depth: the parallelism available
    under the single-identity order (F1). *)
