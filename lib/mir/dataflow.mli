(** Dependence analysis at two granularities: machine microoperations
    (feeding compaction, §2.1.4's data dependence) and MIR statements
    (SIMPL's single-identity partial order, experiment F1 — the RAW + WAR
    + WAW order of §2.2.1). *)

open Msl_machine

type ekind = Raw | War | Waw | Mem | Flag_raw | Flag_war | Flag_waw

type edge = { e_src : int; e_dst : int; e_kind : ekind }
(** Always [e_src < e_dst] in source order. *)

(** {1 Over machine microoperations} *)

type op_info = {
  i_reads : int list;  (** register ids, sorted *)
  i_writes : int list;
  i_freads : int;  (** flag mask, bit {!Rtl.flag_index} per flag *)
  i_fwrites : int;
  i_mem : bool;
  i_phase : int;
}

val build : Desc.t -> Inst.op array -> op_info array * edge list
(** All dependence edges of a straight-line block. *)

val same_mi_ok : chain:bool -> op_info array -> edge -> bool
(** May the dependent op share a microinstruction with its source?  WAR
    edges share when the writer's phase is not earlier than the reader's;
    RAW/WAW only by transport chaining (producer phase strictly earlier,
    [chain] enabled); flag and memory edges never share. *)

val min_delta : chain:bool -> op_info array -> edge -> int
(** 0 when sharing is allowed, else 1 (strictly later word). *)

val preds_by_dst : int -> edge list -> edge list array

val path_lengths : chain:bool -> op_info array -> edge list -> int array
(** Longest dependence chain (in words) starting at each op: the
    list-scheduling priority and the branch-and-bound lower bound. *)

val critical_path : chain:bool -> op_info array -> edge list -> int

(** {1 Over MIR statements (the single-identity order)} *)

val stmt_levels : Mir.stmt list -> int list
(** ASAP level of each statement; WAR edges allow sharing a level. *)

val parallelism : Mir.stmt list -> float
(** Statements divided by dependence depth: the parallelism available
    under the single-identity order (F1). *)
