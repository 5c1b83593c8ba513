(** Peephole superoptimization of compacted microcode (-O2), closing the
    gap between block-at-a-time compaction and hand-written microcode the
    survey's §2.2.5 prices at +15%.

    The pass slides short windows over the emitted word lists — spanning
    block boundaries along fallthrough and goto-to-next edges — and
    proposes three rewrite classes the per-block compactor cannot see:

    - {e repack}: re-schedule a window's microoperations with the
      branch-and-bound compactor ({!Compaction.Optimal} under the same
      [bb_budget]), spanning words the per-block run could not because a
      block boundary or the sequencing tail stood between them.  A
      window whose {!Compaction.lower_bound} already equals its word
      count cannot shrink and is not searched;
    - {e goto-fold}: absorb a label-free control word into the
      [L_next] word before it (the jump-to-jump collapse
      [Pipeline.thread_jumps] must refuse when control falls in);
    - {e branch-invert}: replace a conditional branch over a bare goto by
      the complementary branch ({!Desc.negate_cond}), deleting the goto
      word.

    Every candidate is accepted only when {!Tv.validate_rewrite} proves
    it ([Validated] — [Unknown] and [Refuted] are rejections, never a
    miscompile) {e and} Microlint's race and encoding re-checks report no
    new findings.  Windows touching an [Rtl.Int_ack] word, a call, a
    dispatch or an interrupt-pending test are skipped.  Word counts never
    increase: every accepted rewrite strictly shrinks its window.

    Window search results are memoizable in a content-addressed store
    keyed by (machine, window digest, search options), so the branch-and-
    bound cost amortizes across a batch fleet.  Only windows the lower
    bound leaves open are looked up or stored. *)

open Msl_machine

type words = (Inst.op list * Select.lnext) list

type kind = K_repack | K_fold | K_invert

val kind_name : kind -> string

(** An accepted rewrite, as the proof obligation that was discharged:
    replay [Tv.validate_rewrite ~fall_ref ~fall_cand ~reference
    ~candidate] and it must return [Validated]. *)
type rewrite = {
  rw_label : string;  (** block owning the window *)
  rw_kind : kind;
  rw_ref : words;  (** the window before the rewrite *)
  rw_cand : words;  (** the window after *)
  rw_fall_ref : string option;
  rw_fall_cand : string option;
  rw_saved : int;  (** words deleted (>= 1) *)
}

type stats = {
  mutable s_windows : int;  (** windows examined *)
  mutable s_bounded : int;
      (** repack windows skipped because {!Compaction.lower_bound}
          already equals their word count (counted in [s_windows]) *)
  mutable s_accepted : int;  (** rewrites proved and applied *)
  mutable s_words_saved : int;
  mutable s_merges : int;  (** fallthrough block merges (word-neutral) *)
  mutable s_rejected : int;  (** candidates the proof or lint gate refused *)
  mutable s_skipped_ack : int;  (** windows skipped for touching [Int_ack] *)
  mutable s_search_nodes : int;  (** branch-and-bound nodes over all windows *)
  mutable s_memo_hits : int;
  mutable s_memo_misses : int;
}

(** A content-addressed memo for window search results.  Keys are hex
    digests of (machine digest, each window op's template position and
    arguments, chain, node budget); values are opaque
    strings produced and consumed by this module only.  A [memo_find]
    returning corrupt or stale data is safe: the packing is re-checked
    against {!Compaction.check} and the full proof gate before use. *)
type memo = {
  memo_find : string -> string option;
  memo_add : string -> string -> unit;
}

val replay : Desc.t -> rewrite -> Tv.verdict
(** Re-discharge an accepted rewrite's proof obligation, exactly as the
    acceptance gate did.  Must return [Validated] for anything [run]
    reported through [observe]. *)

val run :
  ?memo:memo ->
  ?observe:(rewrite -> unit) ->
  chain:bool ->
  node_budget:int ->
  extra_refs:string list ->
  Desc.t ->
  (string * words) list ->
  (string * words) list * stats
(** Superoptimize a lowered program: the pipeline's per-block word lists
    in layout order, before {!Pipeline.link} resolves labels.
    [extra_refs] names labels referenced from outside the word lists
    (procedure entry blocks); the first block is always treated as
    referenced.  [observe] sees every accepted rewrite, in order —
    the hook the tests and the batch validate gate replay proofs from.
    Word counts can only shrink; behaviour is preserved per-rewrite by
    construction (proof gate) and the result needs no further trust. *)
