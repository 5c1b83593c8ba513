(** Microinstruction composition ("compaction"): packing a straight-line
    sequence of microoperations into as few horizontal words as data
    dependence and resource/encoding conflicts allow — the problem the
    survey's §3 says has been "overemphasized", measured by experiment T4.

    Algorithms, after the survey's references:
    - [Sequential]: no packing (what a vertical machine does anyway);
    - [Fcfs]: first-come-first-served linear placement (Dasgupta & Tartar
      [3]);
    - [Critical_path]: list scheduling by longest-path priority (Tsuchiya
      & Gonzalez [22]);
    - [Optimal]: branch-and-bound exact minimum (Tokoro et al. [21]),
      falling back to the critical-path answer past a node budget. *)

open Msl_machine

type algo = Sequential | Fcfs | Critical_path | Optimal

val algo_name : algo -> string

type result = {
  groups : Inst.op list list;  (** one element per microinstruction *)
  r_algo : algo;  (** the algorithm the caller *requested* (vertical
                      machines still pack sequentially — see
                      [forced_sequential]) *)
  forced_sequential : bool;
      (** the machine is vertical, so the requested algorithm was
          overridden to one op per word *)
  nodes : int;  (** search nodes explored ([Optimal] only; never exceeds
                    the node budget) *)
  exact : bool;  (** [Optimal] finished within its node budget *)
}

val default_node_budget : int
(** 300_000 — the default branch-and-bound search budget, carried as
    [Pipeline.options.bb_budget] (the CLI's [--bb-budget]). *)

val check : chain:bool -> Desc.t -> Inst.op list -> Inst.op list list -> bool
(** Is the grouping a valid schedule of the ops: every dependence delta
    respected and every word conflict-free?  [compact] runs the same check
    on every result, against the dependence graph it scheduled from;
    exposed for the superoptimizer's memo and the property tests. *)

val lower_bound : chain:bool -> Desc.t -> Inst.op list -> int
(** An admissible bound on the words any grouping {!check} accepts needs:
    the larger of the longest dependence chain and a greedy clique of
    pairwise-conflicting ops.  [compact]'s result never has fewer words,
    whatever the algorithm and whether or not [Optimal] ran out of
    budget. *)

val compact :
  ?chain:bool -> ?node_budget:int -> algo:algo -> Desc.t -> Inst.op list ->
  result
(** [chain] (default true) allows transport chaining on polyphase
    machines: a dependent op may share a word with its producer when the
    producer's phase strictly precedes.  [node_budget] (default
    {!default_node_budget}) caps the [Optimal] search; when exhausted the
    result carries [exact = false] and an [i]-phase
    ["bb_budget_exhausted"] trace event is emitted.
    @raise Msl_util.Diag.Error if the produced schedule fails [check]
    (an internal invariant). *)
