(** Bounded Hoare-logic verification of S* programs (the survey's §2.2.3
    correctness story; Strum's verifier, §2.2.5).

    Weakest preconditions are computed backward through straight-line
    code, if/elif/else, cobegin (simultaneous substitution), cocycle and
    dur (sequential), with loops requiring [inv { ... }] annotations and
    [assert { ... }] acting as cut points.  Verification conditions are
    discharged over *machine arithmetic* — fixed-width wrapping
    bitvectors, exactly the instantiated semantics under which the survey
    modifies the INC rule for overflow — exhaustively up to 18 free bits,
    by corner-plus-random sampling beyond.

    Unsupported constructs (flag tests, stacks, calls, run-time-indexed
    arrays) are reported in [failure], never silently skipped. *)

type status =
  | Proved  (** exhaustively checked *)
  | Refuted of (Compile.storage * Msl_bitvec.Bitvec.t) list
      (** counterexample assignment *)
  | Sampled of int  (** held on this many sampled states *)

type report = {
  results : (string * status) list;  (** per verification condition *)
  proved : int;
  sampled : int;
  refuted : int;
  failure : string option;  (** unsupported-construct message, if any *)
}

val verify : Msl_machine.Desc.t -> Ast.program -> report

val ok : report -> bool
(** No failure and nothing refuted. *)

val pp_report : Format.formatter -> report -> unit
