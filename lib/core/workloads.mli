(** Deterministic, seeded workload generators for the experiments: the
    same seed always regenerates the same workload. *)

val noise : Random.State.t -> int -> string
(** [n] characters of printable noise (hostile-input fuzzing). *)

val mutate : Random.State.t -> string -> string
(** Up to seven byte-level mutations of a source text: random printable
    substitutions, blanking, and copies from elsewhere in the text.
    Shared by the robustness fuzzer and the engine differential oracle
    so both run the same mutation corpus. *)

val interrupt_schedule : seed:int -> n:int -> max_cycle:int -> int list
(** Up to [n] strictly increasing interrupt arrival cycles within
    [0, max_cycle], for {!Msl_machine.Sim.schedule_interrupts}. *)

val compaction_block :
  Msl_machine.Desc.t -> seed:int -> n:int -> p_dep:int ->
  Msl_machine.Inst.op list
(** A straight-line block of [n] microoperations; with probability
    [p_dep]% an operand is the destination of an earlier op (RAW chains).
    On a machine without [shl] (V11) the block holds moves and
    two-operand ALU ops into ACC.  Experiment T4 and the
    schedule-equivalence properties. *)

val pressure_program : seed:int -> nvars:int -> nops:int -> string
(** EMPL source over [nvars] symbolic variables and [nops] operations,
    folding everything into V0 and storing it to OUT(0) so no assignment
    is dead.  Experiment T5. *)

val yalll_program : seed:int -> len:int -> string
(** A straight-line YALLL program over five bound registers, compilable
    on every 16-bit machine.  Distinct seeds give distinct sources — the
    corpus generator for the batch-compilation service benchmarks. *)

val gen_machine : seed:int -> string
(** One point of the machine space, as [.mdesc] source text for
    {!Msl_machine.Mdesc.parse}.  Always a valid 16-bit machine able to
    compile the {!yalll_program} corpus; the datapath style (three-
    operand vs fixed-ACC), layout (vertical/horizontal, phases, field
    order and padding, opcodes), register-file size, immediate width
    and memory timing are all sampled from the seed.  Experiment M1 and
    the mdesc fuzzer. *)

val simpl_block :
  Msl_machine.Desc.t -> seed:int -> n:int -> p_dep:int -> Msl_mir.Mir.stmt list
(** Mixed-kind MIR statement blocks for the single-identity parallelism
    profile (experiment F1). *)

(** {1 Defect injection (experiment L1)}

    Seeded mutations of honestly compiled microprograms, modelling the
    compiler bugs the {!Msl_mir.Lint} analyzer is supposed to catch. *)

type defect =
  | D_race_ww
      (** merge a microoperation into an earlier word it write-conflicts
          with: the same-phase double write the compactor must prevent *)
  | D_field_overflow
      (** replace a field value with one that does not fit its width *)
  | D_swap_fields
      (** swap two operands of one microoperation — sometimes type-wrong
          (statically detectable), sometimes only semantically wrong *)
  | D_drop_dep
      (** hoist a dependent microoperation into its producer's word, as a
          compactor that lost a RAW edge would — usually invisible to
          intra-word checks, which is the experiment's point *)

val all_defects : defect list

val defect_name : defect -> string

val inject_defect :
  Msl_machine.Desc.t -> seed:int -> defect ->
  Msl_machine.Inst.t list -> Msl_machine.Inst.t list option
(** Deterministically mutate a compiled program, the seed choosing among
    the injection sites.  [None] when the program offers no site for this
    defect (e.g. no two ops anywhere write the same register in the same
    phase).  Word count and addresses are preserved, so branch targets
    stay valid. *)

(** {1 Miscompile injection (experiment V1)}

    Where {!defect} mutations model scheduler bugs the {e resource}
    checker catches, these model semantic miscompiles: the word stream
    stays resource-clean and encodable but computes something else — only
    the translation validator ({!Msl_mir.Tv}) or a differential run can
    see them. *)

type miscompile =
  | M_swap_dep
      (** swap the op payloads of two adjacent words joined by a RAW
          dependence (a compactor that lost the edge) *)
  | M_drop_word  (** empty one word's op list, keeping its sequencing *)
  | M_retarget
      (** redirect one jump or branch, or turn a fallthrough into a
          jump *)
  | M_perturb_operand
      (** replace one register operand with a same-class register, or
          flip an immediate bit *)

val all_miscompiles : miscompile list

val miscompile_name : miscompile -> string

val inject_miscompile :
  Msl_machine.Desc.t -> seed:int -> miscompile ->
  Msl_machine.Inst.t list ->
  (Msl_machine.Inst.t list * (string * Msl_bitvec.Bitvec.t) list) option
(** Deterministically mutate a compiled program, the seed rotating the
    site order.  Every returned mutant is probe-confirmed: the returned
    witness store (symbolic variable naming, replayable through
    {!Msl_mir.Tv.replay}) makes the mutant's replay differ from the
    original's.  [None] when no site yields an observable divergence — a
    swapped pair may commute, a dropped word may be dead. *)

val miscompile_probe :
  Msl_machine.Desc.t -> seed:int ->
  Msl_machine.Inst.t list -> Msl_machine.Inst.t list ->
  (string * Msl_bitvec.Bitvec.t) list option
(** Differential probe behind {!inject_miscompile}: the first of four
    seeded input stores on which the two programs' {!Msl_mir.Tv.replay}s
    differ, if any.  Also gates which {!inject_defect} mutants are
    dynamically observable (a linted defect need not change
    behaviour). *)
