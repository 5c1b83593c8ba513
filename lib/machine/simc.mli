(** Compiled simulation engine.

    Translates the control store once into a flowgraph of pre-decoded
    closures — one per microinstruction, with operand registers,
    destination widths, branch conditions and sequencing targets
    resolved at translation time — and dispatches direct-threaded
    through a mutable next-word index.  Semantics are the interpreter's,
    bit for bit: the engine mutates the same {!Sim.t} (via
    [Sim.Engine]), preserves the phase-ordered transport-delay write
    model and its commit order, shares the microtrap servicing, and
    falls back to {!Sim.step} for any word containing [Int_ack] (the
    interrupt-service boundary).  The differential oracle in
    [test/test_engine_diff.ml] holds both engines to byte-identical
    {!Sim.state_digest}s.

    Typical use: [Toolkit.load] a program, {!translate} once, then
    {!run} — and {!Sim.reset} + {!run} again without re-paying
    translation. *)

type t

val translate : Sim.t -> t
(** Compile the simulator's current control store.  The translation is
    tied to that store: load a different program and the engine is
    stale ([Sim.reset] is fine — it preserves the store).  When
    {!Msl_util.Trace} is enabled this is a ["simc"/"translate"] span
    recording the word counts. *)

val run : ?fuel:int -> t -> Sim.status
(** Execute until [Halt] or [fuel] microinstructions (default
    2,000,000), starting from the simulator's current pc.  Exactly
    {!Sim.run}'s observable behaviour — state, diagnostics, metrics —
    at compiled speed.  When tracing is enabled the run is a
    ["simc"/"execute"] span with the interpreter's periodic counters. *)

val sim : t -> Sim.t
(** The simulator this engine executes on. *)

val words : t -> int

val native_words : t -> int
(** Words compiled to native closures. *)
