(** The batch-compilation service: the first step from "a compiler
    binary" toward a long-lived engine serving many compilations.

    A service owns a content-addressed result cache shared by every
    consumer (the [mslc batch] subcommand, the experiment drivers, the
    benchmark harness) and a fan-out path that distributes independent
    jobs over OCaml domains.  Results are deterministic: a batch result
    is byte-identical to the same jobs run through {!Toolkit.compile}
    sequentially, whatever the domain count or cache temperature — the
    cache only ever short-circuits recomputation of a key, never changes
    a value.

    Cache keys are fingerprints of everything a compilation depends on:
    the job kind (compile/assemble), language, machine name, the full
    pipeline option record, the EMPL [use_microops] flag, and the source
    text itself (see DESIGN.md, "The service layer"). *)

open Msl_machine

(** One unit of work: compile [j_source] (language [j_language]) for the
    machine named [j_machine] under [j_options]. *)
type job = {
  j_id : string;  (** label reported back with the result *)
  j_language : Toolkit.language;
  j_machine : string;  (** resolved through {!Machines.get} *)
  j_source : string;
  j_options : Msl_mir.Pipeline.options;
  j_use_microops : bool;  (** EMPL only *)
  j_lint : bool;
      (** post-compile gate: run {!Msl_mir.Lint.validate_machine} on the
          compiled program and fail the job on any error finding.  Runs
          outside the cache — the cached value is always the pure
          compilation, and [j_lint] is not part of the cache key. *)
  j_diff : bool;
      (** post-compile gate: execute the compiled program on both
          simulation engines (the {!Msl_machine.Sim} interpreter and the
          {!Msl_machine.Simc} closure engine, 200,000 steps of fuel
          each) and fail the job unless the halt status and the full
          architectural state digest agree byte-for-byte.  Like
          [j_lint], runs outside the cache and is not part of the
          key. *)
  j_validate : bool;
      (** post-compile gate: run the translation validator
          ({!Msl_mir.Tv}) over every block and replay every superopt
          rewrite ({!Toolkit.prove}), failing the job on any REFUTED
          {e or} UNKNOWN verdict — a clean gated batch certifies each
          block was proved equivalent to its pre-compaction schedule.
          A miss is proved from the inputs its own compile captured
          ({!Toolkit.compile_for_proof}); a hit recompiles once to
          capture them.  No-op for S* (no compaction).  Like the other
          gates, runs outside the cache and is not part of the key. *)
}

type outcome = {
  o_job : job;
  o_result : (Toolkit.compiled * string, Msl_util.Diag.t) result;
      (** on success, the compilation and its {!Masm.print} listing *)
  o_cached : bool;  (** served from the cache without recompiling *)
}

type stats = {
  st_jobs : int;  (** jobs submitted (cache probes) *)
  st_hits : int;  (** served from cache — memory or disk *)
  st_misses : int;
  st_evictions : int;
  st_errors : int;  (** jobs whose outcome is an error (canceled included) *)
  st_entries : int;  (** entries currently in the memory cache *)
  st_disk_hits : int;  (** hits answered by the persistent layer *)
  st_disk_stores : int;  (** entries written to the persistent layer *)
  st_retries : int;  (** retry attempts performed after worker crashes *)
  st_internal : int;
      (** unexpected raises converted to internal-error diagnostics by
          the firewall, counted per attempt (retried crashes included) *)
  st_deadline : int;  (** jobs failed on their elapsed-time deadline *)
  st_canceled : int;  (** jobs canceled by a fail-fast batch *)
}

(** Per-job fault-handling policy for {!compile_job} / {!run_batch}.
    The default — no retries, no deadline, keep going — reproduces the
    historical behaviour exactly. *)
type policy = {
  p_retries : int;  (** retry attempts after a worker crash (not after a
                        structured compile diagnostic, which is
                        deterministic and would fail identically) *)
  p_backoff_ms : float;
      (** nominal first backoff; doubles per retry, scaled by a
          deterministic jitter in [0.5, 1.0), capped at 5 s *)
  p_deadline_ms : float option;
      (** per-job elapsed-time budget across all attempts, measured on
          the monotonic clock (immune to NTP steps).  Checked between
          steps — a running domain cannot be preempted — so an overrun
          is detected and reported, not interrupted; a result that
          arrives past the budget is discarded, not cached. *)
  p_keep_going : bool;
      (** [false] = fail-fast: after the first failed job, jobs not yet
          started are canceled (outcome: an internal "canceled"
          diagnostic).  Jobs already in a worker still finish. *)
}

val default_policy : policy

(** Deterministic fault injection, for the R1 experiment, tests and the
    CI gate.  Each probability is evaluated against a pure hash of
    [f_seed], the job's cache key and the attempt number, so a given
    configuration produces the same faults on every run and any domain
    schedule.  Faults strike compile attempts only — cache hits are
    served without injection. *)
type faults = {
  f_seed : int;
  f_raise : float;  (** probability an attempt raises before compiling *)
  f_delay : float;  (** probability an attempt sleeps first *)
  f_delay_ms : float;  (** length of that sleep *)
}

type t

val create : ?domains:int -> ?capacity:int -> ?cache_dir:string -> unit -> t
(** [domains] is the default worker-pool size for {!run_batch}
    (default: the smaller of 4 and the recommended domain count);
    [capacity] bounds the in-memory cache, evicting oldest-inserted
    entries (default 4096).  [cache_dir] adds a persistent
    content-addressed layer under the memory cache: one file per
    fingerprint, written atomically via tmp+rename, read on a memory
    miss and written on a fresh compile.  A file is a header line
    [msl-cache 2 <ocaml version> <d_digest> <options_id>] and the
    marshalled pair of the {!Toolkit.unlinked} program and its listing;
    a hit is relinked against the job's own description (the registry's
    for jobs, the caller's for {!compile_cached}/{!assemble_cached}).
    The directory is created if missing, shared safely between domains
    and processes, unbounded (eviction applies to the memory layer
    only), and survives restarts; corrupt or incompatible files are
    treated as misses and rewritten.  {!clear} does not touch it.
    The same directory also backs the superoptimizer's window-search
    memo ([.msso] files keyed by window digest) for jobs compiled with
    [superopt=on]/[-O 2], under the same atomic-write and
    corruption-is-a-miss discipline.  On startup, tmp files stranded by
    a crash mid-publish ([*.tmp.<pid>.<domain>] whose pid is no longer
    alive) are swept from the directory; tmp files of live processes
    and completed entries are untouched.
    @raise Invalid_argument when a count is not positive or the
    directory cannot be created. *)

val domains : t -> int
val stats : t -> stats

val clear : t -> unit
(** Drop every cached entry and zero the counters. *)

val job :
  ?id:string ->
  ?options:Msl_mir.Pipeline.options ->
  ?use_microops:bool ->
  ?lint:bool ->
  ?diff:bool ->
  ?validate:bool ->
  Toolkit.language ->
  machine:string ->
  source:string ->
  job

val cache_key : job -> Msl_util.Fingerprint.t

val compile_job : ?policy:policy -> ?faults:faults -> t -> job -> outcome
(** Compile one job through the cache.  Never raises: front- and
    back-end diagnostics are captured in [o_result], an unknown machine
    name is reported the same way, and {e any} other exception a worker
    raises is stopped at the per-job firewall and converted into an
    [Internal] diagnostic (with a backtrace when available) — subject to
    [policy]'s retry/backoff and deadline rules. *)

val run_batch :
  ?domains:int -> ?policy:policy -> ?faults:faults -> t -> job list ->
  outcome array
(** Fan the jobs out over a worker pool ([domains] overrides the
    service default; 1 runs everything on the calling domain) and
    return the outcomes in job order — always one outcome per job: a
    crashing job fails alone behind its firewall and cannot abort the
    batch.  Deterministic: the outcome values do not depend on the pool
    size (under fail-fast, {e which} jobs are canceled does depend on
    pickup order). *)

val compile_cached :
  t ->
  ?options:Msl_mir.Pipeline.options ->
  ?use_microops:bool ->
  Toolkit.language ->
  Desc.t ->
  string ->
  Toolkit.compiled
(** Drop-in cached {!Toolkit.compile} for in-process consumers (the
    experiment drivers).  Keyed on the description's [d_digest], not its
    name: two descriptions that share a name never share an entry.
    @raise Msl_util.Diag.Error like the original. *)

val assemble_cached : t -> Desc.t -> string -> Toolkit.compiled
(** Cached {!Toolkit.assemble}, under a distinct key kind. *)

(** {1 Batch manifests}

    The textual job-list format consumed by [mslc batch] (documented in
    README.md).  One job per line:

    {v
    # comment
    <language> <machine> <path> [key=value ...]
    v}

    with option keys [algo], [chain], [strategy], [pool], [poll],
    [trap_safe], [opt], [bb_budget], [superopt], [microops], [lint],
    [diff], [validate] and [id].  Every {!Msl_mir.Pipeline.options}
    field a key sets is part of the cache key (via
    {!Msl_mir.Pipeline.options_id}), so e.g. [superopt=on] and
    [superopt=off] jobs never share entries. *)

val parse_manifest :
  ?file:string -> load:(string -> string) -> string -> job list
(** Parse manifest text; [load] maps each source path to its contents
    (the CLI passes a file reader, tests pass an in-memory table).
    @raise Msl_util.Diag.Error with a located [Parsing] diagnostic on
    any malformed line, unknown language/machine/key, or a [load]
    failure ([Sys_error] is converted). *)
