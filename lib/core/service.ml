(* The batch-compilation service: a content-addressed result cache plus a
   domain worker pool.  See service.mli for the contract. *)

open Msl_machine
module Pipeline = Msl_mir.Pipeline
module Compaction = Msl_mir.Compaction
module Regalloc = Msl_mir.Regalloc
module Superopt = Msl_mir.Superopt
module Tv = Msl_mir.Tv
module Diag = Msl_util.Diag
module Fingerprint = Msl_util.Fingerprint
module Safe_queue = Msl_util.Safe_queue
module Trace = Msl_util.Trace

type job = {
  j_id : string;
  j_language : Toolkit.language;
  j_machine : string;
  j_source : string;
  j_options : Pipeline.options;
  j_use_microops : bool;
  j_lint : bool;
  j_diff : bool;
  j_validate : bool;
}

type outcome = {
  o_job : job;
  o_result : (Toolkit.compiled * string, Diag.t) result;
  o_cached : bool;
}

type stats = {
  st_jobs : int;
  st_hits : int;
  st_misses : int;
  st_evictions : int;
  st_errors : int;
  st_entries : int;
  st_disk_hits : int;
  st_disk_stores : int;
  st_retries : int;
  st_internal : int;
  st_deadline : int;
  st_canceled : int;
}

type policy = {
  p_retries : int;
  p_backoff_ms : float;
  p_deadline_ms : float option;
  p_keep_going : bool;
}

let default_policy =
  { p_retries = 0; p_backoff_ms = 2.0; p_deadline_ms = None; p_keep_going = true }

type faults = {
  f_seed : int;
  f_raise : float;
  f_delay : float;
  f_delay_ms : float;
}

let no_faults = { f_seed = 0; f_raise = 0.0; f_delay = 0.0; f_delay_ms = 5.0 }

exception Injected_fault of string

(* Rendered without the constructor so fault-injection output is the
   configured message alone, stable enough for golden tests. *)
let () =
  Printexc.register_printer (function
      | Injected_fault msg -> Some msg
      | _ -> None)

type entry = { e_compiled : Toolkit.compiled; e_listing : string }

type t = {
  capacity : int;
  n_domains : int;
  disk : string option;  (* persistent cache directory *)
  mutex : Mutex.t;
  table : (string, entry) Hashtbl.t;  (* Fingerprint.t -> entry *)
  order : string Queue.t;  (* insertion order, for eviction *)
  mutable jobs : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable errors : int;
  mutable disk_hits : int;
  mutable disk_stores : int;
  mutable retries : int;
  mutable internal : int;
  mutable deadline : int;
  mutable canceled : int;
}

let default_domains () =
  max 1 (min 4 (Domain.recommended_domain_count ()))

(* A crash between a tmp write and its rename (disk_store/memo_add
   below) strands a "<name>.tmp.<pid>.<domain>" file forever — a slow
   leak in any long-lived cache directory.  On startup we sweep tmp
   files whose writing process is gone; tmp files owned by a live pid
   (another service sharing the directory, mid-publish) are left
   alone, as are completed ".mslc"/".msso" entries. *)
let tmp_file_pid name =
  let marker = ".tmp." in
  let mlen = String.length marker and len = String.length name in
  let rec find i =
    if i + mlen > len then None
    else if String.sub name i mlen = marker then Some (i + mlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start -> (
      (* expect "<pid>.<domain>" with both fields numeric *)
      match String.split_on_char '.' (String.sub name start (len - start)) with
      | [ pid; domain ] -> (
          match (int_of_string_opt pid, int_of_string_opt domain) with
          | Some pid, Some _ -> Some pid
          | _ -> None)
      | _ -> None)

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception _ -> true  (* EPERM etc.: exists but not ours — keep it *)

let sweep_stale_tmp dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun name ->
          match tmp_file_pid name with
          | Some pid when not (pid_alive pid) -> (
              try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
          | _ -> ())
        names

let create ?domains ?(capacity = 4096) ?cache_dir () =
  let n_domains = match domains with Some n -> n | None -> default_domains () in
  if n_domains < 1 then invalid_arg "Service.create: domains must be positive";
  if capacity < 1 then invalid_arg "Service.create: capacity must be positive";
  (match cache_dir with
  | None -> ()
  | Some dir -> (
      try Unix.mkdir dir 0o755
      with
      | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
      | Unix.Unix_error (e, _, _) ->
          invalid_arg
            (Printf.sprintf "Service.create: cannot create cache dir %s: %s"
               dir (Unix.error_message e)));
      sweep_stale_tmp dir);
  (* the firewall turns worker crashes into diagnostics; record
     backtraces so those diagnostics say where the crash came from *)
  Printexc.record_backtrace true;
  {
    capacity;
    n_domains;
    disk = cache_dir;
    mutex = Mutex.create ();
    table = Hashtbl.create 64;
    order = Queue.create ();
    jobs = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    errors = 0;
    disk_hits = 0;
    disk_stores = 0;
    retries = 0;
    internal = 0;
    deadline = 0;
    canceled = 0;
  }

let domains t = t.n_domains

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let stats t =
  locked t (fun () ->
      {
        st_jobs = t.jobs;
        st_hits = t.hits;
        st_misses = t.misses;
        st_evictions = t.evictions;
        st_errors = t.errors;
        st_entries = Hashtbl.length t.table;
        st_disk_hits = t.disk_hits;
        st_disk_stores = t.disk_stores;
        st_retries = t.retries;
        st_internal = t.internal;
        st_deadline = t.deadline;
        st_canceled = t.canceled;
      })

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      Queue.clear t.order;
      t.jobs <- 0;
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0;
      t.errors <- 0;
      t.disk_hits <- 0;
      t.disk_stores <- 0;
      t.retries <- 0;
      t.internal <- 0;
      t.deadline <- 0;
      t.canceled <- 0)

(* -- cache keys ---------------------------------------------------------------- *)

(* The option half of the key is Pipeline.options_id: an exhaustive
   record-to-string defined next to the type, so a future options field
   cannot silently produce stale cache hits (it used to be a hand-copied
   field list here — the exact bug the exhaustive pattern now rules
   out). *)
let options_id = Pipeline.options_id

let key_of ~kind ~language ~machine ~options ~use_microops ~source =
  Fingerprint.of_parts
    [ kind; language; machine; options; string_of_bool use_microops; source ]

(* [opts_id] is [options_id j.j_options], computed once per job: the disk
   layer reads it too *)
let job_key ~opts_id (j : job) =
  key_of ~kind:"compile"
    ~language:(Toolkit.language_name j.j_language)
    ~machine:j.j_machine ~options:opts_id ~use_microops:j.j_use_microops
    ~source:j.j_source

let cache_key (j : job) = job_key ~opts_id:(options_id j.j_options) j

let job ?id ?(options = Pipeline.default_options) ?(use_microops = false)
    ?(lint = false) ?(diff = false) ?(validate = false) language ~machine
    ~source =
  let id =
    match id with
    | Some id -> id
    | None ->
        Printf.sprintf "%s:%s"
          (String.lowercase_ascii (Toolkit.language_name language))
          machine
  in
  {
    j_id = id;
    j_language = language;
    j_machine = machine;
    j_source = source;
    j_options = options;
    j_use_microops = use_microops;
    j_lint = lint;
    j_diff = diff;
    j_validate = validate;
  }

(* -- the on-disk cache layer ---------------------------------------------------- *)

(* One file per fingerprint under the cache directory: a one-line
   versioned text header followed by the marshalled entry.  The header
   pins the format version, the OCaml version (Marshal is not stable
   across compilers), the machine description's digest and the job's
   [Pipeline.options_id], so an entry written by an incompatible build,
   against an edited machine or under a different option scheme reads
   as a miss, never as a wrong answer.  The payload leaves the machine
   out ([Toolkit.unlinked]: ops name their templates by index) and is
   relinked on load against the description the job names, so a disk
   hit neither stores nor unmarshals a copy of the machine.  Writes go
   to a tmp file in the same directory and are published with
   [Sys.rename], so a reader — or a crash mid-write — can only ever see
   a complete file.  All disk I/O happens outside the service lock. *)

let disk_format_version = 2

let disk_header ~opts_id (d : Desc.t) =
  Printf.sprintf "msl-cache %d %s %s %s" disk_format_version Sys.ocaml_version
    d.Desc.d_digest opts_id

(* What a [.mslc] file marshals after its header line. *)
type disk_payload = Toolkit.unlinked * string  (* program, listing *)

let disk_file dir key = Filename.concat dir (Digest.to_hex key ^ ".mslc")

(* Every file the service publishes — cache entries and superopt memo
   values — is one header line and a payload.  Writes go to a tmp file
   in the same directory, published with [Sys.rename]; [publish] says
   whether the rename happened.  Reads are corruption-tolerant by
   construction: any failure — missing file, bad header, truncated or
   garbage payload — is [None], a miss, and the fresh result then
   overwrites the bad file. *)
let publish path header write =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) (Domain.self () :> int)
  in
  match open_out_bin tmp with
  | exception Sys_error _ -> false  (* read-only/vanished dir: keep serving *)
  | oc ->
      let written =
        try
          output_string oc header;
          output_char oc '\n';
          write oc;
          true
        with _ -> false
      in
      close_out_noerr oc;
      let published =
        written
        &&
        try
          Sys.rename tmp path;
          true
        with Sys_error _ -> false
      in
      if not published then (try Sys.remove tmp with Sys_error _ -> ());
      published

let read_published path header read =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try if input_line ic <> header then None else Some (read ic)
          with _ -> None)

(* [machine] names the description the entry must relink against; it
   is only asked for on a memory miss, and an unknown machine is a
   miss here (the compile then reports it). *)
let disk_load t ~opts_id ~machine key =
  Option.bind t.disk (fun dir ->
      match machine () with
      | exception Diag.Error _ -> None
      | d ->
          read_published (disk_file dir key) (disk_header ~opts_id d)
            (fun ic ->
              let u, listing = (Marshal.from_channel ic : disk_payload) in
              { e_compiled = Toolkit.relink d u; e_listing = listing }))

let disk_store t ~opts_id key e =
  match t.disk with
  | None -> ()
  | Some dir ->
      if
        publish (disk_file dir key)
          (disk_header ~opts_id e.e_compiled.Toolkit.c_machine) (fun oc ->
            Marshal.to_channel oc
              ((Toolkit.unlink e.e_compiled, e.e_listing) : disk_payload)
              [])
      then
        locked t (fun () ->
            t.disk_stores <- t.disk_stores + 1;
            if Trace.enabled () then
              Trace.counter ~cat:"service" "disk_stores" t.disk_stores)

(* The superoptimizer's window-search memo shares the cache directory:
   one small file per window digest (the key is already a hex digest —
   content-addressed over machine, window ops and search options), same
   header discipline, same atomic publish.  The value is opaque to the
   service; Superopt re-checks every hit against its dependence model
   and proof gate, so a corrupt file costs a re-search, never a wrong
   schedule. *)
let superopt_header =
  Printf.sprintf "msl-superopt %d %s" disk_format_version Sys.ocaml_version

let superopt_memo t =
  Option.map
    (fun dir ->
      let file key = Filename.concat dir (key ^ ".msso") in
      {
        Superopt.memo_find =
          (fun key ->
            read_published (file key) superopt_header (fun ic ->
                really_input_string ic (in_channel_length ic - pos_in ic)));
        memo_add =
          (fun key v ->
            ignore
              (publish (file key) superopt_header (fun oc ->
                   output_string oc v)));
      })
    t.disk

(* -- the cache proper ----------------------------------------------------------- *)

(* Memory-layer insert.  Two domains racing on the same key both compile
   (the value is identical — compilation is deterministic); only the
   first insertion is kept so the eviction queue stays consistent.
   Eviction validates membership on pop: a stale queue entry (its key
   already removed, or double-pushed by a historical re-insert) must not
   evict a live entry or inflate the eviction count. *)
let insert_mem t key e =
  locked t (fun () ->
      if not (Hashtbl.mem t.table key) then begin
        (* make room first: the table must never hold more than
           [capacity] entries, even transiently between the insert and
           the eviction scan — observers under the same lock (stats,
           eviction tests) see the stated bound, exactly *)
        let rec evict () =
          if Hashtbl.length t.table >= t.capacity then
            match Queue.take_opt t.order with
            | None -> ()  (* defensive: order exhausted before capacity met *)
            | Some oldest ->
                if Hashtbl.mem t.table oldest then begin
                  Hashtbl.remove t.table oldest;
                  t.evictions <- t.evictions + 1;
                  if Trace.enabled () then
                    Trace.counter ~cat:"service" "cache_evictions" t.evictions
                end;
                evict ()
        in
        evict ();
        Hashtbl.replace t.table key e;
        Queue.push key t.order
      end)

(* Insert after a genuine miss: memory plus the persistent layer. *)
let insert t ~opts_id key e =
  insert_mem t key e;
  disk_store t ~opts_id key e

(* Cache counters are emitted inside the service lock, right where the
   counted state changes: the trace then carries them in the same total
   order the cache saw, which is what lets the test suite assert they
   are monotone even under a domain fan-out.  [jobs] is bumped once per
   probe and exactly one of [hits]/[misses] follows — whichever layer
   answered — so [hits + misses = jobs] holds with or without a disk. *)
let probe t ~opts_id ~machine key =
  let from_memory =
    locked t (fun () ->
        t.jobs <- t.jobs + 1;
        Hashtbl.find_opt t.table key)
  in
  let note_hit ~disk =
    locked t (fun () ->
        t.hits <- t.hits + 1;
        if disk then t.disk_hits <- t.disk_hits + 1;
        if Trace.enabled () then begin
          Trace.counter ~cat:"service" "cache_hits" t.hits;
          if disk then begin
            Trace.counter ~cat:"service" "disk_hits" t.disk_hits;
            Trace.instant ~cat:"service" "disk_hit"
          end
        end)
  in
  match from_memory with
  | Some e ->
      note_hit ~disk:false;
      Some e
  | None -> (
      match disk_load t ~opts_id ~machine key with
      | Some e ->
          (* promote to the memory layer; no write-back needed *)
          insert_mem t key e;
          note_hit ~disk:true;
          Some e
      | None ->
          locked t (fun () ->
              t.misses <- t.misses + 1;
              if Trace.enabled () then
                Trace.counter ~cat:"service" "cache_misses" t.misses);
          None)

let note_error t = locked t (fun () -> t.errors <- t.errors + 1)

(* -- fault injection ------------------------------------------------------------- *)

(* Deterministic [0,1) draw from the fault seed, the cache key and the
   attempt number.  Injection and backoff jitter are thus reproducible
   across runs and domain schedules — which is what lets CI and the cram
   suite gate on exact fault-injection outcomes. *)
let draw ~seed key attempt tag =
  let d =
    Digest.string (Printf.sprintf "%d\x00%s\x00%d\x00%s" seed key attempt tag)
  in
  float_of_int
    (Char.code d.[0] lor (Char.code d.[1] lsl 8) lor (Char.code d.[2] lsl 16))
  /. 16_777_216.0

let inject faults key attempt =
  if
    faults.f_delay > 0.0
    && draw ~seed:faults.f_seed key attempt "delay" < faults.f_delay
  then Unix.sleepf (faults.f_delay_ms /. 1000.0);
  if
    faults.f_raise > 0.0
    && draw ~seed:faults.f_seed key attempt "raise" < faults.f_raise
  then raise (Injected_fault (Printf.sprintf "injected fault (attempt %d)" attempt))

(* -- compiling one job ----------------------------------------------------------- *)

(* Whether the validate gate has anything to prove: S* bypasses
   compaction, so its programs carry no proof inputs. *)
let proves (j : job) = j.j_validate && j.j_language <> Toolkit.Sstar

let compile_for_proof ?superopt_memo (j : job) d =
  Toolkit.compile_for_proof ?superopt_memo ~options:j.j_options
    ~use_microops:j.j_use_microops j.j_language d j.j_source

(* Raises: a structured [Diag.Error] on any front- or back-end failure,
   and possibly anything at all on a pathological job — the caller's
   firewall sorts the two apart.  A job the validate gate will prove
   captures its proof inputs here, in the one compile a miss does. *)
let compile_raw ?superopt_memo (j : job) =
  let d = Machines.get j.j_machine in
  let c, proof =
    if proves j then
      let c, p = compile_for_proof ?superopt_memo j d in
      (c, Some p)
    else
      ( Toolkit.compile ?superopt_memo ~options:j.j_options
          ~use_microops:j.j_use_microops j.j_language d j.j_source,
        None )
  in
  ({ e_compiled = c; e_listing = Masm.print d c.Toolkit.c_insts }, proof)

(* One attempt behind the exception firewall.  A structured diagnostic
   is deterministic — the same source fails the same way every time — so
   it is never retried; anything else that escapes the compiler is an
   internal fault (a worker crash, an injected raise) and is fair game
   for a retry. *)
type attempt =
  | A_ok of entry * Toolkit.proof_inputs option
  | A_diag of Diag.t  (* deterministic compile failure *)
  | A_crash of Diag.t  (* unexpected raise, converted; retryable *)

let one_attempt ?superopt_memo ~faults j key n =
  try
    inject faults key n;
    let e, proof = compile_raw ?superopt_memo j in
    A_ok (e, proof)
  with
  | Diag.Error d -> A_diag d
  | Injected_fault msg ->
      (* injected by configuration: deliberately backtrace-free so
         fault-injection output stays byte-stable *)
      A_crash { Diag.phase = Diag.Internal; loc = Msl_util.Loc.dummy; message = msg }
  | (Stdlib.Exit | Sys.Break) as e -> raise e
  | e ->
      let bt = String.trim (Printexc.get_backtrace ()) in
      let msg = Printexc.to_string e in
      A_crash
        {
          Diag.phase = Diag.Internal;
          loc = Msl_util.Loc.dummy;
          message = (if bt = "" then msg else msg ^ "\n" ^ bt);
        }

(* The retry/deadline loop around the firewall.  The deadline is an
   elapsed-time budget for the whole job across attempts, checked
   between steps (a domain cannot be preempted, so overrun is detected,
   not interrupted); a job that finishes past its budget is reported as
   a deadline failure and its result discarded rather than cached late.
   Timed on the monotonic clock: an NTP step under a wall clock would
   make every in-flight deadline fire spuriously (or never), which a
   long-lived daemon cannot afford. *)
let compile_uncached t ~policy ~faults ~opts_id (j : job) key =
  let started = Msl_util.Clock.now_s () in
  let overrun () =
    match policy.p_deadline_ms with
    | None -> None
    | Some budget ->
        let elapsed = Msl_util.Clock.elapsed_s started *. 1000.0 in
        if elapsed > budget then Some (elapsed, budget) else None
  in
  let deadline_diag (elapsed, budget) attempts =
    locked t (fun () -> t.deadline <- t.deadline + 1);
    if Trace.enabled () then
      Trace.instant ~cat:"service" "deadline_exceeded"
        ~args:
          [ ("id", Trace.A_string j.j_id); ("elapsed_ms", Trace.A_float elapsed) ];
    {
      Diag.phase = Diag.Internal;
      loc = Msl_util.Loc.dummy;
      message =
        Printf.sprintf
          "deadline exceeded: %.1f ms elapsed over a %.1f ms budget (%d \
           attempt%s)"
          elapsed budget attempts
          (if attempts = 1 then "" else "s");
    }
  in
  let rec go attempt =
    match one_attempt ?superopt_memo:(superopt_memo t) ~faults j key attempt with
    | A_ok (e, proof) -> (
        match overrun () with
        | Some over -> Error (deadline_diag over attempt)
        | None ->
            insert t ~opts_id key e;
            Ok (e, proof))
    | A_diag d -> Error d
    | A_crash d -> (
        locked t (fun () -> t.internal <- t.internal + 1);
        if attempt > policy.p_retries then Error d
        else
          match overrun () with
          | Some over -> Error (deadline_diag over attempt)
          | None ->
              (* exponential backoff with deterministic jitter in
                 [0.5, 1.0) of the nominal step, capped at 5 s *)
              let nominal =
                policy.p_backoff_ms *. (2.0 ** float_of_int (attempt - 1))
              in
              let jitter =
                0.5 +. (0.5 *. draw ~seed:faults.f_seed key attempt "jitter")
              in
              let backoff_ms = Float.min 5000.0 (nominal *. jitter) in
              locked t (fun () -> t.retries <- t.retries + 1);
              if Trace.enabled () then
                Trace.instant ~cat:"service" "retry"
                  ~args:
                    [
                      ("id", Trace.A_string j.j_id);
                      ("attempt", Trace.A_int attempt);
                      ("backoff_ms", Trace.A_float backoff_ms);
                    ];
              if backoff_ms > 0.0 then Unix.sleepf (backoff_ms /. 1000.0);
              go (attempt + 1))
  in
  go 1

(* The post-compile lint gate.  Runs outside the cache: the cached value
   is always the pure compilation (j_lint is not in the key), and a
   cache hit re-runs the gate — the analyzer is cheap next to the
   compile it audits.  Only the machine-level analyses apply here: the
   MIR checks need the pre-pass program, which cached entries do not
   carry. *)
(* A gate's message names its first failure and counts the rest. *)
let and_more = function
  | [] -> ""
  | rest -> Printf.sprintf " (+%d more)" (List.length rest)

let lint_gate (c : Toolkit.compiled) =
  let findings =
    Msl_mir.Lint.validate_machine ~labels:c.Toolkit.c_labels
      c.Toolkit.c_machine c.Toolkit.c_insts
  in
  match Msl_mir.Diag.errors findings with
  | [] -> None
  | first :: rest ->
      let message =
        Fmt.str "%a%s" Msl_mir.Diag.pp_finding first (and_more rest)
      in
      Some { Diag.phase = Diag.Lint; loc = Msl_util.Loc.dummy; message }

(* The differential-engine gate.  Like the lint gate it runs outside the
   cache (j_diff is not in the key): the cached value is the pure
   compilation, and the gate re-executes on every probe.  Two fresh
   simulators are loaded from the same compilation; one runs under the
   reference interpreter, the other under the compiled closure engine,
   and any difference in halt status or architectural state digest fails
   the job.  The fuel is deliberately modest: the gate is a semantic
   cross-check, not a termination proof, and a program still running on
   both engines with byte-identical state has passed it. *)
let diff_fuel = 200_000

let diff_gate (c : Toolkit.compiled) =
  let run engine =
    Toolkit.capture (fun () ->
        let sim = Toolkit.load c in
        let status = Toolkit.exec ~fuel:diff_fuel ~engine sim in
        (status, Sim.state_digest sim))
  in
  let describe = function
    | Ok (Sim.Halted, _) -> "halted"
    | Ok (Sim.Out_of_fuel, _) -> "out of fuel"
    | Error (d : Diag.t) -> "error: " ^ d.Diag.message
  in
  let a = run Toolkit.Interp and b = run Toolkit.Compiled in
  if a = b then None
  else
    let message =
      match (a, b) with
      | Ok (sa, da), Ok (sb, db) when sa = sb ->
          (* same verdict, different machine state: show the first
             digest line that disagrees — the actionable bit *)
          let la = String.split_on_char '\n' da
          and lb = String.split_on_char '\n' db in
          let rec first_diff = function
            | x :: xs, y :: ys ->
                if String.equal x y then first_diff (xs, ys)
                else Printf.sprintf "interp %S vs compiled %S" x y
            | x :: _, [] -> Printf.sprintf "interp %S vs compiled <end>" x
            | [], y :: _ -> Printf.sprintf "interp <end> vs compiled %S" y
            | [], [] -> "<identical digests>"
          in
          Printf.sprintf "engine divergence after %d steps: %s" diff_fuel
            (first_diff (la, lb))
      | _ ->
          Printf.sprintf
            "engine divergence after %d steps: interp %s, compiled %s"
            diff_fuel (describe a) (describe b)
    in
    Some { Diag.phase = Diag.Execution; loc = Msl_util.Loc.dummy; message }

(* The translation-validation gate.  Like the others it runs outside the
   cache (j_validate is not in the key); unlike them it cannot work from
   the compiled program alone — the validator consumes the per-block
   artifacts and superopt rewrites the pipeline captures while it
   compiles.  A miss brings the [proof] its own compile captured, kept
   beside the entry and never cached; a hit has none, so the gate
   recompiles to capture one.  S* programs bypass compaction entirely:
   nothing to validate, the gate passes.  Strict on purpose: REFUTED and
   UNKNOWN both fail, so a clean gated batch certifies that every block
   was proved, not merely that none was refuted. *)
let validate_gate (j : job) proof (c : Toolkit.compiled) =
  if not (proves j) then None
  else
    let d = c.Toolkit.c_machine in
    match
      Toolkit.capture (fun () ->
          Toolkit.prove d
            (match proof with
            | Some p -> p
            | None -> snd (compile_for_proof j d)))
    with
    | Error d -> Some d
    | Ok (r, bad_rw) ->
        if r.Tv.v_refuted = 0 && r.Tv.v_unknown = 0 && bad_rw = [] then None
        else
          let message =
            match (bad_rw, r.Tv.v_findings) with
            | rw :: rest, _ ->
                Printf.sprintf
                  "superopt rewrite in block %s (%s) did not replay \
                   Validated%s"
                  rw.Superopt.rw_label
                  (Superopt.kind_name rw.Superopt.rw_kind)
                  (and_more rest)
            | [], [] -> Fmt.str "%a" Tv.pp_summary r
            | [], first :: rest ->
                Fmt.str "%a%s" Msl_mir.Diag.pp_finding first (and_more rest)
          in
          Some
            { Diag.phase = Diag.Verification; loc = Msl_util.Loc.dummy; message }

let compile_job ?(policy = default_policy) ?(faults = no_faults) t (j : job) =
  let opts_id = options_id j.j_options in
  let key = (job_key ~opts_id j :> string) in
  let served ~cached e =
    { o_job = j; o_result = Ok (e.e_compiled, e.e_listing); o_cached = cached }
  in
  let outcome, proof =
    let machine () = Machines.get j.j_machine in
    match probe t ~opts_id ~machine key with
    | Some e -> (served ~cached:true e, None)
    | None -> (
        match compile_uncached t ~policy ~faults ~opts_id j key with
        | Ok (e, proof) -> (served ~cached:false e, proof)
        | Error d ->
            note_error t;
            ({ o_job = j; o_result = Error d; o_cached = false }, None))
  in
  (* the post-compile gates compose: lint first (static resources), then
     translation validation (static semantics), then the engine
     differential (dynamic); the first failure wins *)
  let apply_gate enabled gate outcome =
    if not enabled then outcome
    else
      match outcome.o_result with
      | Error _ -> outcome
      | Ok (c, _) -> (
          match gate c with
          | None -> outcome
          | Some d ->
              note_error t;
              { outcome with o_result = Error d })
  in
  outcome
  |> apply_gate j.j_lint lint_gate
  |> apply_gate j.j_validate (validate_gate j proof)
  |> apply_gate j.j_diff diff_gate

(* -- the worker pool -------------------------------------------------------------- *)

let canceled_diag =
  {
    Diag.phase = Diag.Internal;
    loc = Msl_util.Loc.dummy;
    message = "canceled: an earlier job failed and the batch is fail-fast";
  }

let run_batch ?domains ?(policy = default_policy) ?(faults = no_faults) t jobs =
  let n_workers =
    match domains with
    | Some n when n < 1 -> invalid_arg "Service.run_batch: domains must be positive"
    | Some n -> n
    | None -> t.n_domains
  in
  let jobs = Array.of_list jobs in
  let results = Array.make (Array.length jobs) None in
  (* Per-job spans carry the queue wait (time between batch submission and
     the moment a worker picked the job up) so a trace shows pool
     contention, not just compile time.  The tid on each event is the
     worker's domain id — Trace stamps it. *)
  let tracing = Trace.enabled () in
  (* monotonic, not wall: a queue wait is a duration.  (Trace keeps its
     own wall-clock t0 for the file epoch — that one must stay wall.) *)
  let t_submit = if tracing then Msl_util.Clock.now_s () else 0.0 in
  let traced i j run =
    if not tracing then run ()
    else begin
      let queue_wait_us = Msl_util.Clock.elapsed_s t_submit *. 1e6 in
      Trace.span_begin ~cat:"service" "job"
        ~args:
          [
            ("id", Trace.A_string j.j_id);
            ("index", Trace.A_int i);
            ("queue_wait_us", Trace.A_float queue_wait_us);
          ];
      let o = run () in
      Trace.span_end ~cat:"service" "job"
        ~args:
          [
            ("cached", Trace.A_bool o.o_cached);
            ("ok", Trace.A_bool (Result.is_ok o.o_result));
          ];
      o
    end
  in
  (* Fail-fast: once any job fails, later pickups are canceled instead of
     run.  Jobs already inside a worker still finish — a domain cannot be
     interrupted — so the flag bounds new work, not in-flight work.
     Every job still gets an outcome either way. *)
  let aborted = Atomic.make false in
  let one i j =
    if (not policy.p_keep_going) && Atomic.get aborted then begin
      note_error t;
      locked t (fun () -> t.canceled <- t.canceled + 1);
      { o_job = j; o_result = Error canceled_diag; o_cached = false }
    end
    else begin
      let o = traced i j (fun () -> compile_job ~policy ~faults t j) in
      if (not policy.p_keep_going) && Result.is_error o.o_result then
        Atomic.set aborted true;
      o
    end
  in
  if n_workers = 1 || Array.length jobs <= 1 then
    Array.iteri (fun i j -> results.(i) <- Some (one i j)) jobs
  else begin
    let queue = Safe_queue.create () in
    Array.iteri
      (fun i j ->
        (* the queue is not closed until after the loop: push accepted *)
        let (_ : bool) = Safe_queue.push queue (i, j) in
        ())
      jobs;
    Safe_queue.close queue;
    let worker () =
      let rec loop () =
        match Safe_queue.pop queue with
        | None -> ()
        | Some (i, j) ->
            (* distinct slots per worker; Domain.join publishes the writes *)
            results.(i) <- Some (one i j);
            loop ()
      in
      loop ()
    in
    let pool =
      List.init
        (min n_workers (Array.length jobs))
        (fun _ -> Domain.spawn worker)
    in
    List.iter Domain.join pool
  end;
  Array.map
    (function
      | Some o -> o
      | None -> assert false (* every index was queued and popped *))
    results

(* -- in-process cached entry points ------------------------------------------------ *)

let cached_value t ~opts_id (d : Desc.t) key compute =
  match probe t ~opts_id ~machine:(fun () -> d) key with
  | Some e -> e
  | None ->
      let e = compute () in
      insert t ~opts_id key e;
      e

let compile_cached t ?(options = Pipeline.default_options)
    ?(use_microops = false) language (d : Desc.t) source =
  let opts_id = options_id options in
  let key =
    (key_of ~kind:"compile"
       ~language:(Toolkit.language_name language)
       ~machine:d.Desc.d_digest ~options:opts_id ~use_microops ~source
      :> string)
  in
  (cached_value t ~opts_id d key (fun () ->
       let c = Toolkit.compile ~options ~use_microops language d source in
       { e_compiled = c; e_listing = Masm.print d c.Toolkit.c_insts }))
    .e_compiled

let assemble_cached t (d : Desc.t) source =
  let key =
    (key_of ~kind:"assemble" ~language:"-" ~machine:d.Desc.d_digest
       ~options:"-" ~use_microops:false ~source
      :> string)
  in
  (cached_value t ~opts_id:"-" d key (fun () ->
       let c = Toolkit.assemble d source in
       { e_compiled = c; e_listing = Masm.print d c.Toolkit.c_insts }))
    .e_compiled

(* -- batch manifests ---------------------------------------------------------------- *)

let manifest_loc file line =
  let pos = { Msl_util.Loc.line; col = 1; offset = 0 } in
  Msl_util.Loc.make ~file ~start_pos:pos ~end_pos:pos

let manifest_error loc fmt = Diag.error ~loc Diag.Parsing fmt

let parse_bool loc key = function
  | "on" | "true" | "yes" -> true
  | "off" | "false" | "no" -> false
  | v -> manifest_error loc "%s expects on/off, got %S" key v

let parse_algo loc = function
  | "sequential" -> Compaction.Sequential
  | "fcfs" -> Compaction.Fcfs
  | "critical-path" | "critical_path" | "critical" -> Compaction.Critical_path
  | "optimal" | "branch-and-bound" -> Compaction.Optimal
  | v -> manifest_error loc "unknown compaction algorithm %S" v

let parse_strategy loc = function
  | "first-fit" | "first_fit" -> Regalloc.First_fit
  | "priority" -> Regalloc.Priority
  | v -> manifest_error loc "unknown allocation strategy %S" v

let parse_option loc (j : job) spec =
  match String.index_opt spec '=' with
  | None -> manifest_error loc "expected key=value, got %S" spec
  | Some i ->
      let key = String.sub spec 0 i in
      let v = String.sub spec (i + 1) (String.length spec - i - 1) in
      let opts = j.j_options in
      let set o = { j with j_options = o } in
      (match String.lowercase_ascii key with
      | "id" -> { j with j_id = v }
      | "algo" -> set { opts with Pipeline.algo = parse_algo loc v }
      | "chain" -> set { opts with Pipeline.chain = parse_bool loc "chain" v }
      | "strategy" ->
          set { opts with Pipeline.strategy = parse_strategy loc v }
      | "pool" ->
          let pool_limit =
            if v = "all" then None
            else
              match int_of_string_opt v with
              | Some n when n > 0 -> Some n
              | _ -> manifest_error loc "pool expects a positive integer or 'all', got %S" v
          in
          set { opts with Pipeline.pool_limit }
      | "poll" -> set { opts with Pipeline.poll = parse_bool loc "poll" v }
      | "trap_safe" | "trapsafe" ->
          set { opts with Pipeline.trap_safe = parse_bool loc "trap_safe" v }
      | "opt" -> (
          match int_of_string_opt v with
          | Some n when n >= 0 ->
              set { opts with Pipeline.opt_level = n }
          | _ ->
              manifest_error loc
                "opt expects a non-negative integer, got %S" v)
      | "bb_budget" | "bb-budget" -> (
          match int_of_string_opt v with
          | Some n when n > 0 -> set { opts with Pipeline.bb_budget = n }
          | _ ->
              manifest_error loc "bb_budget expects a positive integer, got %S"
                v)
      | "superopt" ->
          set { opts with Pipeline.superopt = parse_bool loc "superopt" v }
      | "microops" ->
          { j with j_use_microops = parse_bool loc "microops" v }
      | "lint" -> { j with j_lint = parse_bool loc "lint" v }
      | "diff" -> { j with j_diff = parse_bool loc "diff" v }
      | "validate" -> { j with j_validate = parse_bool loc "validate" v }
      | k -> manifest_error loc "unknown manifest option %S" k)

let parse_manifest ?(file = "<manifest>") ~load text =
  let lines = String.split_on_char '\n' text in
  let parse_line lineno line =
    let loc = manifest_loc file lineno in
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    match
      String.split_on_char ' ' line
      |> List.concat_map (String.split_on_char '\t')
      |> List.filter (fun s -> s <> "")
    with
    | [] -> None
    | lang :: machine :: path :: opts ->
        let language =
          try Toolkit.language_of_string lang
          with Invalid_argument msg -> manifest_error loc "%s" msg
        in
        (* validate the machine name at parse time, keep only the name *)
        let machine =
          match Machines.find machine with
          | Some d -> d.Desc.d_name
          | None -> manifest_error loc "unknown machine %S" machine
        in
        let source =
          try load path
          with Sys_error msg -> manifest_error loc "cannot read %S: %s" path msg
        in
        let base =
          job ~id:(Printf.sprintf "%s@%s" path (String.lowercase_ascii machine))
            language ~machine ~source
        in
        Some (List.fold_left (parse_option loc) base opts)
    | _ ->
        manifest_error loc
          "manifest line needs '<language> <machine> <path> [key=value ...]'"
  in
  List.mapi (fun i line -> parse_line (i + 1) line) lines
  |> List.filter_map Fun.id
