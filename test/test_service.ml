(* The batch-compilation service: determinism across domain counts and
   cache temperature, cache bookkeeping, eviction, manifest parsing, and
   a concurrent hammer on overlapping keys.

   The service's contract is that it never changes a result — only when
   it is recomputed.  So every test here compares against the same jobs
   run through Toolkit.compile sequentially, byte for byte. *)

open Msl_machine
module Core = Msl_core
module Service = Msl_core.Service
module Toolkit = Msl_core.Toolkit
module Pipeline = Msl_mir.Pipeline
module Compaction = Msl_mir.Compaction
module Diag = Msl_util.Diag

(* A mixed job list: YALLL corpus programs on three machines, EMPL
   pressure programs through the allocator, SIMPL with option variants. *)
let jobs () =
  let yalll =
    List.concat_map
      (fun machine ->
        List.init 4 (fun i ->
            Service.job
              ~id:(Printf.sprintf "y%d@%s" i machine)
              Toolkit.Yalll ~machine
              ~source:(Core.Workloads.yalll_program ~seed:(i + 1) ~len:16)))
      [ "hp3"; "v11"; "b17" ]
  in
  let empl =
    List.init 4 (fun i ->
        Service.job
          ~id:(Printf.sprintf "e%d" i)
          Toolkit.Empl ~machine:"hp3"
          ~source:
            (Core.Workloads.pressure_program ~seed:(i + 1) ~nvars:8 ~nops:12))
  in
  let simpl =
    List.map
      (fun (id, options) ->
        Service.job ~id ~options Toolkit.Simpl ~machine:"hp3"
          ~source:"begin 25 -> R1; 0 -> R2; while R1 <> 0 do begin R2 + R1 \
                   -> R2; R1 - 1 -> R1; end; end")
      [
        ("s-default", Pipeline.default_options);
        ("s-seq", { Pipeline.default_options with algo = Compaction.Sequential });
        ("s-fcfs", { Pipeline.default_options with algo = Compaction.Fcfs });
      ]
  in
  yalll @ empl @ simpl

(* The sequential ground truth: Toolkit.compile, no service involved. *)
let reference_listings js =
  List.map
    (fun (j : Service.job) ->
      let d = Machines.get j.Service.j_machine in
      let c =
        Toolkit.compile ~options:j.Service.j_options
          ~use_microops:j.Service.j_use_microops j.Service.j_language d
          j.Service.j_source
      in
      (Masm.print d c.Toolkit.c_insts, (c.Toolkit.c_words, c.Toolkit.c_ops, c.Toolkit.c_bits)))
    js

let outcome_listings outcomes =
  Array.to_list outcomes
  |> List.map (fun (o : Service.outcome) ->
         match o.Service.o_result with
         | Ok (c, listing) ->
             (listing, (c.Toolkit.c_words, c.Toolkit.c_ops, c.Toolkit.c_bits))
         | Error d -> Alcotest.failf "job %s failed: %s" o.Service.o_job.Service.j_id (Diag.to_string d))

let check_identical what expected got =
  Alcotest.(check (list (pair string (triple int int int)))) what expected got

let test_batch_matches_sequential () =
  let js = jobs () in
  let expected = reference_listings js in
  let s = Service.create ~domains:1 () in
  check_identical "1 domain, cold cache" expected
    (outcome_listings (Service.run_batch s js))

let test_domain_count_invariance () =
  let js = jobs () in
  let expected = reference_listings js in
  let one = Service.create ~domains:1 () in
  let four = Service.create ~domains:4 () in
  let got1 = outcome_listings (Service.run_batch one js) in
  let got4 = outcome_listings (Service.run_batch four js) in
  check_identical "1 domain" expected got1;
  check_identical "4 domains" expected got4

let test_warm_cache_invariance () =
  let js = jobs () in
  let expected = reference_listings js in
  let s = Service.create ~domains:1 () in
  ignore (Service.run_batch s js);
  (* second pass: everything served from the cache, bytes unchanged *)
  let warm = Service.run_batch s js in
  check_identical "warm cache" expected (outcome_listings warm);
  Array.iter
    (fun (o : Service.outcome) ->
      Alcotest.(check bool)
        (o.Service.o_job.Service.j_id ^ " served warm")
        true o.Service.o_cached)
    warm;
  let st = Service.stats s in
  Alcotest.(check int) "hits cover the second pass" (List.length js)
    st.Service.st_hits

let test_stats_accounting () =
  let js = jobs () in
  let s = Service.create ~domains:1 () in
  ignore (Service.run_batch s js);
  let st = Service.stats s in
  Alcotest.(check int) "every job probed" (List.length js) st.Service.st_jobs;
  Alcotest.(check int) "probes split hit/miss" st.Service.st_jobs
    (st.Service.st_hits + st.Service.st_misses);
  Alcotest.(check int) "no errors" 0 st.Service.st_errors;
  Alcotest.(check int) "distinct keys cached"
    st.Service.st_misses st.Service.st_entries;
  Service.clear s;
  let st = Service.stats s in
  Alcotest.(check int) "clear zeroes entries" 0 st.Service.st_entries;
  Alcotest.(check int) "clear zeroes probes" 0 st.Service.st_jobs

let test_eviction () =
  let s = Service.create ~domains:1 ~capacity:3 () in
  let js =
    List.init 6 (fun i ->
        Service.job
          ~id:(Printf.sprintf "v%d" i)
          Toolkit.Yalll ~machine:"hp3"
          ~source:(Core.Workloads.yalll_program ~seed:(100 + i) ~len:8))
  in
  ignore (Service.run_batch s js);
  ignore (Service.run_batch s js);
  let st = Service.stats s in
  Alcotest.(check bool) "evictions happened" true (st.Service.st_evictions > 0);
  Alcotest.(check bool) "capacity respected" true (st.Service.st_entries <= 3);
  (* and results are still the sequential ones *)
  check_identical "post-eviction results" (reference_listings js)
    (outcome_listings (Service.run_batch s js))

(* Hammer one cache from four domains with heavily overlapping keys: 64
   jobs over 4 distinct sources.  Exercises probe/insert races; the
   accounting below only holds if no probe or insertion was lost. *)
let test_concurrent_hammer () =
  let sources =
    List.init 4 (fun i -> Core.Workloads.yalll_program ~seed:(i + 1) ~len:12)
  in
  let js =
    List.init 64 (fun i ->
        Service.job
          ~id:(Printf.sprintf "h%02d" i)
          Toolkit.Yalll ~machine:"hp3"
          ~source:(List.nth sources (i mod 4)))
  in
  let expected = reference_listings js in
  let s = Service.create () in
  let got = Service.run_batch ~domains:4 s js in
  check_identical "hammered results" expected (outcome_listings got);
  let st = Service.stats s in
  Alcotest.(check int) "no probe lost" 64 st.Service.st_jobs;
  Alcotest.(check int) "hits + misses = probes" 64
    (st.Service.st_hits + st.Service.st_misses);
  (* racing domains may each miss the same fresh key, but never more
     often than once per job, and all four keys must end up cached *)
  Alcotest.(check bool) "at least one miss per key" true
    (st.Service.st_misses >= 4);
  Alcotest.(check int) "all four keys cached" 4 st.Service.st_entries

let test_error_outcome () =
  let s = Service.create ~domains:1 () in
  let js =
    [
      Service.job ~id:"bad-src" Toolkit.Yalll ~machine:"hp3" ~source:"&&&\n";
      Service.job ~id:"bad-machine" Toolkit.Yalll ~machine:"nosuch"
        ~source:"reg a\nexit\n";
      Service.job ~id:"good" Toolkit.Yalll ~machine:"hp3"
        ~source:(Core.Workloads.yalll_program ~seed:1 ~len:4);
    ]
  in
  let out = Service.run_batch s js in
  (match out.(0).Service.o_result with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "syntax error must surface as a diagnostic");
  (match out.(1).Service.o_result with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown machine must surface as a diagnostic");
  (match out.(2).Service.o_result with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "good job failed: %s" (Diag.to_string d));
  let st = Service.stats s in
  Alcotest.(check int) "two errors counted" 2 st.Service.st_errors;
  (* errors are not cached: a retry recompiles *)
  let again = Service.run_batch s js in
  Alcotest.(check bool) "error retried, not served warm" false
    again.(0).Service.o_cached

(* -- the exception firewall, retries, deadlines, fail-fast ------------------- *)

let small_jobs n =
  List.init n (fun i ->
      Service.job
        ~id:(Printf.sprintf "fw%d" i)
        Toolkit.Yalll ~machine:"hp3"
        ~source:(Core.Workloads.yalll_program ~seed:(200 + i) ~len:6))

let test_capture_firewall () =
  (match Toolkit.capture (fun () -> 42) with
  | Ok v -> Alcotest.(check int) "value through" 42 v
  | Error _ -> Alcotest.fail "no error expected");
  (match Toolkit.capture (fun () -> failwith "boom") with
  | Error d ->
      Alcotest.(check bool) "internal phase" true (d.Diag.phase = Diag.Internal);
      Alcotest.(check bool) "exception text carried" true
        (String.length d.Diag.message >= 4)
  | Ok _ -> Alcotest.fail "raise must be captured");
  match Toolkit.capture (fun () -> Diag.error Diag.Parsing "structured") with
  | Error d ->
      Alcotest.(check bool) "diag passed through" true
        (d.Diag.phase = Diag.Parsing)
  | Ok _ -> Alcotest.fail "diagnostic must be captured"

(* Every attempt raises and there are no retries: the batch must still
   produce one outcome per job — each a structured internal-error
   diagnostic — instead of dying through Domain.join. *)
let test_firewall_confines_crashes () =
  let js = small_jobs 6 in
  let s = Service.create () in
  let faults =
    { Service.f_seed = 1; f_raise = 1.0; f_delay = 0.0; f_delay_ms = 0.0 }
  in
  let out = Service.run_batch ~domains:3 ~faults s js in
  Alcotest.(check int) "one outcome per job" 6 (Array.length out);
  Array.iter
    (fun (o : Service.outcome) ->
      match o.Service.o_result with
      | Error d ->
          Alcotest.(check bool) "internal finding" true
            (d.Diag.phase = Diag.Internal)
      | Ok _ -> Alcotest.fail "every attempt was made to raise")
    out;
  let st = Service.stats s in
  Alcotest.(check int) "every job an error" 6 st.Service.st_errors;
  Alcotest.(check int) "every crash counted" 6 st.Service.st_internal;
  Alcotest.(check int) "no retries without a policy" 0 st.Service.st_retries

(* Crashes at p=0.5 with retries enabled: the whole batch must recover,
   producing results byte-identical to fault-free sequential compiles. *)
let test_retries_recover () =
  let js = small_jobs 8 in
  let expected = reference_listings js in
  let s = Service.create () in
  let policy =
    { Service.default_policy with Service.p_retries = 12; p_backoff_ms = 0.1 }
  in
  let faults =
    { Service.f_seed = 7; f_raise = 0.5; f_delay = 0.0; f_delay_ms = 0.0 }
  in
  let out = Service.run_batch ~domains:3 ~policy ~faults s js in
  check_identical "recovered results" expected (outcome_listings out);
  let st = Service.stats s in
  Alcotest.(check bool) "some attempts crashed" true (st.Service.st_internal > 0);
  Alcotest.(check bool) "crashes were retried" true (st.Service.st_retries > 0);
  Alcotest.(check int) "no job left failed" 0 st.Service.st_errors

(* A structured compile error is deterministic: retrying it would fail
   identically, so the policy must not burn attempts on it. *)
let test_diagnostics_not_retried () =
  let s = Service.create ~domains:1 () in
  let policy = { Service.default_policy with Service.p_retries = 5 } in
  let out =
    Service.run_batch ~policy s
      [ Service.job ~id:"bad" Toolkit.Yalll ~machine:"hp3" ~source:"&&&\n" ]
  in
  (match out.(0).Service.o_result with
  | Error d ->
      Alcotest.(check bool) "still the parse diagnostic" true
        (d.Diag.phase = Diag.Parsing)
  | Ok _ -> Alcotest.fail "bad source must fail");
  let st = Service.stats s in
  Alcotest.(check int) "no retries" 0 st.Service.st_retries;
  Alcotest.(check int) "no internal errors" 0 st.Service.st_internal

let test_deadline_overrun () =
  let s = Service.create ~domains:1 () in
  let policy =
    { Service.default_policy with Service.p_deadline_ms = Some 5.0 }
  in
  let faults =
    { Service.f_seed = 1; f_raise = 0.0; f_delay = 1.0; f_delay_ms = 30.0 }
  in
  let out = Service.run_batch ~policy ~faults s (small_jobs 2) in
  Array.iter
    (fun (o : Service.outcome) ->
      match o.Service.o_result with
      | Error d ->
          Alcotest.(check bool) "internal finding" true
            (d.Diag.phase = Diag.Internal);
          Alcotest.(check bool) "says deadline" true
            (String.length d.Diag.message >= 8
            && String.sub d.Diag.message 0 8 = "deadline")
      | Ok _ -> Alcotest.fail "30 ms of injected delay over a 5 ms budget")
    out;
  let st = Service.stats s in
  Alcotest.(check int) "deadline failures counted" 2 st.Service.st_deadline;
  (* overrun results are discarded, never cached late *)
  Alcotest.(check int) "nothing cached" 0 st.Service.st_entries

let test_fail_fast () =
  let good i =
    Service.job
      ~id:(Printf.sprintf "g%d" i)
      Toolkit.Yalll ~machine:"hp3"
      ~source:(Core.Workloads.yalll_program ~seed:(300 + i) ~len:4)
  in
  let js =
    [ Service.job ~id:"bad" Toolkit.Yalll ~machine:"hp3" ~source:"&&&\n";
      good 1; good 2 ]
  in
  (* keep-going (the default): the failure does not stop the others *)
  let s = Service.create ~domains:1 () in
  let out = Service.run_batch s js in
  Alcotest.(check bool) "job 1 ran" true (Result.is_ok out.(1).Service.o_result);
  Alcotest.(check bool) "job 2 ran" true (Result.is_ok out.(2).Service.o_result);
  (* fail-fast: with one domain the pickup order is the job order, so
     both later jobs are deterministically canceled *)
  let s = Service.create ~domains:1 () in
  let policy = { Service.default_policy with Service.p_keep_going = false } in
  let out = Service.run_batch ~policy s js in
  (match out.(0).Service.o_result with
  | Error d ->
      Alcotest.(check bool) "original failure kept" true
        (d.Diag.phase = Diag.Parsing)
  | Ok _ -> Alcotest.fail "bad source must fail");
  Array.iter
    (fun i ->
      match out.(i).Service.o_result with
      | Error d ->
          Alcotest.(check bool)
            (Printf.sprintf "job %d canceled" i)
            true
            (d.Diag.phase = Diag.Internal
            && String.length d.Diag.message >= 8
            && String.sub d.Diag.message 0 8 = "canceled")
      | Ok _ -> Alcotest.failf "job %d must be canceled" i)
    [| 1; 2 |];
  let st = Service.stats s in
  Alcotest.(check int) "canceled counted" 2 st.Service.st_canceled;
  Alcotest.(check int) "all three errors" 3 st.Service.st_errors;
  Alcotest.(check int) "canceled jobs never probed" 1 st.Service.st_jobs

(* -- the persistent disk layer ----------------------------------------------- *)

let with_cache_dir f =
  let dir = Filename.temp_dir "msl-service-test" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name ->
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* distinct sources only, so the disk-hit accounting below is exact *)
let disk_jobs ?(n = 6) () =
  List.init n (fun i ->
      Service.job
        ~id:(Printf.sprintf "d%d" i)
        Toolkit.Yalll ~machine:"hp3"
        ~source:(Core.Workloads.yalll_program ~seed:(400 + i) ~len:8))

let test_disk_survives_restart () =
  with_cache_dir (fun dir ->
      let js = disk_jobs () in
      let expected = reference_listings js in
      let s1 = Service.create ~domains:1 ~cache_dir:dir () in
      check_identical "cold populate" expected
        (outcome_listings (Service.run_batch s1 js));
      let st1 = Service.stats s1 in
      Alcotest.(check int) "every miss stored" 6 st1.Service.st_disk_stores;
      Alcotest.(check int) "no disk hits cold" 0 st1.Service.st_disk_hits;
      (* a brand-new service on the same directory models a process
         restart: everything must come back from disk, byte-identical *)
      let s2 = Service.create ~domains:1 ~cache_dir:dir () in
      let out = Service.run_batch s2 js in
      check_identical "served from disk" expected (outcome_listings out);
      Array.iter
        (fun (o : Service.outcome) ->
          Alcotest.(check bool) "reported cached" true o.Service.o_cached)
        out;
      let st2 = Service.stats s2 in
      Alcotest.(check int) "all from disk" 6 st2.Service.st_disk_hits;
      Alcotest.(check int) "disk hits are hits" 6 st2.Service.st_hits;
      Alcotest.(check int) "no recompiles" 0 st2.Service.st_misses;
      Alcotest.(check int) "no rewrites" 0 st2.Service.st_disk_stores)

let manifest_jobs () =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  Service.parse_manifest
    ~load:(fun p -> read (Filename.concat ".." p))
    (read "../examples/batch.manifest")

(* A disk hit is relinked against the registry's description: no copy of
   the machine comes back from the file, every op points at one of the
   machine's own templates, and the program is the cold compile's in
   every observable — counts, listing, and the state both engines leave
   behind. *)
let test_disk_relinks_to_registry () =
  with_cache_dir (fun dir ->
      let js = manifest_jobs () in
      let cold =
        Service.run_batch (Service.create ~domains:1 ~cache_dir:dir ()) js
      in
      let warm_service = Service.create ~domains:1 ~cache_dir:dir () in
      let warm = Service.run_batch warm_service js in
      Alcotest.(check int) "nothing recompiled" 0
        (Service.stats warm_service).Service.st_misses;
      let final_state engine c =
        match
          Toolkit.capture (fun () ->
              let sim, status = Toolkit.run_status ~engine ~fuel:200_000 c in
              (status = Sim.Halted, Sim.state_digest sim))
        with
        | Ok (halted, digest) -> Printf.sprintf "halted=%b\n%s" halted digest
        | Error d -> Diag.to_string d
      in
      Array.iteri
        (fun i (w : Service.outcome) ->
          let id = w.Service.o_job.Service.j_id in
          match (cold.(i).Service.o_result, w.Service.o_result) with
          | Ok (cc, cl), Ok (wc, wl) ->
              let d = Machines.get w.Service.o_job.Service.j_machine in
              Alcotest.(check bool) (id ^ " served warm") true w.Service.o_cached;
              Alcotest.(check bool)
                (id ^ " machine is the registry's") true
                (wc.Toolkit.c_machine == d);
              List.iter
                (fun (inst : Inst.t) ->
                  List.iter
                    (fun (op : Inst.op) ->
                      if
                        not
                          (Array.exists (( == ) op.Inst.op_t) d.Desc.d_templates)
                      then
                        Alcotest.failf "%s: op %s is not the machine's template"
                          id op.Inst.op_t.Desc.t_name)
                    inst.Inst.ops)
                wc.Toolkit.c_insts;
              Alcotest.(check (triple int int int))
                (id ^ " words, ops, bits")
                (cc.Toolkit.c_words, cc.Toolkit.c_ops, cc.Toolkit.c_bits)
                (wc.Toolkit.c_words, wc.Toolkit.c_ops, wc.Toolkit.c_bits);
              Alcotest.(check string) (id ^ " listing") cl wl;
              List.iter
                (fun engine ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s state on %s" id
                       (Toolkit.engine_name engine))
                    (final_state engine cc) (final_state engine wc))
                [ Toolkit.Interp; Toolkit.Compiled ]
          | _ -> Alcotest.failf "%s failed" id)
        warm)

(* The shape of a format-1 entry: the whole compiled program, machine
   description included. *)
type v1_entry = { v1_compiled : Toolkit.compiled; v1_listing : string }

(* Corrupt entries — truncation, garbage, a stale or foreign header, a
   file of the old format, another machine's digest, a template index
   the machine does not have — must read as misses that recompile and
   heal the file, never as wrong results or exceptions. *)
let test_disk_corruption_tolerated () =
  with_cache_dir (fun dir ->
      let js = disk_jobs ~n:9 () in
      let expected = reference_listings js in
      let s1 = Service.create ~domains:1 ~cache_dir:dir () in
      ignore (Service.run_batch s1 js);
      let files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".mslc")
        |> List.sort compare
      in
      Alcotest.(check int) "one file per entry" 9 (List.length files);
      let path i = Filename.concat dir (List.nth files i) in
      let clobber i content =
        let oc = open_out_bin (path i) in
        output_string oc content;
        close_out oc
      in
      let header i = In_channel.with_open_bin (path i) input_line in
      let hp3 = Machines.hp3 in
      (* the program behind entry file [i], compiled afresh *)
      let compiled_of i =
        let j =
          List.find
            (fun j ->
              Digest.to_hex (Service.cache_key j :> string) ^ ".mslc"
              = List.nth files i)
            js
        in
        Toolkit.compile Toolkit.Yalll hp3 j.Service.j_source
      in
      clobber 0 "";  (* empty file *)
      clobber 1 "total garbage, not even a header\n\xff\xfe";
      clobber 2 "msl-cache 999 future-version -\ngarbage";  (* wrong header *)
      (* keep a valid header but truncate the marshalled payload *)
      clobber 3 (header 3 ^ "\n\000\000");
      (* a format-1 file: its header and its machine-carrying payload *)
      (let c = compiled_of 4 in
       clobber 4
         (Printf.sprintf "msl-cache 1 %s %s\n" Sys.ocaml_version
            (Pipeline.options_id Pipeline.default_options)
         ^ Marshal.to_string
             { v1_compiled = c; v1_listing = Masm.print hp3 c.Toolkit.c_insts }
             []));
      (* an intact payload under a header naming another machine *)
      (let h = header 5 in
       let all = In_channel.with_open_bin (path 5) In_channel.input_all in
       let payload =
         String.sub all (String.length h) (String.length all - String.length h)
       in
       let swap w =
         if w = hp3.Desc.d_digest then Machines.h1.Desc.d_digest else w
       in
       let h' = String.split_on_char ' ' h |> List.map swap |> String.concat " " in
       Alcotest.(check bool) "the header names hp3" true (h' <> h);
       clobber 5 (h' ^ payload));
      (* a valid header over a payload whose ops name a template past the
         end of the machine's *)
      (let c = compiled_of 6 in
       let u = Toolkit.unlink c in
       let past = Array.length hp3.Desc.d_templates in
       let bad =
         {
           u with
           Toolkit.u_insts =
             List.map
               (fun (ops, next) -> (List.map (fun (_, a) -> (past, a)) ops, next))
               u.Toolkit.u_insts;
         }
       in
       Alcotest.(check bool) "the program has ops" true (c.Toolkit.c_ops > 0);
       clobber 6
         (header 6 ^ "\n"
         ^ Marshal.to_string
             ((bad, Masm.print hp3 c.Toolkit.c_insts)
               : Toolkit.unlinked * string)
             []));
      let s2 = Service.create ~domains:1 ~cache_dir:dir () in
      let out = Service.run_batch s2 js in
      check_identical "corruption never changes results" expected
        (outcome_listings out);
      let st = Service.stats s2 in
      Alcotest.(check int) "intact entries hit" 2 st.Service.st_disk_hits;
      Alcotest.(check int) "corrupt entries recompiled" 7 st.Service.st_misses;
      Alcotest.(check int) "corrupt entries healed" 7 st.Service.st_disk_stores;
      (* healed: one more restart now hits everything *)
      let s3 = Service.create ~domains:1 ~cache_dir:dir () in
      ignore (Service.run_batch s3 js);
      Alcotest.(check int) "all healed" 9 (Service.stats s3).Service.st_disk_hits)

(* A crash between the tmp write and the rename strands a
   *.tmp.<pid>.<domain> file; Service.create must sweep the ones whose
   writer is dead and leave everything else — live writers' tmp files
   and completed entries — alone. *)
let test_stale_tmp_sweep () =
  with_cache_dir (fun dir ->
      let js = disk_jobs () in
      let s1 = Service.create ~domains:1 ~cache_dir:dir () in
      ignore (Service.run_batch s1 js);
      (* a pid that is certainly dead: a just-reaped child *)
      let dead_pid =
        let pid =
          Unix.create_process "true" [| "true" |] Unix.stdin Unix.stdout
            Unix.stderr
        in
        ignore (Unix.waitpid [] pid);
        pid
      in
      let plant name = close_out (open_out_bin (Filename.concat dir name)) in
      let stale1 = Printf.sprintf "abc123.mslc.tmp.%d.0" dead_pid in
      let stale2 = Printf.sprintf "def456.msso.tmp.%d.3" dead_pid in
      let live = Printf.sprintf "ghi789.mslc.tmp.%d.0" (Unix.getpid ()) in
      let odd = "notatmpfile.tmp.not.numeric" in
      plant stale1;
      plant stale2;
      plant live;
      plant odd;
      let s2 = Service.create ~domains:1 ~cache_dir:dir () in
      let present name = Sys.file_exists (Filename.concat dir name) in
      Alcotest.(check bool) "dead-pid tmp swept" false (present stale1);
      Alcotest.(check bool) "dead-pid memo tmp swept" false (present stale2);
      Alcotest.(check bool) "live-pid tmp kept" true (present live);
      Alcotest.(check bool) "non-tmp-pattern kept" true (present odd);
      (* the valid entries survived the sweep: everything hits *)
      ignore (Service.run_batch s2 js);
      let st = Service.stats s2 in
      Alcotest.(check int) "entries intact after sweep" 6
        st.Service.st_disk_hits;
      Alcotest.(check int) "nothing recompiled" 0 st.Service.st_misses)

(* Satellite: N domains hammering a small key set, with the persistent
   layer in play and a memory cache far smaller than the key set — the
   stats invariants must hold under eviction/promote/store races. *)
let test_multidomain_disk_stress () =
  with_cache_dir (fun dir ->
      let sources =
        List.init 4 (fun i -> Core.Workloads.yalll_program ~seed:(i + 1) ~len:8)
      in
      let js =
        List.init 96 (fun i ->
            Service.job
              ~id:(Printf.sprintf "sd%02d" i)
              Toolkit.Yalll ~machine:"hp3"
              ~source:(List.nth sources (i mod 4)))
      in
      let expected = reference_listings js in
      let s = Service.create ~capacity:2 ~cache_dir:dir () in
      let out = Service.run_batch ~domains:6 s js in
      check_identical "stressed results" expected (outcome_listings out);
      let st = Service.stats s in
      Alcotest.(check int) "no probe lost" 96 st.Service.st_jobs;
      Alcotest.(check int) "hits + misses = jobs" 96
        (st.Service.st_hits + st.Service.st_misses);
      Alcotest.(check bool) "entries bounded by capacity" true
        (st.Service.st_entries <= 2);
      Alcotest.(check bool) "evictions bounded by insertions" true
        (st.Service.st_entries + st.Service.st_evictions
        <= st.Service.st_misses + st.Service.st_disk_hits);
      Alcotest.(check int) "no errors under stress" 0 st.Service.st_errors)

(* -- eviction accounting (FIFO re-insert regression) -------------------------- *)

(* Re-proving the FIFO queue bookkeeping: keys re-inserted after probes,
   hits and evictions must neither inflate the eviction count nor evict
   a live entry early.  Deterministic with one domain, so the counts are
   pinned exactly. *)
let test_eviction_accounting_exact () =
  let key i =
    Service.job
      ~id:(Printf.sprintf "k%d" i)
      Toolkit.Yalll ~machine:"hp3"
      ~source:(Core.Workloads.yalll_program ~seed:(500 + i) ~len:6)
  in
  let a = key 0 and b = key 1 and c = key 2 and d = key 3 in
  let round = [ a; a; b; b; c; c; d; d ] in
  let s = Service.create ~domains:1 ~capacity:3 () in
  ignore (Service.run_batch s round);
  let st = Service.stats s in
  (* A B C fill the cache; D evicts A; each duplicate hits *)
  Alcotest.(check int) "round 1: one eviction" 1 st.Service.st_evictions;
  Alcotest.(check int) "round 1: four hits" 4 st.Service.st_hits;
  Alcotest.(check int) "round 1: full" 3 st.Service.st_entries;
  ignore (Service.run_batch s round);
  let st = Service.stats s in
  (* every key comes back around: 4 more misses, 4 more evictions *)
  Alcotest.(check int) "round 2: five total" 5 st.Service.st_evictions;
  Alcotest.(check int) "round 2: eight hits" 8 st.Service.st_hits;
  Alcotest.(check int) "round 2: still full" 3 st.Service.st_entries;
  (* the survivors are exactly the last three inserted: B C D live *)
  let out = Service.run_batch s [ b; c; d ] in
  Array.iter
    (fun (o : Service.outcome) ->
      Alcotest.(check bool)
        (o.Service.o_job.Service.j_id ^ " survived")
        true o.Service.o_cached)
    out;
  (* the stated bound is strict at every capacity: a capacity-1 cache
     holds exactly one entry — the newest — never a transient second *)
  let s1 = Service.create ~domains:1 ~capacity:1 () in
  ignore (Service.run_batch s1 [ a; b; c ]);
  let st = Service.stats s1 in
  Alcotest.(check int) "capacity 1: one entry" 1 st.Service.st_entries;
  Alcotest.(check int) "capacity 1: two evictions" 2 st.Service.st_evictions;
  let out = Service.run_batch s1 [ c ] in
  Alcotest.(check bool) "capacity 1: newest survives" true
    out.(0).Service.o_cached;
  let out = Service.run_batch s1 [ b ] in
  Alcotest.(check bool) "capacity 1: older was evicted" false
    out.(0).Service.o_cached

(* -- cache keys ------------------------------------------------------------- *)

let test_cache_key_sensitivity () =
  let base =
    Service.job Toolkit.Yalll ~machine:"hp3" ~source:"reg a\nexit\n"
  in
  let k = Service.cache_key base in
  let differs what j =
    Alcotest.(check bool) (what ^ " changes the key") false
      (Msl_util.Fingerprint.equal k (Service.cache_key j))
  in
  differs "source" { base with Service.j_source = "reg a\nexit a\n" };
  differs "machine" { base with Service.j_machine = "b17" };
  differs "language" { base with Service.j_language = Toolkit.Simpl };
  differs "microops" { base with Service.j_use_microops = true };
  differs "compaction algorithm"
    {
      base with
      Service.j_options =
        { Pipeline.default_options with algo = Compaction.Fcfs };
    };
  differs "chaining"
    {
      base with
      Service.j_options = { Pipeline.default_options with chain = false };
    };
  (* ... while the id is a label, not an input *)
  Alcotest.(check bool) "id does not change the key" true
    (Msl_util.Fingerprint.equal k
       (Service.cache_key { base with Service.j_id = "renamed" }))

(* The in-process entry points key on the description's digest, not its
   name: HP3 with a slower memory is a different machine that happens to
   share the name, and must get its own compile. *)
let test_same_name_distinct_machines () =
  let svc = Service.create ~domains:1 () in
  let source =
    In_channel.with_open_bin "../examples/sum_loop.yll" In_channel.input_all
  in
  let slow =
    Mdesc.to_source Machines.hp3
    |> String.split_on_char '\n'
    |> List.map (fun l ->
           if String.trim l = "mem_extra 1" then "  mem_extra 2" else l)
    |> String.concat "\n"
    |> Mdesc.parse ~file:"hp3.mdesc"
  in
  Alcotest.(check string) "same name" Machines.hp3.Desc.d_name slow.Desc.d_name;
  let c = Service.compile_cached svc Toolkit.Yalll Machines.hp3 source in
  let c' = Service.compile_cached svc Toolkit.Yalll slow source in
  Alcotest.(check bool) "first compile is on hp3" true
    (c.Toolkit.c_machine == Machines.hp3);
  Alcotest.(check bool) "second compile is on the variant" true
    (c'.Toolkit.c_machine == slow);
  Alcotest.(check int) "both were misses" 2
    (Service.stats svc).Service.st_misses

(* The options half of the key is Pipeline.options_id, an exhaustive
   record-to-string: vary every single field of Pipeline.options and
   check no two of the resulting records share a cache key.  This is
   the regression test for the hand-enumerated id that silently dropped
   newly added fields. *)
let test_options_key_exhaustive () =
  let base = Pipeline.default_options in
  (* the id is in every cache key and disk header: its text is pinned *)
  Alcotest.(check string) "default options id"
    "algo=critical-path;chain=true;strategy=priority;pool=all;poll=false;\
     trap_safe=false;opt=1;bb=300000;superopt=false"
    (Pipeline.options_id base);
  Alcotest.(check string) "every field off its default"
    "algo=branch-and-bound;chain=false;strategy=first-fit;pool=4;poll=true;\
     trap_safe=true;opt=2;bb=7;superopt=true"
    (Pipeline.options_id
       {
         Pipeline.algo = Compaction.Optimal;
         chain = false;
         strategy = Msl_mir.Regalloc.First_fit;
         pool_limit = Some 4;
         poll = true;
         trap_safe = true;
         opt_level = 2;
         bb_budget = 7;
         superopt = true;
       });
  let variants =
    [
      ("default", base);
      ("algo", { base with Pipeline.algo = Compaction.Optimal });
      ("chain", { base with Pipeline.chain = false });
      ("strategy", { base with Pipeline.strategy = Msl_mir.Regalloc.First_fit });
      ("pool_limit", { base with Pipeline.pool_limit = Some 4 });
      ("poll", { base with Pipeline.poll = true });
      ("trap_safe", { base with Pipeline.trap_safe = true });
      ("opt_level", { base with Pipeline.opt_level = 0 });
      ("bb_budget", { base with Pipeline.bb_budget = 7 });
      ("superopt", { base with Pipeline.superopt = true });
    ]
  in
  let key options =
    Service.cache_key
      (Service.job ~options Toolkit.Yalll ~machine:"hp3"
         ~source:"reg a\nexit\n")
  in
  List.iteri
    (fun i (ni, oi) ->
      List.iteri
        (fun j (nj, oj) ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "%s and %s share no key" ni nj)
              false
              (Msl_util.Fingerprint.equal (key oi) (key oj)))
        variants)
    variants

(* -- manifests ----------------------------------------------------------------- *)

let mem_load = function
  | "a.yll" -> "reg a\nexit\n"
  | "b.simpl" -> "begin 1 -> R1; end"
  | path -> raise (Sys_error (path ^ ": no such test source"))

let test_manifest_parse () =
  let text =
    "# a comment\n\
     \n\
     yalll hp3 a.yll\n\
     simpl b17 b.simpl algo=fcfs chain=off id=renamed pool=4\n\
     empl hp3 a.yll strategy=first-fit trap_safe=on microops=on  # trailing\n\
     yalll hp3 a.yll algo=optimal bb_budget=123\n"
  in
  let js = Service.parse_manifest ~load:mem_load text in
  Alcotest.(check int) "four jobs" 4 (List.length js);
  let j1 = List.nth js 0 and j2 = List.nth js 1 and j3 = List.nth js 2 in
  Alcotest.(check string) "default id" "a.yll@hp3" j1.Service.j_id;
  Alcotest.(check string) "machine canonicalised" "B17" j2.Service.j_machine;
  Alcotest.(check string) "id override" "renamed" j2.Service.j_id;
  Alcotest.(check bool) "algo parsed" true
    (j2.Service.j_options.Pipeline.algo = Compaction.Fcfs);
  Alcotest.(check bool) "chain parsed" false j2.Service.j_options.Pipeline.chain;
  Alcotest.(check (option int)) "pool parsed" (Some 4)
    j2.Service.j_options.Pipeline.pool_limit;
  Alcotest.(check bool) "strategy parsed" true
    (j3.Service.j_options.Pipeline.strategy = Msl_mir.Regalloc.First_fit);
  Alcotest.(check bool) "trap_safe parsed" true
    j3.Service.j_options.Pipeline.trap_safe;
  Alcotest.(check bool) "microops parsed" true j3.Service.j_use_microops;
  let j4 = List.nth js 3 in
  Alcotest.(check int) "bb_budget parsed" 123
    j4.Service.j_options.Pipeline.bb_budget

let test_manifest_errors () =
  let rejects what text =
    match Service.parse_manifest ~load:mem_load text with
    | exception Diag.Error d ->
        Alcotest.(check bool)
          (what ^ " is a parsing diagnostic")
          true
          (d.Diag.phase = Diag.Parsing)
    | _ -> Alcotest.failf "%s: expected a diagnostic" what
  in
  rejects "short line" "yalll hp3\n";
  rejects "unknown language" "cobol hp3 a.yll\n";
  rejects "unknown machine" "yalll pdp11 a.yll\n";
  rejects "unreadable source" "yalll hp3 missing.yll\n";
  rejects "unknown option key" "yalll hp3 a.yll colour=red\n";
  rejects "bad boolean" "yalll hp3 a.yll chain=maybe\n";
  rejects "bad pool" "yalll hp3 a.yll pool=-3\n";
  rejects "bad algo" "yalll hp3 a.yll algo=magic\n";
  rejects "bad bb_budget" "yalll hp3 a.yll bb_budget=0\n"

(* batch over a parsed manifest equals sequential compiles of the same *)
let test_manifest_end_to_end () =
  let text =
    "yalll hp3 a.yll\nyalll b17 a.yll\nsimpl hp3 b.simpl\n\
     yalll hp3 a.yll id=dup\n"
  in
  let js = Service.parse_manifest ~load:mem_load text in
  let s = Service.create ~domains:1 () in
  let out = Service.run_batch s js in
  check_identical "manifest batch" (reference_listings js)
    (outcome_listings out);
  Alcotest.(check bool) "duplicate line hits even when cold" true
    out.(3).Service.o_cached

(* the checked-in manifest is the CI gates' corpus: every example program,
   at default options, on every machine its language targets *)
let test_manifest_covers_examples () =
  let js = manifest_jobs () in
  let default = Pipeline.options_id Pipeline.default_options in
  List.iter
    (fun (file, language, source) ->
      List.iter
        (fun (d : Desc.t) ->
          if
            not
              (List.exists
                 (fun (j : Service.job) ->
                   j.j_language = language && j.j_machine = d.Desc.d_name
                   && j.j_source = source && (not j.j_use_microops)
                   && Pipeline.options_id j.j_options = default)
                 js)
          then Alcotest.failf "batch.manifest lacks %s on %s" file d.Desc.d_name)
        (Core.Experiments.v1_machines language))
    (Core.Experiments.v1_examples ())

(* -- the serve daemon ------------------------------------------------------- *)

module Serve = Msl_core.Serve
module Trace = Msl_util.Trace
module Clock = Msl_util.Clock

(* Start a server on a socket in a throwaway directory, run [f], and
   always stop the daemon and remove the directory — even on a failing
   assertion, so one red test cannot leak a daemon into the next. *)
let with_server ?(queue_cap = 4) ?(client_cap = 2) ?(domains = 3) f =
  let dir = Filename.temp_file "msl-serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "serve.sock" in
  let cfg =
    {
      (Serve.default_config ~socket) with
      Serve.sc_queue_cap = queue_cap;
      sc_client_cap = client_cap;
      sc_domains = Some domains;
    }
  in
  let srv = Serve.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop srv;
      Serve.wait srv;
      (try Sys.remove socket with Sys_error _ -> ());
      (try Unix.rmdir dir with Unix.Unix_error _ -> ()))
    (fun () -> f srv socket)

let parse_response line =
  match Trace.parse_json line with
  | Error e -> Alcotest.failf "unparseable response %S: %s" line e
  | Ok (Trace.J_obj fields) ->
      let id =
        match List.assoc_opt "id" fields with
        | Some (Trace.J_str v) -> v
        | _ -> Alcotest.failf "response without an id: %s" line
      in
      let ok =
        match List.assoc_opt "ok" fields with
        | Some (Trace.J_bool v) -> v
        | _ -> Alcotest.failf "response without ok: %s" line
      in
      (id, ok, fields)
  | Ok _ -> Alcotest.failf "response is not a JSON object: %s" line

let response_bool name fields =
  match List.assoc_opt name fields with
  | Some (Trace.J_bool v) -> v
  | _ -> Alcotest.failf "response lacks boolean field %S" name

let response_str name fields =
  match List.assoc_opt name fields with
  | Some (Trace.J_str v) -> v
  | _ -> Alcotest.failf "response lacks string field %S" name

(* One client connection pipelining [n] compile requests: a sender
   thread streams all the request lines while this thread receives, so
   the test cannot deadlock against the server's admission pushback.
   Asserts the zero-dropped/zero-duplicated contract on the way out:
   the connection gets back exactly its own ids, each exactly once,
   each ok. *)
let run_client ?(len = 6) ~socket ~tag ~n ~seed0 () =
  let conn = Serve.Client.connect socket in
  let ids = List.init n (fun i -> Printf.sprintf "%s-%d" tag i) in
  let sender =
    Thread.create
      (fun () ->
        List.iteri
          (fun i id ->
            let source =
              Core.Workloads.yalll_program ~seed:(seed0 + i) ~len
            in
            Serve.Client.send_line conn
              (Serve.request ~op:"compile" ~id ~language:"yalll"
                 ~machine:"hp3" ~source ()))
          ids)
      ()
  in
  let got = ref [] in
  for _ = 1 to n do
    match Serve.Client.recv_line conn with
    | None -> Alcotest.failf "%s: server closed the connection early" tag
    | Some line -> got := parse_response line :: !got
  done;
  Thread.join sender;
  Serve.Client.close conn;
  let got = List.rev !got in
  let got_ids = List.sort compare (List.map (fun (id, _, _) -> id) got) in
  Alcotest.(check (list string))
    (tag ^ ": exactly its own ids, once each")
    (List.sort compare ids) got_ids;
  List.iter
    (fun (id, ok, fields) ->
      if not ok then
        Alcotest.failf "%s: job %s failed: %s" tag id
          (response_str "error" fields))
    got;
  got

(* The saturation suite: three clients each pipeline far more requests
   than the global queue bound (40 in flight against queue_cap 4,
   client_cap 2).  Negotiated flow must hold every invariant at once:
   nothing dropped, nothing duplicated, nothing failed, and the global
   queue's high-water mark never above its bound. *)
let test_serve_saturation () =
  with_server ~queue_cap:4 ~client_cap:2 ~domains:3 (fun srv socket ->
      let n = 40 in
      let nclients = 3 in
      let threads =
        List.init nclients (fun k ->
            Thread.create
              (fun () ->
                ignore
                  (run_client ~socket
                     ~tag:(Printf.sprintf "c%d" k)
                     ~n ~seed0:(1 + (k * 100)) ()))
              ())
      in
      List.iter Thread.join threads;
      let sv = Serve.stats srv in
      Alcotest.(check int) "every request answered" (n * nclients)
        sv.Serve.sv_responses;
      Alcotest.(check int) "no error responses" 0 sv.Serve.sv_errors;
      if sv.Serve.sv_queue_peak > 4 then
        Alcotest.failf "queue bound violated: peak %d > cap 4"
          sv.Serve.sv_queue_peak;
      let st = Service.stats (Serve.service srv) in
      Alcotest.(check int) "no job errors" 0 st.Service.st_errors)

(* Fairness: a flooding client and a small client start together; the
   small client's five jobs must not be starved behind the flood's
   sixty.  Round-robin pickup plus the per-client cap bound the small
   client's wait to a few sibling jobs, so it finishes first. *)
let test_serve_fairness () =
  with_server ~queue_cap:4 ~client_cap:2 ~domains:2 (fun _srv socket ->
      let t_flood = ref 0.0 and t_small = ref 0.0 in
      let flood =
        Thread.create
          (fun () ->
            ignore (run_client ~len:20 ~socket ~tag:"flood" ~n:60 ~seed0:500 ());
            t_flood := Clock.now_s ())
          ()
      in
      let small =
        Thread.create
          (fun () ->
            ignore (run_client ~len:6 ~socket ~tag:"small" ~n:5 ~seed0:900 ());
            t_small := Clock.now_s ())
          ()
      in
      Thread.join small;
      Thread.join flood;
      if !t_small > !t_flood then
        Alcotest.failf
          "small client starved: finished %.3f s after the flood"
          (!t_small -. !t_flood))

(* The shared cache: a result computed for one connection is a memory
   hit for the next one. *)
let test_serve_shared_cache () =
  with_server ~domains:2 (fun _srv socket ->
      let source = Core.Workloads.yalll_program ~seed:7 ~len:8 in
      let ask tag =
        let conn = Serve.Client.connect socket in
        Serve.Client.send_line conn
          (Serve.request ~op:"compile" ~id:tag ~language:"yalll"
             ~machine:"hp3" ~source ());
        let r =
          match Serve.Client.recv_line conn with
          | Some line -> parse_response line
          | None -> Alcotest.failf "%s: connection closed" tag
        in
        Serve.Client.close conn;
        r
      in
      let _, ok1, f1 = ask "first" in
      let _, ok2, f2 = ask "second" in
      Alcotest.(check bool) "first ok" true ok1;
      Alcotest.(check bool) "second ok" true ok2;
      Alcotest.(check bool) "first is a miss" false (response_bool "cached" f1);
      Alcotest.(check bool) "second connection hits the shared cache" true
        (response_bool "cached" f2))

(* Protocol robustness: malformed and invalid requests get an ok:false
   answer on the same connection, which keeps serving afterwards. *)
let test_serve_protocol_errors () =
  with_server ~domains:2 (fun srv socket ->
      let conn = Serve.Client.connect socket in
      let expect_error what =
        match Serve.Client.recv_line conn with
        | None -> Alcotest.failf "%s: connection closed" what
        | Some line ->
            let _, ok, fields = parse_response line in
            Alcotest.(check bool) (what ^ " is refused") false ok;
            ignore (response_str "error" fields)
      in
      Serve.Client.send_line conn "this is not json";
      expect_error "malformed JSON";
      Serve.Client.send_line conn
        (Trace.json_line
           [ ("op", Trace.J_str "frobnicate"); ("id", Trace.J_str "x") ]);
      expect_error "unknown op";
      Serve.Client.send_line conn
        (Trace.json_line
           [ ("op", Trace.J_str "compile"); ("id", Trace.J_str "nosrc") ]);
      expect_error "compile without source";
      (* the same connection still serves real work *)
      Serve.Client.send_line conn
        (Serve.request ~op:"compile" ~id:"good" ~language:"yalll"
           ~machine:"hp3"
           ~source:(Core.Workloads.yalll_program ~seed:3 ~len:6)
           ());
      (match Serve.Client.recv_line conn with
      | None -> Alcotest.fail "connection dead after protocol errors"
      | Some line ->
          let id, ok, _ = parse_response line in
          Alcotest.(check string) "good job answered" "good" id;
          Alcotest.(check bool) "good job ok" true ok);
      Serve.Client.send_line conn (Serve.request ~op:"stats" ~id:"st" ());
      (match Serve.Client.recv_line conn with
      | None -> Alcotest.fail "no stats response"
      | Some line ->
          let id, ok, fields = parse_response line in
          Alcotest.(check string) "stats id" "st" id;
          Alcotest.(check bool) "stats ok" true ok;
          (match List.assoc_opt "resp_errors" fields with
          | Some (Trace.J_num n) ->
              Alcotest.(check int) "three errors counted" 3 (int_of_float n)
          | _ -> Alcotest.fail "stats lacks resp_errors"));
      Serve.Client.close conn;
      Alcotest.(check int) "server counted the errors" 3
        (Serve.stats srv).Serve.sv_errors)

(* A client's [shutdown] is acknowledged, then the daemon exits and
   removes its socket. *)
let test_serve_shutdown_request () =
  with_server ~domains:2 (fun srv socket ->
      let conn = Serve.Client.connect socket in
      Serve.Client.send_line conn (Serve.request ~op:"shutdown" ~id:"bye" ());
      (match Serve.Client.recv_line conn with
      | None -> Alcotest.fail "shutdown not acknowledged"
      | Some line ->
          let id, ok, _ = parse_response line in
          Alcotest.(check string) "ack id" "bye" id;
          Alcotest.(check bool) "ack ok" true ok);
      Serve.Client.close conn;
      Serve.wait srv;
      Alcotest.(check bool) "socket file removed on exit" false
        (Sys.file_exists socket))

(* A run request's fuel must be positive: zero or negative fuel is a
   malformed request, refused before any work is queued. *)
let test_serve_fuel_refused () =
  with_server ~domains:1 (fun _ socket ->
      let conn = Serve.Client.connect socket in
      List.iter
        (fun fuel ->
          let id = Printf.sprintf "fuel%d" fuel in
          Serve.Client.send_line conn
            (Serve.request ~op:"run" ~id ~language:"yalll" ~machine:"hp3"
               ~source:(Core.Workloads.yalll_program ~seed:3 ~len:6)
               ~fuel ());
          match Serve.Client.recv_line conn with
          | None -> Alcotest.failf "fuel %d: connection closed" fuel
          | Some line ->
              let rid, ok, fields = parse_response line in
              Alcotest.(check string) "answered under its own id" id rid;
              Alcotest.(check bool) (id ^ " is refused") false ok;
              Alcotest.(check string) (id ^ " message") "fuel must be positive"
                (response_str "error" fields))
        [ -1; 0 ];
      Serve.Client.close conn)

(* -- the validate gate proves the compile it cached ----------------------- *)

let o2 = { Pipeline.default_options with Pipeline.opt_level = 2 }

let read_example name =
  In_channel.with_open_bin (Filename.concat "../examples" name)
    In_channel.input_all

(* Run [f] with tracing on; return its result and the number of
   toolkit compiles it began. *)
let count_compiles f =
  let path = Filename.temp_file "msl_test_service" ".jsonl" in
  Trace.enable_file path;
  let r = Fun.protect ~finally:Trace.disable f in
  let events =
    match Trace.read_events path with
    | Ok es -> es
    | Error msg -> Alcotest.failf "trace did not parse back: %s" msg
  in
  Sys.remove path;
  ( r,
    List.length
      (List.filter
         (fun (e : Trace.event) ->
           e.ev_ph = "B" && e.ev_cat = "toolkit" && e.ev_name = "compile")
         events) )

let gated_job () =
  Service.job ~id:"gated" ~options:o2 ~validate:true Toolkit.Simpl
    ~machine:"hp3" ~source:(read_example "mpy.simpl")

let check_proved what (o : Service.outcome) =
  match o.Service.o_result with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "%s: %s" what d.Diag.message

let test_gate_compiles_once () =
  let s = Service.create ~domains:1 () in
  let j = gated_job () in
  let o, n = count_compiles (fun () -> Service.compile_job s j) in
  check_proved "gated miss" o;
  Alcotest.(check bool) "first probe misses" false o.Service.o_cached;
  Alcotest.(check int) "a gated miss compiles once" 1 n;
  let o, n = count_compiles (fun () -> Service.compile_job s j) in
  check_proved "gated hit" o;
  Alcotest.(check bool) "second probe hits" true o.Service.o_cached;
  Alcotest.(check int) "a gated hit recompiles once for its proof" 1 n;
  let o, n =
    count_compiles (fun () ->
        Service.compile_job s { j with Service.j_validate = false })
  in
  Alcotest.(check bool) "ungated probe hits" true o.Service.o_cached;
  Alcotest.(check int) "an ungated hit does not compile" 0 n

(* A crashed attempt is retried, and the gate proves the retry's own
   compile.  The injected fault strikes before the compile starts, so
   the two attempts make one compile between them and the gate adds
   none. *)
let test_gate_after_retry () =
  let j = gated_job () in
  let policy =
    { Service.default_policy with Service.p_retries = 2; p_backoff_ms = 0.1 }
  in
  let faults seed =
    { Service.f_seed = seed; f_raise = 0.5; f_delay = 0.0; f_delay_ms = 0.0 }
  in
  let run seed =
    let s = Service.create ~domains:1 () in
    let o = Service.compile_job ~policy ~faults:(faults seed) s j in
    (o, Service.stats s)
  in
  (* the draws are deterministic: find a seed whose first attempt raises
     and whose second does not *)
  let seed =
    match
      List.find_opt
        (fun seed ->
          let o, st = run seed in
          Result.is_ok o.Service.o_result && st.Service.st_retries = 1)
        (List.init 64 Fun.id)
    with
    | Some seed -> seed
    | None -> Alcotest.fail "no seed raises on exactly the first attempt"
  in
  let (o, st), n = count_compiles (fun () -> run seed) in
  check_proved "retried gated miss" o;
  Alcotest.(check int) "one retry" 1 st.Service.st_retries;
  Alcotest.(check int) "one crash" 1 st.Service.st_internal;
  Alcotest.(check int) "one compile, no recompile" 1 n

(* The daemon backs superopt with a disk memo, so a memo hit must still
   report its rewrite for the gate to replay: cold and warm memo capture
   the same rewrites, and both prove.  Sequential compaction leaves
   windows the repack can shrink; under the default branch-and-bound
   every window of this program already meets its lower bound and none
   is searched, so none would reach the memo. *)
let test_memo_captures_rewrites () =
  let tbl = Hashtbl.create 16 in
  let memo =
    {
      Msl_mir.Superopt.memo_find = Hashtbl.find_opt tbl;
      memo_add = Hashtbl.replace tbl;
    }
  in
  let d = Machines.hp3 and src = read_example "mpy.simpl" in
  let compile () =
    Toolkit.compile_for_proof
      ~options:{ o2 with algo = Compaction.Sequential }
      ~superopt_memo:memo Toolkit.Simpl d src
  in
  let cold, p_cold = compile () in
  Alcotest.(check bool) "cold run fills the memo" true (Hashtbl.length tbl > 0);
  let warm, p_warm = compile () in
  (match warm.Toolkit.c_superopt with
  | Some st ->
      Alcotest.(check bool) "warm run hits the memo" true
        (st.Msl_mir.Superopt.s_memo_hits > 0)
  | None -> Alcotest.fail "-O2 reported no superopt stats");
  Alcotest.(check bool) "the cold run rewrote something" true
    (p_cold.Toolkit.p_rewrites <> []);
  Alcotest.(check int) "same rewrites captured"
    (List.length p_cold.Toolkit.p_rewrites)
    (List.length p_warm.Toolkit.p_rewrites);
  Alcotest.(check bool) "same program" true
    (cold.Toolkit.c_insts = warm.Toolkit.c_insts);
  List.iter
    (fun (what, p) ->
      let r, bad = Toolkit.prove d p in
      Alcotest.(check int) (what ^ ": no bad rewrites") 0 (List.length bad);
      Alcotest.(check int) (what ^ ": no refuted blocks") 0
        r.Msl_mir.Tv.v_refuted;
      Alcotest.(check int) (what ^ ": no unknown blocks") 0
        r.Msl_mir.Tv.v_unknown)
    [ ("cold", p_cold); ("warm", p_warm) ]

(* The checker the gate runs refutes captured words that no longer match
   their selection: blank the first word that carries microoperations. *)
let test_prove_refutes_tampering () =
  let d = Machines.hp3 in
  let _, p =
    Toolkit.compile_for_proof Toolkit.Yalll d (read_example "gcd.yll")
  in
  let tampered = ref false in
  let blank (a : Msl_mir.Tv.artifact) =
    if !tampered then a
    else
      match a.a_mis with
      | (_ :: _, next) :: rest ->
          tampered := true;
          { a with a_mis = ([], next) :: rest }
      | _ -> a
  in
  let p =
    { p with Toolkit.p_artifacts = List.map blank p.Toolkit.p_artifacts }
  in
  Alcotest.(check bool) "found a word to blank" true !tampered;
  let r, _ = Toolkit.prove d p in
  Alcotest.(check bool) "tampered block refuted" true
    (r.Msl_mir.Tv.v_refuted > 0)

let () =
  Alcotest.run "service"
    [
      ( "determinism",
        [
          Alcotest.test_case "batch = sequential compiles" `Quick
            test_batch_matches_sequential;
          Alcotest.test_case "1 domain = 4 domains" `Quick
            test_domain_count_invariance;
          Alcotest.test_case "warm cache = cold cache" `Quick
            test_warm_cache_invariance;
        ] );
      ( "cache",
        [
          Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
          Alcotest.test_case "bounded capacity evicts" `Quick test_eviction;
          Alcotest.test_case "eviction accounting is exact" `Quick
            test_eviction_accounting_exact;
          Alcotest.test_case "key sensitivity" `Quick test_cache_key_sensitivity;
          Alcotest.test_case "every options field keys distinctly" `Quick
            test_options_key_exhaustive;
          Alcotest.test_case "same-named machines keyed apart" `Quick
            test_same_name_distinct_machines;
          Alcotest.test_case "errors surface and are not cached" `Quick
            test_error_outcome;
        ] );
      ( "faults",
        [
          Alcotest.test_case "capture firewall" `Quick test_capture_firewall;
          Alcotest.test_case "crashes confined to their job" `Quick
            test_firewall_confines_crashes;
          Alcotest.test_case "retries recover the batch" `Quick
            test_retries_recover;
          Alcotest.test_case "diagnostics are not retried" `Quick
            test_diagnostics_not_retried;
          Alcotest.test_case "deadline overrun" `Quick test_deadline_overrun;
          Alcotest.test_case "fail-fast cancels the tail" `Quick test_fail_fast;
          Alcotest.test_case "gate proves a retried miss" `Quick
            test_gate_after_retry;
        ] );
      ( "validate",
        [
          Alcotest.test_case "one compile per gated job" `Quick
            test_gate_compiles_once;
          Alcotest.test_case "memo hits still report rewrites" `Quick
            test_memo_captures_rewrites;
          Alcotest.test_case "tampered capture refuted" `Quick
            test_prove_refutes_tampering;
        ] );
      ( "disk",
        [
          Alcotest.test_case "cache survives a restart" `Quick
            test_disk_survives_restart;
          Alcotest.test_case "corruption tolerated and healed" `Quick
            test_disk_corruption_tolerated;
          Alcotest.test_case "hits relink to the registry's machine" `Quick
            test_disk_relinks_to_registry;
          Alcotest.test_case "stale tmp files swept on create" `Quick
            test_stale_tmp_sweep;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "4-domain hammer on overlapping keys" `Quick
            test_concurrent_hammer;
          Alcotest.test_case "6-domain hammer with disk and eviction" `Quick
            test_multidomain_disk_stress;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "parse" `Quick test_manifest_parse;
          Alcotest.test_case "malformed lines" `Quick test_manifest_errors;
          Alcotest.test_case "end to end" `Quick test_manifest_end_to_end;
          Alcotest.test_case "covers every example" `Quick
            test_manifest_covers_examples;
        ] );
      ( "serve",
        [
          Alcotest.test_case "saturation under negotiated flow" `Quick
            test_serve_saturation;
          Alcotest.test_case "fairness under a flooding client" `Quick
            test_serve_fairness;
          Alcotest.test_case "cache shared across connections" `Quick
            test_serve_shared_cache;
          Alcotest.test_case "protocol errors answered, connection kept"
            `Quick test_serve_protocol_errors;
          Alcotest.test_case "shutdown request stops the daemon" `Quick
            test_serve_shutdown_request;
          Alcotest.test_case "non-positive fuel refused" `Quick
            test_serve_fuel_refused;
        ] );
    ]
