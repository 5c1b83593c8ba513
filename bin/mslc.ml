(* mslc: the command-line driver of the toolkit.

     mslc compile -l yalll -m hp3 prog.yll       compile, print the listing
     mslc run -l simpl -m h1 prog.simpl          compile and execute
     mslc lint -l simpl -m h1 prog.simpl         compile and statically audit
     mslc verify prog.sstar                      discharge S* proof obligations
     mslc machines                               list machine models
     mslc matrix                                 print the survey's language matrix
     mslc experiments [name ...]                 regenerate experiment tables
     mslc batch jobs.manifest                    batch-compile through the service
     mslc stats trace.jsonl                      summarize a recorded trace
     mslc serve --socket /tmp/mslc.sock          persistent compile daemon
     mslc connect --socket ... compile ...       one request to a running daemon

   Exit codes, uniformly: 0 = success, 1 = the requested check failed
   (lint findings, unproved S* obligations, failed batch jobs,
   non-termination within the fuel budget), 2 = the input could not be
   processed at all (parse/compile errors). *)

open Cmdliner
module Machines = Msl_machine.Machines
module Masm = Msl_machine.Masm
module Sim = Msl_machine.Sim
module Desc = Msl_machine.Desc
module Encode = Msl_machine.Encode
module Compaction = Msl_mir.Compaction
module Diag = Msl_util.Diag
module Trace = Msl_util.Trace
module Core = Msl_core

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every compiler failure prints as a structured, source-located finding
   and exits 2: exit 1 is reserved for "the program was processed and the
   requested check failed".  The firewall in [Toolkit.capture] extends
   the same discipline to unexpected exceptions — a driver bug or a
   pathological input renders as an error[internal] finding instead of
   an uncaught-exception dump. *)
let handle_diag f =
  match Core.Toolkit.capture f with
  | Ok v -> v
  | Error d ->
      Fmt.epr "%a@." Msl_mir.Diag.pp_compiler_error d;
      exit 2
  (* our reader went away (e.g. `mslc batch ... | head`): stop quietly —
     with SIGPIPE ignored this surfaces as EPIPE on a write, and it is
     the reader's verdict that counts, not ours.  The at_exit flushers
     would hit the same EPIPE and turn the quiet exit into an uncaught
     exception, so point stdout at /dev/null first. *)
  | exception e when Core.Toolkit.is_broken_pipe e ->
      (try
         let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
         Unix.dup2 devnull Unix.stdout;
         Unix.close devnull
       with Unix.Unix_error _ -> ());
      exit 0

(* A per-job batch line already leads with an "error" tag, so the
   finding is rendered without repeating the severity. *)
let pp_job_error ppf d =
  let f = Msl_mir.Diag.of_compiler_error d in
  match f.Msl_mir.Diag.f_loc with
  | Msl_mir.Diag.L_none ->
      Fmt.pf ppf "[%s] %s" f.Msl_mir.Diag.f_code f.Msl_mir.Diag.f_message
  | loc ->
      Fmt.pf ppf "[%s] %a: %s" f.Msl_mir.Diag.f_code Msl_mir.Diag.pp_location
        loc f.Msl_mir.Diag.f_message

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ -> Error (`Msg "must be at least 1")
    | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
  in
  Arg.conv (parse, Fmt.int)

let trace_arg =
  let doc =
    "Write a Chrome-trace-event JSONL trace of this invocation to $(docv) \
     (load it in Perfetto, or summarize it with $(b,mslc stats)); see \
     DESIGN.md for the event schema."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* Tracing stays on until process exit: enable_file registers an at_exit
   flush/close, so the trace survives the driver's explicit exits. *)
let setup_trace = Option.iter Trace.enable_file

let lang_arg =
  let doc = "Source language: simpl, empl, sstar or yalll." in
  Arg.(
    required
    & opt (some (enum [ ("simpl", Core.Toolkit.Simpl); ("empl", Core.Toolkit.Empl);
                        ("sstar", Core.Toolkit.Sstar); ("yalll", Core.Toolkit.Yalll) ]))
        None
    & info [ "l"; "language" ] ~docv:"LANG" ~doc)

let machine_arg =
  let doc = "Target machine: h1, hp3, v11 or b17." in
  Arg.(
    value
    & opt string "hp3"
    & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc)

let machine_file_arg =
  let doc =
    "Target a user machine: elaborate the .mdesc description at $(docv) \
     instead of a shipped machine (overrides $(b,--machine))."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "machine-file" ] ~docv:"PATH" ~doc)

(* every command that targets a machine resolves it the same way:
   --machine-file wins, otherwise the named registry entry *)
let resolve_machine machine = function
  | Some path -> Machines.load_file path
  | None -> Machines.get machine

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let opt_arg =
  let doc =
    "Optimization level: 0 disables the machine-independent MIR optimizer, \
     1 (the default) enables it, 2 additionally runs the proof-gated \
     post-compaction superoptimizer (every rewrite carries a symbolic \
     equivalence proof; see $(b,--superopt))."
  in
  let level =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 0 -> Ok n
      | Some _ -> Error (`Msg "must be non-negative")
      | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
    in
    Arg.conv (parse, Fmt.int)
  in
  Arg.(value & opt level 1 & info [ "O" ] ~docv:"LEVEL" ~doc)

let time_passes_arg =
  let doc = "Print the wall-clock time of every pipeline pass." in
  Arg.(value & flag & info [ "time-passes" ] ~doc)

let dump_after_arg =
  let doc =
    "Dump the MIR after the named pass (see $(b,--time-passes) for the pass \
     names).  Repeatable."
  in
  let pass =
    let parse s =
      if List.mem s Msl_mir.Pipeline.pass_names then Ok s
      else
        Error
          (`Msg
             (Printf.sprintf "unknown pass %S (expected one of: %s)" s
                (String.concat ", " Msl_mir.Pipeline.pass_names)))
    in
    Arg.conv (parse, Fmt.string)
  in
  Arg.(value & opt_all pass [] & info [ "dump-after" ] ~docv:"PASS" ~doc)

let algo_arg =
  let doc =
    "Compaction algorithm: sequential, fcfs, critical-path or optimal \
     (branch-and-bound)."
  in
  Arg.(
    value
    & opt
        (enum
           [ ("sequential", Compaction.Sequential); ("fcfs", Compaction.Fcfs);
             ("critical-path", Compaction.Critical_path);
             ("optimal", Compaction.Optimal) ])
        Compaction.Critical_path
    & info [ "algo" ] ~docv:"ALGO" ~doc)

let bb_budget_arg =
  let doc =
    "Branch-and-bound node budget per basic block for $(b,--algo optimal).  \
     A block that exhausts it falls back to the critical-path schedule and \
     a warning is printed (the result is still correct, possibly wider)."
  in
  Arg.(
    value
    & opt positive_int Compaction.default_node_budget
    & info [ "bb-budget" ] ~docv:"NODES" ~doc)

let superopt_arg =
  let doc =
    "Run the post-compaction window superoptimizer at any $(b,-O) level: \
     short windows spanning block seams are re-packed, gotos folded and \
     branches inverted, each rewrite accepted only when symbolically \
     proved equivalent (implied by $(b,-O 2))."
  in
  Arg.(value & flag & info [ "superopt" ] ~doc)

let options_of ?(superopt = false) opt_level algo bb_budget =
  {
    Msl_mir.Pipeline.default_options with
    Msl_mir.Pipeline.opt_level;
    algo;
    bb_budget;
    superopt;
  }

let warn_inexact (c : Core.Toolkit.compiled) =
  let n = c.Core.Toolkit.c_inexact_blocks in
  if n > 0 then
    Fmt.epr
      "mslc: warning: %d block%s hit the branch-and-bound node budget; the \
       schedule may be wider than optimal (raise --bb-budget)@."
      n
      (if n = 1 then "" else "s")

let observe_of_dumps dumps =
  if dumps = [] then None
  else
    Some
      (fun pass p ->
        if List.mem pass dumps then
          Fmt.pr "; MIR after %s@.%a@." pass Msl_mir.Mir.pp p)

let print_timings (c : Core.Toolkit.compiled) =
  Fmt.pr "; pass timings@.%a" Msl_mir.Passmgr.pp_timings
    c.Core.Toolkit.c_timings

(* Only prints when the pass ran (-O 2 / --superopt), so default
   listings stay byte-identical. *)
let print_superopt (c : Core.Toolkit.compiled) =
  match c.Core.Toolkit.c_superopt with
  | None -> ()
  | Some s ->
      Fmt.pr "; superopt: %d windows, %d rewrites, %d words saved@."
        s.Msl_mir.Superopt.s_windows s.Msl_mir.Superopt.s_accepted
        s.Msl_mir.Superopt.s_words_saved

let miscompile_of_spec spec =
  match String.index_opt spec ':' with
  | None ->
      Diag.error Diag.Parsing "expected KIND:SEED, got %S (kinds: %s)" spec
        (String.concat ", "
           (List.map Core.Workloads.miscompile_name
              Core.Workloads.all_miscompiles))
  | Some i -> (
      let k = String.sub spec 0 i in
      let s = String.sub spec (i + 1) (String.length spec - i - 1) in
      let kind =
        match
          List.find_opt
            (fun m -> Core.Workloads.miscompile_name m = k)
            Core.Workloads.all_miscompiles
        with
        | Some m -> m
        | None ->
            Diag.error Diag.Parsing "unknown miscompile kind %S (kinds: %s)" k
              (String.concat ", "
                 (List.map Core.Workloads.miscompile_name
                    Core.Workloads.all_miscompiles))
      in
      match int_of_string_opt s with
      | Some seed -> (kind, seed)
      | None -> Diag.error Diag.Parsing "expected an integer seed, got %S" s)

let compile_cmd =
  let validate_arg =
    let doc =
      "Run the translation validator over every lowered block: \
       symbolically prove the compacted microcode equivalent to its \
       pre-compaction schedule (see DESIGN.md).  Prints one finding per \
       REFUTED or UNKNOWN block and a summary line; exits 1 on any \
       refutation."
    in
    Arg.(value & flag & info [ "validate" ] ~doc)
  in
  let tv_inject_arg =
    let doc =
      "Validator testing hook: after compiling, inject the seeded \
       miscompile $(docv) (one of swap-dep, drop-word, retarget, \
       perturb-operand, then a colon and an integer seed) into the \
       compiled program and validate the honest program against the \
       mutant — which must exit 1 (refuted) whenever an observable \
       mutation site exists."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "tv-inject" ] ~docv:"KIND:SEED" ~doc)
  in
  let run lang machine machine_file file opt algo bb_budget superopt trace
      time_passes dumps validate tv_inject =
    setup_trace trace;
    handle_diag (fun () ->
        let d = resolve_machine machine machine_file in
        let tv_inject = Option.map miscompile_of_spec tv_inject in
        (* the capture is a few words per block: take it whether or
           not --validate will prove it *)
        let c, proof =
          Core.Toolkit.compile_for_proof
            ~options:(options_of ~superopt opt algo bb_budget)
            ?observe:(observe_of_dumps dumps) lang d (read_file file)
        in
        warn_inexact c;
        print_string (Masm.print d c.Core.Toolkit.c_insts);
        Fmt.pr "; %d words, %d microoperations, %d control-store bits@."
          c.Core.Toolkit.c_words c.Core.Toolkit.c_ops c.Core.Toolkit.c_bits;
        print_superopt c;
        if time_passes then print_timings c;
        let failed = ref false in
        let report (r : Msl_mir.Tv.result) =
          List.iter
            (fun f -> Fmt.pr "%a@." Msl_mir.Diag.pp_finding f)
            r.Msl_mir.Tv.v_findings;
          Fmt.pr "; validate: %a@." Msl_mir.Tv.pp_summary r;
          if r.Msl_mir.Tv.v_refuted > 0 then failed := true
        in
        if validate then begin
          let r, bad = Core.Toolkit.prove d proof in
          report r;
          List.iter
            (fun (rw : Msl_mir.Superopt.rewrite) ->
              failed := true;
              Fmt.pr
                "error[superopt-replay] block %s: %s rewrite did not replay \
                 Validated@."
                rw.Msl_mir.Superopt.rw_label
                (Msl_mir.Superopt.kind_name rw.Msl_mir.Superopt.rw_kind))
            bad;
          let n = List.length proof.Core.Toolkit.p_rewrites in
          if n > 0 && bad = [] then
            Fmt.pr "; superopt: %d rewrites replayed, all proved@." n
        end;
        (match tv_inject with
        | None -> ()
        | Some (kind, seed) -> (
            match
              Core.Workloads.inject_miscompile d ~seed kind
                c.Core.Toolkit.c_insts
            with
            | None ->
                Fmt.pr
                  "; tv-inject: no observable %s site in this program@."
                  (Core.Workloads.miscompile_name kind)
            | Some (mutant, _witness) ->
                report
                  (Msl_mir.Tv.validate_program d
                     ~labels:c.Core.Toolkit.c_labels
                     ~reference:c.Core.Toolkit.c_insts ~candidate:mutant)));
        if !failed then exit 1)
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a program and print its microcode")
    Term.(
      const run $ lang_arg $ machine_arg $ machine_file_arg $ file_arg
      $ opt_arg $ algo_arg $ bb_budget_arg $ superopt_arg $ trace_arg
      $ time_passes_arg $ dump_after_arg $ validate_arg $ tv_inject_arg)

let fuel_arg =
  let doc =
    "Execution budget in microinstruction steps; a program still running \
     after $(docv) steps is reported as non-terminating (exit 1)."
  in
  Arg.(value & opt positive_int 2_000_000 & info [ "fuel" ] ~docv:"STEPS" ~doc)

let engine_arg =
  let doc =
    "Simulation engine: compiled (the default — translate the control \
     store to closures once, then execute) or interp (the cycle-accurate \
     reference interpreter).  Both produce identical architectural \
     state; the differential test oracle holds them to it."
  in
  Arg.(
    value
    & opt
        (enum
           [ ("compiled", Core.Toolkit.Compiled);
             ("interp", Core.Toolkit.Interp) ])
        Core.Toolkit.Compiled
    & info [ "engine" ] ~docv:"ENGINE" ~doc)

let run_cmd =
  let run lang machine machine_file file opt algo bb_budget superopt trace
      fuel engine =
    setup_trace trace;
    handle_diag (fun () ->
        let d = resolve_machine machine machine_file in
        let c =
          Core.Toolkit.compile
            ~options:(options_of ~superopt opt algo bb_budget)
            lang d (read_file file)
        in
        warn_inexact c;
        match Core.Toolkit.run_status ~engine ~fuel c with
        | sim, Sim.Out_of_fuel ->
            (* the program compiled fine but failed the termination check:
               that is exit 1 territory, with the state a non-terminating
               microprogram needs shown — not a bare exit-2 diagnostic *)
            Fmt.epr
              "mslc: program did not halt within %d steps (pc=%d, %d \
               cycles, %d microinstructions executed)@."
              fuel (Sim.pc sim) (Sim.cycles sim) (Sim.insts_executed sim);
            exit 1
        | sim, Sim.Halted ->
            Fmt.pr "halted after %d cycles (%d microinstructions executed)@."
              (Sim.cycles sim) (Sim.insts_executed sim);
            List.iter
              (fun (r : Desc.reg) ->
                let v = Sim.get_reg_id sim r.Desc.r_id in
                if not (Msl_bitvec.Bitvec.is_zero v) then
                  Fmt.pr "  %-6s = %a@." r.Desc.r_name Msl_bitvec.Bitvec.pp v)
              (Desc.regs d))
  in
  Cmd.v (Cmd.info "run" ~doc:"Compile and execute a program")
    Term.(
      const run $ lang_arg $ machine_arg $ machine_file_arg $ file_arg
      $ opt_arg $ algo_arg $ bb_budget_arg $ superopt_arg $ trace_arg
      $ fuel_arg $ engine_arg)

let lint_cmd =
  let format_arg =
    let doc = "Report format: human, json or sexp." in
    Arg.(
      value
      & opt (enum [ ("human", `Human); ("json", `Json); ("sexp", `Sexp) ]) `Human
      & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  let budget_arg =
    let doc =
      "Also check the worst-case microcycle gap between interrupt polls \
       against $(docv)."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "latency-budget" ] ~docv:"CYCLES" ~doc)
  in
  let pedantic_arg =
    let doc =
      "Also report legal same-phase write/read register sharing (as info)."
    in
    Arg.(value & flag & info [ "pedantic" ] ~doc)
  in
  let poll_arg =
    let doc =
      "Compile with interrupt poll points on loop back edges before \
       analyzing (the manifest's poll=on)."
    in
    Arg.(value & flag & info [ "poll" ] ~doc)
  in
  let run lang machine machine_file file opt algo bb_budget superopt trace
      format budget pedantic poll =
    setup_trace trace;
    handle_diag (fun () ->
        let d = resolve_machine machine machine_file in
        (* the first observed pass is "validate": the frontend's own MIR,
           before any transformation — lint findings point at what the
           programmer wrote.  S* never calls observe (no MIR pipeline). *)
        let mir = ref None in
        let observe _pass p = if !mir = None then mir := Some p in
        let options =
          { (options_of ~superopt opt algo bb_budget) with
            Msl_mir.Pipeline.poll }
        in
        let c =
          Core.Toolkit.compile ~options ~observe lang d (read_file file)
        in
        warn_inexact c;
        let config =
          { Msl_mir.Lint.latency_budget = budget; pedantic }
        in
        let findings =
          Msl_mir.Lint.run ~config ?mir:!mir
            ~labels:c.Core.Toolkit.c_labels d c.Core.Toolkit.c_insts
        in
        let errors = Msl_mir.Diag.errors findings in
        (match format with
        | `Human ->
            List.iter
              (fun f -> Fmt.pr "%a@." Msl_mir.Diag.pp_finding f)
              findings;
            let warnings = Msl_mir.Diag.warnings findings in
            if findings = [] then
              Fmt.pr "%s: %d words on %s: no findings@." file
                c.Core.Toolkit.c_words d.Desc.d_name
            else
              Fmt.pr "%s: %d error%s, %d warning%s@." file
                (List.length errors)
                (if List.length errors = 1 then "" else "s")
                (List.length warnings)
                (if List.length warnings = 1 then "" else "s")
        | `Json ->
            print_endline
              (Msl_mir.Diag.report_json ~machine:d.Desc.d_name findings)
        | `Sexp ->
            print_endline
              (Msl_mir.Diag.report_sexp ~machine:d.Desc.d_name findings));
        if errors <> [] then exit 1)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Compile a program and audit the result with the independent \
          static analyzer (exit 1 on any error finding)")
    Term.(
      const run $ lang_arg $ machine_arg $ machine_file_arg $ file_arg
      $ opt_arg $ algo_arg $ bb_budget_arg $ superopt_arg $ trace_arg
      $ format_arg $ budget_arg $ pedantic_arg $ poll_arg)

let verify_cmd =
  let run machine machine_file file =
    handle_diag (fun () ->
        let d = resolve_machine machine machine_file in
        let prog = Msl_sstar.Parser.parse (read_file file) in
        let report = Msl_sstar.Verify.verify d prog in
        Fmt.pr "%a@." Msl_sstar.Verify.pp_report report;
        if not (Msl_sstar.Verify.ok report) then exit 1)
  in
  Cmd.v (Cmd.info "verify" ~doc:"Discharge the proof obligations of an S* program")
    Term.(const run $ machine_arg $ machine_file_arg $ file_arg)

let encode_cmd =
  let run lang machine machine_file file =
    handle_diag (fun () ->
        let d = resolve_machine machine machine_file in
        let c = Core.Toolkit.compile lang d (read_file file) in
        Fmt.pr "; %s control store, %d-bit words@." d.Msl_machine.Desc.d_name
          d.Desc.d_word_bits;
        List.iteri
          (fun i inst ->
            let w = Encode.encode_inst d inst in
            (* decode back as a self-check of the ROM image *)
            let back = Encode.decode_inst d w in
            Fmt.pr "%4d: %s  ; %a@." i (Encode.word_to_hex w)
              (Msl_machine.Inst.pp d) back)
          c.Core.Toolkit.c_insts)
  in
  Cmd.v
    (Cmd.info "encode"
       ~doc:"Compile and print the binary control store (hex + disassembly)")
    Term.(const run $ lang_arg $ machine_arg $ machine_file_arg $ file_arg)

let machines_cmd =
  let run () =
    List.iter
      (fun (d : Desc.t) ->
        Fmt.pr "%-4s %2d-bit, %d registers, %d-phase, %3d-bit control word%s@.     %s@."
          d.Desc.d_name d.Desc.d_word
          (Array.length d.Desc.d_regs)
          d.Desc.d_phases d.Desc.d_word_bits
          (if d.Desc.d_vertical then " (vertical)" else "")
          d.Desc.d_note)
      Machines.all
  in
  Cmd.v (Cmd.info "machines" ~doc:"List the machine models")
    Term.(const run $ const ())

let matrix_cmd =
  let run () =
    List.iter (fun t -> Msl_util.Tbl.print t; print_newline ()) (Core.Experiments.t1 ())
  in
  Cmd.v (Cmd.info "matrix" ~doc:"Print the survey's language matrix")
    Term.(const run $ const ())

let experiments_cmd =
  let names_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"NAME")
  in
  let run trace names =
    setup_trace trace;
    handle_diag (fun () ->
        let wanted =
          if names = [] then List.map fst Core.Experiments.all
          else List.map String.lowercase_ascii names
        in
        List.iter
          (fun n ->
            match List.assoc_opt n Core.Experiments.all with
            | Some f ->
                List.iter
                  (fun t -> Msl_util.Tbl.print t; print_newline ())
                  (Core.Experiments.table n f)
            | None -> Fmt.epr "unknown experiment %S@." n)
          wanted)
  in
  Cmd.v (Cmd.info "experiments" ~doc:"Regenerate the experiment tables")
    Term.(const run $ trace_arg $ names_arg)

let batch_cmd =
  let module Service = Msl_core.Service in
  let manifest_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"MANIFEST")
  in
  let domains_arg =
    let doc = "Worker domains for the fan-out (default: the service default)." in
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "j"; "domains" ] ~docv:"N" ~doc)
  in
  let rounds_arg =
    let doc =
      "Run the batch $(docv) times through the same cache; every round \
       after the first is served warm."
    in
    Arg.(value & opt positive_int 1 & info [ "rounds" ] ~docv:"N" ~doc)
  in
  let cap_arg =
    let doc = "Cache capacity in entries (oldest-inserted evicted beyond it)." in
    Arg.(value & opt positive_int 4096 & info [ "cache-cap" ] ~docv:"N" ~doc)
  in
  let listings_arg =
    let doc = "Print the microcode listing of every successful job." in
    Arg.(value & flag & info [ "listings" ] ~doc)
  in
  let lint_arg =
    let doc =
      "Run the static analyzer on every compiled job and fail jobs with \
       error findings (equivalent to lint=on on every manifest line)."
    in
    Arg.(value & flag & info [ "lint" ] ~doc)
  in
  let diff_arg =
    let doc =
      "Execute every compiled job on both simulation engines and fail \
       jobs whose architectural state diverges (equivalent to diff=on on \
       every manifest line).  The corpus-wide engine gate in CI is this \
       flag over examples/."
    in
    Arg.(value & flag & info [ "diff" ] ~doc)
  in
  let validate_arg =
    let doc =
      "Run the translation validator on every compiled job and fail jobs \
       with REFUTED or UNKNOWN blocks (equivalent to validate=on on \
       every manifest line).  The corpus-wide validate gate in CI is \
       this flag over examples/."
    in
    Arg.(value & flag & info [ "validate" ] ~doc)
  in
  let superopt_batch_arg =
    let doc =
      "Compile every job with the proof-gated window superoptimizer \
       (equivalent to superopt=on on every manifest line).  The \
       corpus-wide superopt gate in CI is this flag with \
       $(b,--validate) $(b,--diff) over examples/."
    in
    Arg.(value & flag & info [ "superopt" ] ~doc)
  in
  let cache_dir_arg =
    let doc =
      "Layer a persistent content-addressed result cache under the in-memory \
       one: entries are written atomically to $(docv) (created if missing) \
       and survive process restarts; corrupt or incompatible files fall back \
       to recompilation.  Superopt window searches are memoized in the same \
       directory."
    in
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let nonneg_int =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 0 -> Ok n
      | Some _ -> Error (`Msg "must be non-negative")
      | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
    in
    Arg.conv (parse, Fmt.int)
  in
  let retries_arg =
    let doc =
      "Retry a job up to $(docv) times after a worker crash (unexpected \
       raise), with exponential backoff and deterministic jitter.  \
       Structured compile errors are never retried."
    in
    Arg.(value & opt nonneg_int 0 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let backoff_arg =
    let doc = "Nominal first retry backoff in milliseconds (doubles per retry)." in
    Arg.(value & opt float 2.0 & info [ "backoff-ms" ] ~docv:"MS" ~doc)
  in
  let deadline_arg =
    let doc =
      "Per-job wall deadline in milliseconds across all attempts; an \
       overrunning job fails with an internal-error diagnostic (overrun is \
       detected between steps, not preempted)."
    in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"MS" ~doc)
  in
  let keep_going_arg =
    let doc =
      "Whether to keep compiling after a job fails (default true).  \
       $(b,--keep-going=false) is fail-fast: jobs not yet started when the \
       first failure lands are canceled."
    in
    Arg.(value & opt bool true & info [ "keep-going" ] ~docv:"BOOL" ~doc)
  in
  let inject_raise_arg =
    let doc =
      "Fault injection: probability in [0,1] that a compile attempt raises \
       (deterministic in --inject-seed, the cache key and the attempt \
       number).  For the R1 experiment and the CI fault gate."
    in
    Arg.(value & opt float 0.0 & info [ "inject-raise" ] ~docv:"P" ~doc)
  in
  let inject_delay_arg =
    let doc = "Fault injection: probability that an attempt sleeps first." in
    Arg.(value & opt float 0.0 & info [ "inject-delay" ] ~docv:"P" ~doc)
  in
  let inject_delay_ms_arg =
    let doc = "Length of an injected delay in milliseconds." in
    Arg.(value & opt float 5.0 & info [ "inject-delay-ms" ] ~docv:"MS" ~doc)
  in
  let inject_seed_arg =
    let doc = "Seed for the deterministic fault-injection draws." in
    Arg.(value & opt int 1 & info [ "inject-seed" ] ~docv:"N" ~doc)
  in
  let run manifest domains rounds cap listings lint diff validate superopt
      cache_dir retries backoff_ms deadline keep_going inject_raise
      inject_delay inject_delay_ms inject_seed trace =
    setup_trace trace;
    handle_diag (fun () ->
        let jobs =
          Service.parse_manifest ~file:manifest ~load:read_file
            (read_file manifest)
        in
        let jobs =
          if lint then List.map (fun j -> { j with Service.j_lint = true }) jobs
          else jobs
        in
        let jobs =
          if diff then List.map (fun j -> { j with Service.j_diff = true }) jobs
          else jobs
        in
        let jobs =
          if validate then
            List.map (fun j -> { j with Service.j_validate = true }) jobs
          else jobs
        in
        let jobs =
          if superopt then
            List.map
              (fun j ->
                { j with
                  Service.j_options =
                    { j.Service.j_options with Msl_mir.Pipeline.superopt = true }
                })
              jobs
          else jobs
        in
        let policy =
          {
            Service.p_retries = retries;
            p_backoff_ms = backoff_ms;
            p_deadline_ms = deadline;
            p_keep_going = keep_going;
          }
        in
        let faults =
          {
            Service.f_seed = inject_seed;
            f_raise = inject_raise;
            f_delay = inject_delay;
            f_delay_ms = inject_delay_ms;
          }
        in
        let service = Service.create ?domains ~capacity:cap ?cache_dir () in
        let failed = ref false in
        for round = 1 to rounds do
          if rounds > 1 then Fmt.pr "== round %d@." round;
          let outcomes = Service.run_batch ~policy ~faults service jobs in
          Array.iter
            (fun (o : Service.outcome) ->
              let id = o.Service.o_job.Service.j_id in
              match o.Service.o_result with
              | Ok (c, listing) ->
                  Fmt.pr "ok    %-28s %4d words, %4d ops%s@." id
                    c.Core.Toolkit.c_words c.Core.Toolkit.c_ops
                    (if o.Service.o_cached then "  (cached)" else "");
                  if c.Core.Toolkit.c_inexact_blocks > 0 then
                    Fmt.epr
                      "mslc: warning: %s: %d block%s hit the \
                       branch-and-bound node budget (raise bb_budget=)@."
                      id c.Core.Toolkit.c_inexact_blocks
                      (if c.Core.Toolkit.c_inexact_blocks = 1 then ""
                       else "s");
                  if listings then print_string listing
              | Error d ->
                  failed := true;
                  Fmt.pr "error %-28s %a@." id pp_job_error d)
            outcomes
        done;
        let s = Service.stats service in
        Fmt.pr
          "-- %d jobs: %d hits, %d misses, %d evictions, %d errors; %d \
           entries cached@."
          s.Service.st_jobs s.Service.st_hits s.Service.st_misses
          s.Service.st_evictions s.Service.st_errors s.Service.st_entries;
        (* extra summary lines only where the new machinery is in play,
           so the default batch output stays byte-identical *)
        if cache_dir <> None then
          Fmt.pr "-- disk cache: %d hits, %d stores@." s.Service.st_disk_hits
            s.Service.st_disk_stores;
        if
          s.Service.st_retries > 0 || s.Service.st_internal > 0
          || s.Service.st_deadline > 0 || s.Service.st_canceled > 0
        then
          Fmt.pr
            "-- faults: %d internal errors, %d retries, %d deadline \
             failures, %d canceled@."
            s.Service.st_internal s.Service.st_retries s.Service.st_deadline
            s.Service.st_canceled;
        if !failed then exit 1)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Batch-compile a manifest of jobs through the content-addressed \
          compilation service")
    Term.(
      const run $ manifest_arg $ domains_arg $ rounds_arg $ cap_arg
      $ listings_arg $ lint_arg $ diff_arg $ validate_arg
      $ superopt_batch_arg $ cache_dir_arg $ retries_arg $ backoff_arg
      $ deadline_arg $ keep_going_arg $ inject_raise_arg $ inject_delay_arg
      $ inject_delay_ms_arg $ inject_seed_arg $ trace_arg)

(* -- stats: summarize a recorded trace --------------------------------- *)

(* Aggregates computed from a parsed trace: span durations by matching
   B/E per domain (spans nest per tid, so a stack suffices), the final
   value of each counter, and instant-event counts. *)
let summarize events =
  let spans = Hashtbl.create 16 in (* (cat,name) -> count, total_us, max_us *)
  let stacks = Hashtbl.create 8 in (* tid -> ((cat,name) * ts) stack *)
  let counters = Hashtbl.create 16 in (* (cat,name) -> last value *)
  let instants = Hashtbl.create 16 in (* (cat,name) -> count *)
  List.iter
    (fun (e : Trace.event) ->
      let key = (e.Trace.ev_cat, e.Trace.ev_name) in
      match e.Trace.ev_ph with
      | "B" ->
          let st =
            Option.value ~default:[] (Hashtbl.find_opt stacks e.Trace.ev_tid)
          in
          Hashtbl.replace stacks e.Trace.ev_tid ((key, e.Trace.ev_ts) :: st)
      | "E" -> (
          match Hashtbl.find_opt stacks e.Trace.ev_tid with
          | Some ((k, t0) :: rest) ->
              Hashtbl.replace stacks e.Trace.ev_tid rest;
              let dur = e.Trace.ev_ts -. t0 in
              let c, tot, mx =
                Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt spans k)
              in
              Hashtbl.replace spans k (c + 1, tot +. dur, Float.max mx dur)
          | _ -> () (* unbalanced end: count nothing, the checker flags it *))
      | "C" ->
          let v =
            match List.assoc_opt "value" e.Trace.ev_args with
            | Some (Trace.J_num v) -> v
            | _ -> 0.
          in
          Hashtbl.replace counters key v
      | _ ->
          Hashtbl.replace instants key
            (1 + Option.value ~default:0 (Hashtbl.find_opt instants key)))
    events;
  let sorted h f =
    Hashtbl.fold (fun k v acc -> f k v :: acc) h [] |> List.sort compare
  in
  ( sorted spans (fun (c, n) (cnt, tot, mx) -> (c, n, cnt, tot, mx)),
    sorted counters (fun (c, n) v -> (c, n, v)),
    sorted instants (fun (c, n) cnt -> (c, n, cnt)) )

let stats_cmd =
  let trace_file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE")
  in
  let format_arg =
    let doc = "Report format: human or json." in
    Arg.(
      value
      & opt (enum [ ("human", `Human); ("json", `Json) ]) `Human
      & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  (* An unreadable, truncated (mid-write) or empty trace is a failed
     check on the trace file, reported as a structured diagnostic with
     exit 1 — never a raw parser exception. *)
  let trace_error msg =
    Fmt.epr "%a@."
      Msl_mir.Diag.pp_compiler_error
      { Diag.phase = Diag.Parsing; loc = Msl_util.Loc.dummy; message = msg };
    exit 1
  in
  let run file format =
    match Trace.read_events file with
    | Error msg -> trace_error msg
    | Ok [] -> trace_error (file ^ ": empty trace (no events)")
    | Ok events -> (
        let spans, counters, instants = summarize events in
        match format with
        | `Human ->
            Fmt.pr "%s: %d events@." file (List.length events);
            if spans <> [] then Fmt.pr "spans:@.";
            List.iter
              (fun (cat, name, cnt, tot, mx) ->
                Fmt.pr "  %-32s %6d  total %10.1f us  max %10.1f us@."
                  (cat ^ "/" ^ name) cnt tot mx)
              spans;
            if counters <> [] then Fmt.pr "counters (final values):@.";
            List.iter
              (fun (cat, name, v) ->
                Fmt.pr "  %-32s %.0f@." (cat ^ "/" ^ name) v)
              counters;
            if instants <> [] then Fmt.pr "instants:@.";
            List.iter
              (fun (cat, name, cnt) ->
                Fmt.pr "  %-32s %6d@." (cat ^ "/" ^ name) cnt)
              instants
        | `Json ->
            let buf = Buffer.create 1024 in
            let item first fmt =
              if not first then Buffer.add_char buf ',';
              Printf.ksprintf (Buffer.add_string buf) fmt
            in
            Printf.ksprintf (Buffer.add_string buf) "{\"events\":%d"
              (List.length events);
            Buffer.add_string buf ",\"spans\":[";
            List.iteri
              (fun i (cat, name, cnt, tot, mx) ->
                item (i = 0)
                  "{\"cat\":%S,\"name\":%S,\"count\":%d,\"total_us\":%.1f,\"max_us\":%.1f}"
                  cat name cnt tot mx)
              spans;
            Buffer.add_string buf "],\"counters\":[";
            List.iteri
              (fun i (cat, name, v) ->
                item (i = 0) "{\"cat\":%S,\"name\":%S,\"value\":%.0f}" cat
                  name v)
              counters;
            Buffer.add_string buf "],\"instants\":[";
            List.iteri
              (fun i (cat, name, cnt) ->
                item (i = 0) "{\"cat\":%S,\"name\":%S,\"count\":%d}" cat name
                  cnt)
              instants;
            Buffer.add_string buf "]}";
            print_endline (Buffer.contents buf))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Summarize a JSONL trace recorded with --trace (span totals, \
          final counter values, instant-event counts)")
    Term.(const run $ trace_file_arg $ format_arg)

(* -- serve / connect: the persistent compile daemon and its client ----- *)

let socket_arg =
  let doc = "Path of the daemon's Unix-domain socket." in
  Arg.(
    required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let module Serve = Msl_core.Serve in
  let domains_arg =
    let doc = "Worker domains compiling concurrently (default: up to 4)." in
    Arg.(
      value & opt (some positive_int) None & info [ "domains"; "j" ] ~docv:"N" ~doc)
  in
  let queue_cap_arg =
    let doc =
      "Global bound on admitted-but-unstarted jobs across all clients; a \
       request that would exceed it blocks its own connection until a \
       worker frees space (pushback, not load shedding)."
    in
    Arg.(value & opt positive_int 64 & info [ "queue-cap" ] ~docv:"N" ~doc)
  in
  let client_cap_arg =
    let doc =
      "Per-client bound on admitted-and-unanswered requests; a client \
       flooding past it (or not reading its responses) blocks only itself."
    in
    Arg.(value & opt positive_int 16 & info [ "client-cap" ] ~docv:"N" ~doc)
  in
  let cap_arg =
    let doc = "In-memory cache capacity (entries)." in
    Arg.(value & opt positive_int 4096 & info [ "capacity" ] ~docv:"N" ~doc)
  in
  let cache_dir_arg =
    let doc =
      "Persistent content-addressed cache directory shared by every client \
       (created if missing; stale tmp files from crashed writers are swept \
       at startup)."
    in
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let run socket domains queue_cap client_cap cap cache_dir trace =
    setup_trace trace;
    handle_diag (fun () ->
        let cfg =
          {
            Serve.sc_socket = socket;
            sc_domains = domains;
            sc_queue_cap = queue_cap;
            sc_client_cap = client_cap;
            sc_capacity = cap;
            sc_cache_dir = cache_dir;
            sc_policy = Msl_core.Service.default_policy;
          }
        in
        let srv =
          try Serve.start cfg
          with Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
            Msl_util.Diag.error Msl_util.Diag.Internal
              "socket %s is in use by a live daemon (connect to it, or \
               shut it down first)"
              socket
        in
        Fmt.epr "mslc serve: listening on %s (%d domains)@." socket
          (Msl_core.Service.domains (Serve.service srv));
        Serve.wait srv)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the toolkit as a persistent daemon on a Unix-domain socket: \
          many concurrent clients, a shared compile cache, bounded queues \
          with per-client backpressure and round-robin fairness.  The \
          JSONL protocol is documented in DESIGN.md; $(b,mslc connect) is \
          its command-line client.")
    Term.(
      const run $ socket_arg $ domains_arg $ queue_cap_arg $ client_cap_arg
      $ cap_arg $ cache_dir_arg $ trace_arg)

let connect_cmd =
  let module Serve = Msl_core.Serve in
  let op_arg =
    let doc = "Request: compile, lint, run, stats or shutdown." in
    Arg.(
      required
      & pos 0 (some (enum
                       [ ("compile", "compile"); ("lint", "lint");
                         ("run", "run"); ("stats", "stats");
                         ("shutdown", "shutdown") ])) None
      & info [] ~docv:"OP" ~doc)
  in
  let file_pos_arg =
    let doc = "Source file to send (compile/lint/run)." in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let lang_str_arg =
    let doc = "Source language: simpl, empl, sstar or yalll." in
    Arg.(
      value & opt (some string) None & info [ "l"; "language" ] ~docv:"LANG" ~doc)
  in
  let listing_arg =
    let doc = "Ask for (and print) the microassembly listing." in
    Arg.(value & flag & info [ "listing" ] ~doc)
  in
  let repeat_arg =
    let doc =
      "Send the job $(docv) times with distinct request ids, pipelined \
       (responses are read concurrently) — a one-flag saturation load."
    in
    Arg.(value & opt positive_int 1 & info [ "repeat" ] ~docv:"N" ~doc)
  in
  let jsonl_arg =
    let doc =
      "Raw protocol mode: forward JSONL request lines from stdin and print \
       raw response lines, one per request (OP and the job flags are \
       ignored)."
    in
    Arg.(value & flag & info [ "jsonl" ] ~doc)
  in
  let engine_str_arg =
    let doc = "Simulation engine for run: interp or compiled." in
    Arg.(value & opt string "compiled" & info [ "engine" ] ~docv:"ENGINE" ~doc)
  in
  let fuel_arg =
    let doc = "Step budget for run." in
    Arg.(value & opt positive_int 2_000_000 & info [ "fuel" ] ~docv:"STEPS" ~doc)
  in
  (* One response line, rendered batch-style.  Returns false when the
     response is an error (drives the exit code). *)
  let print_response line =
    let j name fields = List.assoc_opt name fields in
    let jstr name fields =
      match j name fields with Some (Trace.J_str s) -> Some s | _ -> None
    in
    let jint name fields =
      match j name fields with
      | Some (Trace.J_num f) -> Some (int_of_float f)
      | _ -> None
    in
    let jbool name fields =
      match j name fields with Some (Trace.J_bool b) -> Some b | _ -> None
    in
    match Trace.parse_json line with
    | Ok (Trace.J_obj fields) -> (
        let id = Option.value ~default:"?" (jstr "id" fields) in
        match jbool "ok" fields with
        | Some true -> (
            match Option.value ~default:"" (jstr "op" fields) with
            | "stats" ->
                let g name = Option.value ~default:0 (jint name fields) in
                Fmt.pr
                  "-- serve: %d requests, %d responses, %d errors; queue \
                   peak %d; %d clients@."
                  (g "requests") (g "responses") (g "resp_errors")
                  (g "queue_peak") (g "clients");
                Fmt.pr "-- cache: %d jobs, %d hits, %d misses; %d entries@."
                  (g "jobs") (g "hits") (g "misses") (g "entries");
                true
            | "shutdown" ->
                Fmt.pr "-- shutdown requested@.";
                true
            | _ ->
                let words = Option.value ~default:0 (jint "words" fields) in
                let ops = Option.value ~default:0 (jint "ops" fields) in
                let cached = jbool "cached" fields = Some true in
                let status =
                  match jstr "status" fields with
                  | Some s -> ", " ^ s
                  | None -> ""
                in
                Fmt.pr "ok    %-28s %4d words, %4d ops%s%s@." id words ops
                  status
                  (if cached then "  (cached)" else "");
                (match jstr "listing" fields with
                | Some l -> print_string l
                | None -> ());
                true)
        | _ ->
            Fmt.pr "error %-28s %s@." id
              (Option.value ~default:"malformed response" (jstr "error" fields));
            false)
    | Ok _ | Error _ ->
        Fmt.pr "error %-28s unparseable response: %s@." "?" line;
        false
  in
  (* Send the request lines down one connection while a reader thread
     prints responses as they arrive: pipelined sends against a busy
     daemon would otherwise deadlock with both sides' socket buffers
     full.  Returns the number of error responses. *)
  let exchange conn lines =
    let expected = List.length lines in
    let errors = ref 0 in
    let reader =
      Thread.create
        (fun () ->
          let rec loop n =
            if n < expected then
              match Serve.Client.recv_line conn with
              | Some line ->
                  if not (print_response line) then incr errors;
                  loop (n + 1)
              | None ->
                  Fmt.pr "error: connection closed after %d of %d responses@."
                    n expected;
                  errors := !errors + (expected - n)
          in
          loop 0)
        ()
    in
    List.iter (Serve.Client.send_line conn) lines;
    Thread.join reader;
    !errors
  in
  let run socket op file lang machine opt superopt listing engine fuel repeat
      jsonl =
    handle_diag (fun () ->
        let conn =
          try Serve.Client.connect socket
          with Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
            Msl_util.Diag.error Msl_util.Diag.Internal
              "no daemon is listening on %s (start one with mslc serve)"
              socket
        in
        let finally () = Serve.Client.close conn in
        Fun.protect ~finally (fun () ->
            let errors =
              if jsonl then begin
                let lines = ref [] in
                (try
                   while true do
                     lines := input_line stdin :: !lines
                   done
                 with End_of_file -> ());
                exchange conn (List.rev !lines)
              end
              else
                match op with
                | "stats" | "shutdown" ->
                    exchange conn [ Serve.request ~op ~id:op () ]
                | _ ->
                    let file =
                      match file with
                      | Some f -> f
                      | None ->
                          Msl_util.Diag.error Msl_util.Diag.Parsing
                            "connect %s needs a source FILE" op
                    in
                    let language =
                      match lang with
                      | Some l -> l
                      | None ->
                          Msl_util.Diag.error Msl_util.Diag.Parsing
                            "connect %s needs --language" op
                    in
                    let source = read_file file in
                    let base = Filename.basename file in
                    let lines =
                      List.init repeat (fun k ->
                          let id =
                            if repeat = 1 then
                              Printf.sprintf "%s@%s" base machine
                            else Printf.sprintf "%s@%s#%d" base machine (k + 1)
                          in
                          Serve.request ~op ~id ~language ~machine ~source
                            ~opt ~superopt ~listing ~engine ~fuel ())
                    in
                    exchange conn lines
            in
            if errors > 0 then exit 1))
  in
  Cmd.v
    (Cmd.info "connect"
       ~doc:
         "Send requests to a running $(b,mslc serve) daemon over its \
          Unix-domain socket and print the responses (connection retries \
          cover a daemon still starting up).  Exit 1 if any response \
          reports an error.")
    Term.(
      const run $ socket_arg $ op_arg $ file_pos_arg $ lang_str_arg
      $ machine_arg $ opt_arg $ superopt_arg $ listing_arg $ engine_str_arg
      $ fuel_arg $ repeat_arg $ jsonl_arg)

let () =
  (* `mslc batch … | head` (or a serve client vanishing mid-response)
     must surface as EPIPE on the write, handled per-command — never as
     a fatal SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let info =
    Cmd.info "mslc" ~version:"1.0"
      ~doc:"Microprogramming-language toolkit (Sint 1980 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ compile_cmd; run_cmd; encode_cmd; lint_cmd; verify_cmd;
            machines_cmd; matrix_cmd; experiments_cmd; batch_cmd;
            stats_cmd; serve_cmd; connect_cmd ]))
