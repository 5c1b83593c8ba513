(* Robustness fuzzing: every frontend (and the microassembler) must answer
   arbitrary input with a structured diagnostic — never an OCaml exception,
   never a crash.  Two generators: raw printable noise, and mutations of
   valid programs (which reach much deeper into the compilers). *)

open Msl_machine
module Core = Msl_core
module Diag = Msl_util.Diag

(* The mutators live in Workloads so the engine differential oracle
   (test_engine_diff) runs the same mutation corpus. *)
let noise = Core.Workloads.noise
let mutate = Core.Workloads.mutate

(* The compiler under test survives when it succeeds (and its thunk's
   property holds) or raises Diag.Error; anything else is a robustness
   bug. *)
let survives f =
  match f () with
  | ok -> ok
  | exception Diag.Error _ -> true
  | exception _ -> false

(* Every fuzzed program that compiles gets the full analyzer run on it:
   the linter must never crash on compiler output — the static
   race/encoding checks must never flag it, and the translation
   validator must never refute a block the compiler itself compacted.
   The MIR/dead/latency checks are exempt from the cleanliness claim: a
   mutated-but-valid source can legitimately contain uninitialized reads
   or unreachable code.  Hand-assembled programs are only held to
   crash-freedom — hand-written microcode may genuinely race, which is
   the analyzer's reason to exist. *)
let lint_config =
  { Msl_mir.Lint.latency_budget = Some 4096; pedantic = true }

let lint_compiled (c : Core.Toolkit.compiled) =
  let d = c.Core.Toolkit.c_machine in
  let labels = c.Core.Toolkit.c_labels in
  let insts = c.Core.Toolkit.c_insts in
  ignore (Msl_mir.Lint.run ~config:lint_config ~labels d insts);
  Msl_mir.Diag.errors
    (Msl_mir.Lint.check_races ~labels d insts
    @ Msl_mir.Lint.check_encoding ~labels d insts)
  = []

let seeds = [ "simpl"; "empl"; "sstar"; "yalll"; "masm" ]

let valid_program = function
  | "simpl" -> Core.Handcoded.simpl_fpmul
  | "empl" ->
      "DECLARE A FIXED;\nDECLARE OUT(1) FIXED;\nA = 6 * 7;\nOUT(0) = A;\n"
  | "sstar" ->
      "program P;\nvar x : seq [15..0] bit at R1;\n\
       begin while x <> 0 inv { true } do x := x - 1 od end\n"
  | "yalll" -> Core.Handcoded.yalll_translit
  | _ -> Core.Handcoded.translit_hp3

(* Compile with the Tv capture hook live and hold every compacted block
   to its reference schedule: a refutation on an honest compile is a
   compaction bug, so it fails the property outright. *)
let compile_validated lang d src =
  let c, proof = Core.Toolkit.compile_for_proof lang d src in
  let tv, _ = Core.Toolkit.prove d proof in
  lint_compiled c && tv.Msl_mir.Tv.v_refuted = 0

let compile_of lang src =
  let d = Machines.hp3 in
  let via l () = compile_validated l d src in
  match lang with
  | "simpl" -> via Core.Toolkit.Simpl
  | "empl" -> via Core.Toolkit.Empl
  | "sstar" -> via Core.Toolkit.Sstar
  | "yalll" -> via Core.Toolkit.Yalll
  | _ ->
      fun () ->
        let insts = Masm.parse_program d src in
        ignore (Msl_mir.Lint.run ~config:lint_config d insts);
        true

let fuzz_lang lang =
  QCheck.Test.make ~count:600
    ~name:(Printf.sprintf "%s survives hostile input" lang)
    QCheck.(pair (int_bound 1_000_000) (int_range 0 160))
    (fun (seed, len) ->
      let rng = Random.State.make [| seed; len |] in
      let src =
        if Random.State.bool rng then noise rng len
        else mutate rng (valid_program lang)
      in
      survives (compile_of lang src))

(* The shipped example programs are a richer mutation corpus than the
   handcoded seeds: they exercise loops, shifts, subroutine-free control
   flow and the EMPL allocator.  Every [examples/*] source is mutated
   against its own frontend. *)
let example_corpus =
  let dir =
    if Sys.file_exists "../examples" then "../examples" else "examples"
  in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
         let lang =
           if Filename.check_suffix f ".yll" then Some Core.Toolkit.Yalll
           else if Filename.check_suffix f ".simpl" then
             Some Core.Toolkit.Simpl
           else if Filename.check_suffix f ".empl" then Some Core.Toolkit.Empl
           else None
         in
         match lang with
         | None -> None
         | Some lang ->
             let ic = open_in_bin (Filename.concat dir f) in
             let src = really_input_string ic (in_channel_length ic) in
             close_in ic;
             Some (f, lang, src))

let corpus_is_populated () =
  Alcotest.(check bool)
    "at least six example sources" true
    (List.length example_corpus >= 6)

let fuzz_example (name, lang, src) =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "examples/%s survives mutation" name)
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; String.length src; 97 |] in
      let src = mutate rng src in
      survives (fun () -> compile_validated lang Machines.hp3 src))

(* The batch-manifest parser must answer arbitrary manifest text — and
   arbitrary [load] behaviour, including missing files — with a located
   [Diag.Error], never a crash. *)
let valid_manifest =
  "# demo manifest\n\
   yalll hp3 a.yll\n\
   simpl b17 b.simpl algo=fcfs chain=off id=b@b17\n\
   empl hp3 c.empl strategy=first-fit pool=4\n\
   yalll v11 a.yll trap_safe=on poll=off microops=on\n"

let fuzz_manifest =
  QCheck.Test.make ~count:800 ~name:"manifest parser survives hostile input"
    QCheck.(pair (int_bound 1_000_000) (int_range 0 200))
    (fun (seed, len) ->
      let rng = Random.State.make [| seed; len; 77 |] in
      let text =
        if Random.State.bool rng then noise rng len
        else mutate rng valid_manifest
      in
      let load path =
        match Random.State.int rng 3 with
        | 0 -> raise (Sys_error (path ^ ": no such file or directory"))
        | 1 -> noise rng 32
        | _ -> "exit\n"
      in
      survives (fun () ->
          ignore (Core.Service.parse_manifest ~file:"fuzz.manifest" ~load text);
          true))

(* The .mdesc elaborator is an input surface like any frontend: mutated
   machine descriptions (seeded from the canonical rendering of each
   shipped machine, or raw noise) must come back as located diagnostics
   — or as a valid Desc.t, never as a raw exception.  Generated machines
   (Workloads.gen_machine) are also mutated, so the fuzz corpus is not
   limited to the four shipped layouts. *)
let mdesc_sources =
  List.map Mdesc.to_source Machines.all

let fuzz_mdesc =
  QCheck.Test.make ~count:600 ~name:"mdesc elaborator survives hostile input"
    QCheck.(pair (int_bound 1_000_000) (int_range 0 200))
    (fun (seed, len) ->
      let rng = Random.State.make [| seed; len; 41 |] in
      let src =
        match Random.State.int rng 6 with
        | 0 -> noise rng len
        | 1 -> mutate rng (Core.Workloads.gen_machine ~seed)
        | _ ->
            mutate rng
              (List.nth mdesc_sources
                 (Random.State.int rng (List.length mdesc_sources)))
      in
      survives (fun () ->
          ignore (Mdesc.parse ~file:"fuzz.mdesc" src);
          true))

(* Every generated machine must elaborate cleanly: gen_machine feeds the
   M1 machine-space sweep, so an invalid description here would poison
   the experiment rather than test the toolchain. *)
let gen_machine_is_valid =
  QCheck.Test.make ~count:200 ~name:"gen_machine always elaborates"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let src = Core.Workloads.gen_machine ~seed in
      let d = Mdesc.parse ~file:"gen.mdesc" src in
      Array.length d.Desc.d_templates > 0)

let () =
  Alcotest.run "fuzz"
    [
      ( "frontends",
        List.map (fun l -> QCheck_alcotest.to_alcotest (fuzz_lang l)) seeds );
      ( "examples",
        Alcotest.test_case "corpus populated" `Quick corpus_is_populated
        :: List.map
             (fun e -> QCheck_alcotest.to_alcotest (fuzz_example e))
             example_corpus );
      ("manifest", [ QCheck_alcotest.to_alcotest fuzz_manifest ]);
      ( "machine descriptions",
        [
          QCheck_alcotest.to_alcotest fuzz_mdesc;
          QCheck_alcotest.to_alcotest gen_machine_is_valid;
        ] );
    ]
