(* The engine differential oracle.

   The compiled closure engine (Simc) claims to be observationally
   identical to the cycle-accurate interpreter (Sim.step): same final
   pc, halt flag, cycle and instruction counts, trap and interrupt
   accounting, memory traffic, registers, flags and memory image — the
   whole [Sim.state_digest] — and the same diagnostics on the same
   inputs.  This oracle holds it to that over the entire corpus:

   - every examples/* program on every machine its language targets,
     at -O0 and -O1;
   - the S* benchmark kernels with live data (registers and memory),
     including an out-of-fuel stop mid-kernel;
   - hand-assembled microcode (the Handcoded reference programs);
   - seeded Workloads generators (YALLL corpus, EMPL pressure
     programs) across machines;
   - fuzzed mutants of every example source (the same Workloads.mutate
     corpus the robustness fuzzer runs) — whatever compiles must agree;
   - interrupt schedules against poll-point code (the Int_ack fallback
     boundary), and microtrap schedules in both trap modes.

   Agreement means byte-identical outcome strings: status + digest on a
   completed run, the diagnostic message on a raising one. *)

open Msl_machine
module Core = Msl_core
module Diag = Msl_util.Diag
module Toolkit = Core.Toolkit
module Workloads = Core.Workloads
module Handcoded = Core.Handcoded
module Pipeline = Msl_mir.Pipeline

let opt_options level =
  { Pipeline.default_options with Pipeline.opt_level = level }

(* -- the oracle ---------------------------------------------------------- *)

(* One engine's complete observable outcome, as a comparable string: the
   run status and full state digest when the program ran to a stop, the
   structured diagnostic when it raised.  [Toolkit.capture] is the same
   exception firewall the drivers use, so an engine that crashed with
   anything but a [Diag.Error] shows up as an [Internal] mismatch rather
   than killing the oracle. *)
let outcome ~engine ?setup ?trap_mode ?(fuel = 100_000)
    (c : Toolkit.compiled) =
  match
    Toolkit.capture (fun () ->
        let sim = Toolkit.load ?trap_mode c in
        (match setup with Some f -> f sim | None -> ());
        let status = Toolkit.exec ~engine ~fuel sim in
        let s =
          match status with
          | Sim.Halted -> "halted"
          | Sim.Out_of_fuel -> "out-of-fuel"
        in
        s ^ "\n" ^ Sim.state_digest sim)
  with
  | Ok s -> s
  | Error d -> "error: " ^ d.Diag.message

let engines_agree ?setup ?trap_mode ?fuel what c =
  let interp = outcome ~engine:Toolkit.Interp ?setup ?trap_mode ?fuel c in
  let compiled = outcome ~engine:Toolkit.Compiled ?setup ?trap_mode ?fuel c in
  Alcotest.(check string) what interp compiled

(* -- the example corpus -------------------------------------------------- *)

let machines_of = function
  | Toolkit.Yalll -> [ Machines.hp3; Machines.v11; Machines.b17 ]
  | Toolkit.Simpl -> [ Machines.hp3; Machines.h1; Machines.b17 ]
  | Toolkit.Empl -> [ Machines.hp3; Machines.b17 ]
  | Toolkit.Sstar -> [ Machines.hp3 ]

let example_corpus =
  let dir =
    if Sys.file_exists "../examples" then "../examples" else "examples"
  in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
         let lang =
           if Filename.check_suffix f ".yll" then Some Toolkit.Yalll
           else if Filename.check_suffix f ".simpl" then Some Toolkit.Simpl
           else if Filename.check_suffix f ".empl" then Some Toolkit.Empl
           else None
         in
         match lang with
         | None -> None
         | Some lang ->
             let ic = open_in_bin (Filename.concat dir f) in
             let src = really_input_string ic (in_channel_length ic) in
             close_in ic;
             Some (f, lang, src))

let test_examples () =
  Alcotest.(check bool)
    "corpus populated" true
    (List.length example_corpus >= 6);
  List.iter
    (fun (name, lang, src) ->
      List.iter
        (fun (d : Desc.t) ->
          List.iter
            (fun level ->
              let c =
                Toolkit.compile ~options:(opt_options level) lang d src
              in
              engines_agree
                (Printf.sprintf "examples/%s on %s -O%d" name d.Desc.d_name
                   level)
                c)
            [ 0; 1 ])
        (machines_of lang))
    example_corpus

(* -- the S* kernels with live data --------------------------------------- *)

let mpy_setup sim =
  Sim.set_reg_int sim "R1" 300;
  Sim.set_reg_int sim "R2" 9

let dot_setup sim =
  let mem = Sim.memory sim in
  Memory.load_ints mem ~base:1024 (List.init 16 (fun i -> (i * 37) land 255));
  Memory.load_ints mem ~base:2048 (List.init 16 (fun i -> (i * 11) land 255));
  Sim.set_reg_int sim "R1" 1024;
  Sim.set_reg_int sim "R2" 2048;
  Sim.set_reg_int sim "R3" 16

let kernels =
  [
    ("simpl_mpy", Toolkit.Simpl, Handcoded.simpl_mpy, mpy_setup);
    ("yalll_dot", Toolkit.Yalll, Handcoded.yalll_dot, dot_setup);
  ]

let test_kernels () =
  List.iter
    (fun (name, lang, src, setup) ->
      List.iter
        (fun (d : Desc.t) ->
          let c = Toolkit.compile lang d src in
          engines_agree
            (Printf.sprintf "%s on %s" name d.Desc.d_name)
            ~setup c;
          (* stopping mid-kernel must leave both engines in the same
             place: fuel accounting is part of the contract (the drivers
             turn Out_of_fuel into an exit code) *)
          engines_agree
            (Printf.sprintf "%s on %s, out of fuel" name d.Desc.d_name)
            ~setup ~fuel:50 c)
        (machines_of lang))
    kernels

let test_handcoded () =
  List.iter
    (fun (name, d, src, setup) ->
      let c = Toolkit.assemble d src in
      engines_agree ("assembled " ^ name) ?setup c)
    [
      ("translit_hp3", Machines.hp3, Handcoded.translit_hp3, None);
      ("translit_v11", Machines.v11, Handcoded.translit_v11, None);
      ("fpmul_h1", Machines.h1, Handcoded.fpmul_h1, None);
      ("mpy_h1", Machines.h1, Handcoded.mpy_h1, Some mpy_setup);
      ("dot_hp3", Machines.hp3, Handcoded.dot_hp3, Some dot_setup);
    ]

(* -- seeded generator corpus --------------------------------------------- *)

let test_generated_yalll () =
  List.iter
    (fun seed ->
      let src = Workloads.yalll_program ~seed ~len:(20 + (seed mod 4 * 15)) in
      List.iter
        (fun (d : Desc.t) ->
          let c = Toolkit.compile Toolkit.Yalll d src in
          engines_agree
            (Printf.sprintf "yalll_program seed %d on %s" seed d.Desc.d_name)
            c)
        (machines_of Toolkit.Yalll))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_generated_empl () =
  List.iter
    (fun seed ->
      let src = Workloads.pressure_program ~seed ~nvars:6 ~nops:24 in
      List.iter
        (fun (d : Desc.t) ->
          let c = Toolkit.compile Toolkit.Empl d src in
          engines_agree
            (Printf.sprintf "pressure_program seed %d on %s" seed
               d.Desc.d_name)
            c)
        (machines_of Toolkit.Empl))
    [ 11; 12; 13; 14 ]

(* -- fuzzed mutants (the robustness fuzzer's own corpus) ----------------- *)

let fuzz_example (name, lang, src) =
  QCheck.Test.make ~count:60
    ~name:(Printf.sprintf "examples/%s mutants agree" name)
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; String.length src; 131 |] in
      let src = Workloads.mutate rng src in
      match
        Toolkit.capture (fun () -> Toolkit.compile lang Machines.hp3 src)
      with
      | Error _ -> true (* a mutant the frontend rejects is out of scope *)
      | Ok c ->
          outcome ~engine:Toolkit.Interp ~fuel:20_000 c
          = outcome ~engine:Toolkit.Compiled ~fuel:20_000 c)

(* -- interrupts and microtraps ------------------------------------------- *)

(* Poll-point code contains Int_ack words — the compiled engine's
   interpreter-fallback boundary.  The oracle pins the whole
   acknowledgement story: polls counted, latency accounted, pending
   state cleared identically on both sides of the boundary. *)
let test_interrupts () =
  let options = { (opt_options 1) with Pipeline.poll = true } in
  List.iter
    (fun (name, lang, src, setup, d) ->
      let c = Toolkit.compile ~options lang d src in
      (* the poll-compiled program must actually contain fallback words,
         or this test would never cross the engine boundary it's about *)
      let probe = Simc.translate (Toolkit.load c) in
      Alcotest.(check bool)
        (name ^ " has Int_ack fallback words")
        true
        (Simc.native_words probe < Simc.words probe);
      List.iter
        (fun sched ->
          engines_agree
            (Printf.sprintf "%s on %s, interrupts at [%s]" name
               d.Desc.d_name
               (String.concat ";" (List.map string_of_int sched)))
            ~setup:(fun sim ->
              setup sim;
              Sim.schedule_interrupts sim sched)
            c)
        [
          [ 5 ]; [ 1; 2; 3 ]; [ 100; 200; 300; 1000 ];
          Workloads.interrupt_schedule ~seed:42 ~n:12 ~max_cycle:4000;
        ])
    [
      ("simpl_mpy", Toolkit.Simpl, Handcoded.simpl_mpy, mpy_setup,
       Machines.hp3);
      ("yalll_dot", Toolkit.Yalll, Handcoded.yalll_dot, dot_setup,
       Machines.b17);
    ]

let test_microtraps () =
  let c = Toolkit.compile Toolkit.Yalll Machines.hp3 Handcoded.yalll_dot in
  let absent_setup sim =
    dot_setup sim;
    let mem = Sim.memory sim in
    Memory.mark_absent mem ~page:(Memory.page_of mem 1024);
    Memory.mark_absent mem ~page:(Memory.page_of mem 2048)
  in
  (* Restart mode: both engines take the trap, pay the fault penalty,
     service the page and restart at the same pc *)
  engines_agree "dot with absent pages, Restart" ~trap_mode:Sim.Restart
    ~setup:absent_setup c;
  (* Fault_is_error: both engines surface the same located diagnostic *)
  engines_agree "dot with absent pages, Fault_is_error"
    ~trap_mode:Sim.Fault_is_error ~setup:absent_setup c

(* -- one translation, many runs (the Sim.reset contract) ------------------ *)

let test_reset_reuses_translation () =
  let c = Toolkit.compile Toolkit.Yalll Machines.hp3 Handcoded.yalll_dot in
  let sim = Toolkit.load c in
  let engine = Simc.translate sim in
  let once () =
    dot_setup sim;
    match Simc.run engine with
    | Sim.Halted -> Sim.state_digest sim
    | Sim.Out_of_fuel -> Alcotest.fail "kernel ran out of fuel"
  in
  let first = once () in
  Sim.reset sim;
  let second = once () in
  Alcotest.(check string)
    "two runs from one translation are byte-identical" first second;
  (* and both match a fresh interpreter run *)
  let sim_i = Toolkit.load c in
  dot_setup sim_i;
  ignore (Sim.run sim_i);
  Alcotest.(check string)
    "and match the interpreter" (Sim.state_digest sim_i) second

(* -- first-execution preparation moves no failure earlier ----------------- *)

(* A word whose phase-1 op reads into an immediate, built by hand past
   [Inst.make]'s checks, after a phase-0 register write.  The interpreter
   prepares a word on its first execution; the word must still fail in
   phase 1, after phase 0 committed, on every execution, and the compiled
   engine must leave the same state behind. *)
let test_prepare_keeps_failure_phase () =
  let d = Machines.hp3 in
  let reg n = Inst.A_reg (Desc.get_reg d n).Desc.r_id in
  let imm v = Inst.A_imm (Msl_bitvec.Bitvec.of_int ~width:16 v) in
  let rdr = Option.get (Desc.find_template d "rdr") in
  let word =
    {
      Inst.ops =
        [
          Inst.make d "ldc" [ reg "R1"; imm 5 ];
          { Inst.op_t = rdr; op_args = [| imm 3; reg "R2" |] };
        ];
      next = Inst.Halt;
    }
  in
  let sim = Sim.create d in
  Sim.load_store sim [ word ];
  let fails what run =
    match run () with
    | _ -> Alcotest.failf "%s: the word did not fail" what
    | exception Diag.Error e ->
        Alcotest.(check bool)
          (what ^ ": execution error") true (e.Diag.phase = Diag.Execution);
        Alcotest.(check string)
          (what ^ ": message") "microop writes to an immediate operand"
          e.Diag.message;
        Alcotest.(check int)
          (what ^ ": phase 0 committed") 5
          (Msl_bitvec.Bitvec.to_int (Sim.get_reg sim "R1"));
        Sim.state_digest sim
  in
  let first = fails "first step" (fun () -> Sim.step sim) in
  Sim.reset sim;
  Alcotest.(check string)
    "the prepared word fails alike" first
    (fails "step after reset" (fun () -> Sim.step sim));
  Sim.reset sim;
  let engine = Simc.translate sim in
  Alcotest.(check string)
    "the compiled engine leaves the same state" first
    (fails "compiled run" (fun () -> Simc.run engine))

let () =
  Alcotest.run "engine_diff"
    [
      ( "corpus",
        [
          Alcotest.test_case "every examples/* on every machine, -O0/-O1"
            `Quick test_examples;
          Alcotest.test_case "S* kernels with live data (+ out-of-fuel)"
            `Quick test_kernels;
          Alcotest.test_case "hand-assembled reference microcode" `Quick
            test_handcoded;
        ] );
      ( "generated",
        [
          Alcotest.test_case "seeded YALLL corpus x 3 machines" `Quick
            test_generated_yalll;
          Alcotest.test_case "EMPL pressure programs x 2 machines" `Quick
            test_generated_empl;
        ] );
      ( "fuzzed",
        List.map
          (fun e -> QCheck_alcotest.to_alcotest (fuzz_example e))
          example_corpus );
      ( "boundaries",
        [
          Alcotest.test_case "interrupt schedules at poll points" `Quick
            test_interrupts;
          Alcotest.test_case "microtraps in both trap modes" `Quick
            test_microtraps;
          Alcotest.test_case "Sim.reset reuses a translation" `Quick
            test_reset_reuses_translation;
          Alcotest.test_case "preparation moves no failure earlier" `Quick
            test_prepare_keeps_failure_phase;
        ] );
    ]
