(* The experiment drivers: one function per table/figure of EXPERIMENTS.md.
   Each returns a rendered table (and exposes the raw numbers the test
   suite checks the *shape* claims against). *)

open Msl_bitvec
open Msl_machine
module Tbl = Msl_util.Tbl
module Pipeline = Msl_mir.Pipeline
module Compaction = Msl_mir.Compaction
module Regalloc = Msl_mir.Regalloc
module Dataflow = Msl_mir.Dataflow
module Mir = Msl_mir.Mir
module Tv = Msl_mir.Tv

(* Every experiment compilation goes through one shared service, so
   regenerating several tables (or the same table twice, as T4/T5 style
   sweeps do) reuses cached results instead of recompiling. *)
let service = Service.create ~domains:1 ()

let cached_compile ?options ?use_microops lang d src =
  Service.compile_cached service ?options ?use_microops lang d src

let cached_assemble d src = Service.assemble_cached service d src

(* Experiments that study a single pipeline stage (the allocator under
   pressure, the compaction achievable on raw blocks, the survey-era
   compilers that shipped no optimizer) pin the machine-independent
   optimizer off, so the stage under study sees the same program the
   survey's compilers would have.  The optimizer gets its own table
   (O1) instead of silently skewing theirs. *)
let o0 = { Pipeline.default_options with Pipeline.opt_level = 0 }

(* -- T1: the language matrix --------------------------------------------------- *)

let t1 () = [ Language_info.to_table (); Language_info.tallies_table () ]

(* -- T2: compiled vs hand-written code size ------------------------------------- *)

type t2_row = {
  t2_name : string;
  t2_machine : string;
  t2_compiled : int;  (* control-store words at -O1 *)
  t2_o2 : int;  (* with the proof-gated superoptimizer (-O2) *)
  t2_hand : int;
}

(* -O2: the -O1 pipeline plus the post-compaction window superoptimizer,
   every rewrite carrying a symbolic equivalence proof. *)
let o2 = { Pipeline.default_options with Pipeline.opt_level = 2 }

let t2_rows () =
  let words (c : Toolkit.compiled) = c.Toolkit.c_words in
  let row t2_name t2_machine lang d src hand =
    {
      t2_name;
      t2_machine;
      t2_compiled = words (cached_compile lang d src);
      t2_o2 = words (cached_compile ~options:o2 lang d src);
      t2_hand = words (cached_assemble d hand);
    }
  in
  [
    row "transliterate (YALLL)" "HP3" Toolkit.Yalll Machines.hp3
      Handcoded.yalll_translit Handcoded.translit_hp3;
    row "transliterate (YALLL)" "V11" Toolkit.Yalll Machines.v11
      Handcoded.yalll_translit_v11 Handcoded.translit_v11;
    row "fp multiply (SIMPL)" "H1" Toolkit.Simpl Machines.h1
      Handcoded.simpl_fpmul Handcoded.fpmul_h1;
    row "multiply loop (SIMPL)" "H1" Toolkit.Simpl Machines.h1
      Handcoded.simpl_mpy Handcoded.mpy_h1;
    row "dot product (YALLL)" "HP3" Toolkit.Yalll Machines.hp3
      Handcoded.yalll_dot Handcoded.dot_hp3;
  ]

let t2 () =
  let t =
    Tbl.make
      ~title:
        "T2: compiled vs hand-written code size (survey: MPGL stayed within \
         +15%)"
      ~aligns:
        [ Tbl.Left; Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right;
          Tbl.Right ]
      [ "program"; "machine"; "-O1 words"; "-O2 words"; "hand words";
        "-O1 overhead"; "-O2 overhead" ]
  in
  List.iter
    (fun r ->
      Tbl.add_row t
        [
          r.t2_name; r.t2_machine;
          Tbl.cell_int r.t2_compiled;
          Tbl.cell_int r.t2_o2;
          Tbl.cell_int r.t2_hand;
          Tbl.cell_pct r.t2_compiled r.t2_hand;
          Tbl.cell_pct r.t2_o2 r.t2_hand;
        ])
    (t2_rows ());
  t

(* -- T3: YALLL on two machines ---------------------------------------------------- *)

let translit_setup d sim =
  let mem = Sim.memory sim in
  for i = 0 to 127 do
    Memory.poke mem (500 + i) (Bitvec.of_int ~width:d.Desc.d_word (i + 1))
  done;
  Memory.load_ints mem ~base:300 [ 104; 101; 108; 108; 111; 0 ]  (* "hello" *)

type t3_row = {
  t3_machine : string;
  t3_words : int;
  t3_cycles : int;
  t3_ops : int;
}

let t3_rows () =
  let run d src str_reg tbl_reg =
    let c = cached_compile Toolkit.Yalll d src in
    let sim =
      Toolkit.run c ~setup:(fun sim ->
          translit_setup d sim;
          Sim.set_reg_int sim str_reg 300;
          Sim.set_reg_int sim tbl_reg 500)
    in
    { t3_machine = d.Desc.d_name; t3_words = c.Toolkit.c_words;
      t3_cycles = Sim.cycles sim; t3_ops = c.Toolkit.c_ops }
  in
  [
    run Machines.hp3 Handcoded.yalll_translit "DB" "SB";
    run Machines.v11 Handcoded.yalll_translit_v11 "R0" "R1";
  ]

let t3 () =
  let t =
    Tbl.make
      ~title:
        "T3: the same YALLL program on its two machines (survey: \"the HP \
         implementation performed a lot better\")"
      ~aligns:[ Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right ]
      [ "machine"; "words"; "microops"; "cycles" ]
  in
  List.iter
    (fun r ->
      Tbl.add_row t
        [ r.t3_machine; Tbl.cell_int r.t3_words; Tbl.cell_int r.t3_ops;
          Tbl.cell_int r.t3_cycles ])
    (t3_rows ());
  t

(* -- T4: compaction algorithms ------------------------------------------------------ *)

type t4_row = {
  t4_machine : string;
  t4_n : int;
  t4_pdep : int;
  t4_words : (Compaction.algo * int) list;
  t4_nodes : int;
  t4_exact : bool;
}

let t4_algos =
  [ Compaction.Sequential; Compaction.Fcfs; Compaction.Critical_path;
    Compaction.Optimal ]

let t4_rows () =
  let cases =
    [ (Machines.hp3, 8, 30); (Machines.hp3, 16, 30); (Machines.hp3, 16, 60);
      (Machines.h1, 12, 30); (Machines.h1, 12, 60); (Machines.hp3, 28, 40) ]
  in
  List.mapi
    (fun i (d, n, p_dep) ->
      let ops = Workloads.compaction_block d ~seed:(i + 1) ~n ~p_dep in
      let nodes = ref 0 and exact = ref true in
      let words =
        List.map
          (fun algo ->
            let r = Compaction.compact ~algo d ops in
            if algo = Compaction.Optimal then begin
              nodes := r.Compaction.nodes;
              exact := r.Compaction.exact
            end;
            (algo, List.length r.Compaction.groups))
          t4_algos
      in
      { t4_machine = d.Desc.d_name; t4_n = n; t4_pdep = p_dep; t4_words = words;
        t4_nodes = !nodes; t4_exact = !exact })
    cases

let t4 () =
  let t =
    Tbl.make
      ~title:
        "T4: microinstruction composition algorithms [refs 3, 18, 21, 22]"
      ~aligns:
        [ Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right;
          Tbl.Right; Tbl.Right ]
      [ "machine"; "ops"; "dep%"; "sequential"; "fcfs"; "critical-path";
        "optimal"; "B&B nodes" ]
  in
  List.iter
    (fun r ->
      let w algo = List.assoc algo r.t4_words in
      Tbl.add_row t
        [
          r.t4_machine; Tbl.cell_int r.t4_n; Tbl.cell_int r.t4_pdep;
          Tbl.cell_int (w Compaction.Sequential);
          Tbl.cell_int (w Compaction.Fcfs);
          Tbl.cell_int (w Compaction.Critical_path);
          Tbl.cell_int (w Compaction.Optimal)
          ^ (if r.t4_exact then "" else "*");
          Tbl.cell_int r.t4_nodes;
        ])
    (t4_rows ());
  t

(* -- T5: register allocation under pressure ------------------------------------------ *)

type t5_row = {
  t5_nregs : int;
  t5_strategy : Regalloc.strategy;
  t5_spilled : int;
  t5_traffic : int;  (* spill loads + stores (static) *)
}

let t5_rows () =
  let src = Workloads.pressure_program ~seed:7 ~nvars:48 ~nops:150 in
  let sizes = [ 4; 8; 16; 32; 64; 128; 256 ] in
  List.concat_map
    (fun nregs ->
      let d = Sweeper.machine ~nregs in
      List.map
        (fun strategy ->
          let c =
            cached_compile
              ~options:{ o0 with Pipeline.strategy }
              Toolkit.Empl d src
          in
          match c.Toolkit.c_alloc with
          | Some s ->
              {
                t5_nregs = nregs;
                t5_strategy = strategy;
                t5_spilled = s.Regalloc.spilled;
                t5_traffic = s.Regalloc.spill_loads + s.Regalloc.spill_stores;
              }
          | None ->
              { t5_nregs = nregs; t5_strategy = strategy; t5_spilled = 0;
                t5_traffic = 0 })
        [ Regalloc.First_fit; Regalloc.Priority ])
    sizes

let t5 () =
  let t =
    Tbl.make
      ~title:
        "T5: spill traffic vs register-file size, 16..256 being the survey's \
         range (48 symbolic variables)"
      ~aligns:[ Tbl.Right; Tbl.Left; Tbl.Right; Tbl.Right ]
      [ "registers"; "allocator"; "vars spilled"; "spill load/stores" ]
  in
  List.iter
    (fun r ->
      Tbl.add_row t
        [
          Tbl.cell_int r.t5_nregs;
          Regalloc.strategy_name r.t5_strategy;
          Tbl.cell_int r.t5_spilled;
          Tbl.cell_int r.t5_traffic;
        ])
    (t5_rows ());
  t

(* -- T6: macro interpretation vs compiled vs hand microcode --------------------------- *)

type t6_row = { t6_version : string; t6_cycles : int; t6_speedup : float }

let t6_rows () =
  let x = [ 3; 1; 4; 1; 5; 9; 2; 6; 5; 3; 5; 9 ] in
  let y = [ 2; 7; 1; 8; 2; 8; 1; 8; 2; 8; 4; 5 ] in
  let expected = Emulator.dot_reference x y in
  (* 1: interpreted on the microcoded MAC-16 *)
  let sim_macro =
    Emulator.run Emulator.dot_macro ~setup:(Emulator.dot_setup ~x ~y)
  in
  assert (Bitvec.to_int (Memory.peek (Sim.memory sim_macro) 13) = expected);
  let macro_cycles = Sim.cycles sim_macro in
  (* 2: a high-level EMPL version — symbolic variables, multiplication left
     to the compiler's shift-and-add expansion: the survey's "factor of
     five with comparatively little effort".  Compiled at -O0: EMPL shipped
     no optimizer, and at -O1 the constant products would fold away and
     measure nothing *)
  let empl_src =
    let pairs =
      List.map2 (fun a b -> Printf.sprintf "A = %d * %d;\nS = S + A;\n" a b) x y
    in
    "DECLARE S FIXED;\nDECLARE A FIXED;\nDECLARE OUT(1) FIXED;\nS = 0;\n"
    ^ String.concat "" pairs ^ "OUT(0) = S;\n"
  in
  let ce = cached_compile ~options:o0 Toolkit.Empl Machines.hp3 empl_src in
  let sim_e = Toolkit.run ce in
  let found =
    let mem = Sim.memory sim_e in
    let base = Machines.hp3.Desc.d_scratch_base - 256 in
    let rec scan a =
      a < Machines.hp3.Desc.d_scratch_base
      && (Bitvec.to_int (Memory.peek mem a) = expected || scan (a + 1))
    in
    scan base
  in
  assert found;
  let empl_cycles = Sim.cycles sim_e in
  (* 3: compiled microcode (YALLL) *)
  let setup_micro sim =
    Memory.load_ints (Sim.memory sim) ~base:100 x;
    Memory.load_ints (Sim.memory sim) ~base:200 y;
    Sim.set_reg_int sim "R1" 100;
    Sim.set_reg_int sim "R2" 200;
    Sim.set_reg_int sim "R3" (List.length x)
  in
  let c = cached_compile Toolkit.Yalll Machines.hp3 Handcoded.yalll_dot in
  let sim_c = Toolkit.run c ~setup:setup_micro in
  assert (Bitvec.to_int (Sim.get_reg sim_c "R0") = expected);
  let compiled_cycles = Sim.cycles sim_c in
  (* 3: hand microcode *)
  let h = cached_assemble Machines.hp3 Handcoded.dot_hp3 in
  let sim_h = Toolkit.run h ~setup:setup_micro in
  assert (Bitvec.to_int (Sim.get_reg sim_h "R0") = expected);
  let hand_cycles = Sim.cycles sim_h in
  let sp c = float_of_int macro_cycles /. float_of_int c in
  [
    { t6_version = "MAC-16 macroprogram (interpreted)"; t6_cycles = macro_cycles;
      t6_speedup = 1.0 };
    { t6_version = "high-level microcode (EMPL, symbolic vars)";
      t6_cycles = empl_cycles; t6_speedup = sp empl_cycles };
    { t6_version = "compiled microcode (YALLL)"; t6_cycles = compiled_cycles;
      t6_speedup = sp compiled_cycles };
    { t6_version = "hand-written microcode"; t6_cycles = hand_cycles;
      t6_speedup = sp hand_cycles };
  ]

let t6 () =
  let t =
    Tbl.make
      ~title:
        "T6: dot product four ways on HP3 (survey: ~5x compiled vs ~10x \
         expert microcode)"
      ~aligns:[ Tbl.Left; Tbl.Right; Tbl.Right ]
      [ "version"; "cycles"; "speedup" ]
  in
  List.iter
    (fun r ->
      Tbl.add_row t
        [ r.t6_version; Tbl.cell_int r.t6_cycles;
          Printf.sprintf "%.1fx" r.t6_speedup ])
    (t6_rows ());
  t

(* -- T7: horizontal vs vertical -------------------------------------------------------- *)

type t7_row = {
  t7_program : string;
  t7_machine : string;
  t7_cycles : int;
  t7_word_bits : int;
  t7_program_bits : int;
}

let t7_rows () =
  let progs =
    [ ("multiply loop (SIMPL)", Handcoded.simpl_mpy,
       fun sim ->
         Sim.set_reg_int sim "R1" 11;
         Sim.set_reg_int sim "R2" 9);
      ("while sum (SIMPL)",
       "begin 25 -> R1; 0 -> R2; while R1 <> 0 do begin R2 + R1 -> R2; R1 - \
        1 -> R1; end; end",
       fun _ -> ()) ]
  in
  List.concat_map
    (fun (name, src, setup) ->
      List.map
        (fun d ->
          let c = cached_compile Toolkit.Simpl d src in
          let sim = Toolkit.run c ~setup in
          {
            t7_program = name;
            t7_machine = d.Desc.d_name;
            t7_cycles = Sim.cycles sim;
            t7_word_bits = d.Desc.d_word_bits;
            t7_program_bits = c.Toolkit.c_bits;
          })
        [ Machines.hp3; Machines.b17 ])
    progs

let t7 () =
  let t =
    Tbl.make
      ~title:
        "T7: horizontal (HP3) vs vertical (B17) encoding [Dasgupta 79]: \
         vertical trades speed for narrow words"
      ~aligns:[ Tbl.Left; Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right ]
      [ "program"; "machine"; "cycles"; "word bits"; "program bits" ]
  in
  List.iter
    (fun r ->
      Tbl.add_row t
        [
          r.t7_program; r.t7_machine; Tbl.cell_int r.t7_cycles;
          Tbl.cell_int r.t7_word_bits; Tbl.cell_int r.t7_program_bits;
        ])
    (t7_rows ());
  t

(* -- T8: compiler sizes ------------------------------------------------------------------ *)

let count_lines dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then None
  else
    Some
      (Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
      |> List.fold_left
           (fun acc f ->
             let ic = open_in (Filename.concat dir f) in
             let n = ref 0 in
             (try
                while true do
                  ignore (input_line ic);
                  incr n
                done
              with End_of_file -> close_in ic);
             acc + !n)
           0)

let t8 () =
  let t =
    Tbl.make
      ~title:
        "T8: compiler sizes (survey: each YALLL compiler was ~5000 lines; a \
         full optimising compiler \"will be huge\")"
      ~aligns:[ Tbl.Left; Tbl.Right; Tbl.Left ]
      [ "component"; "lines"; "role" ]
  in
  let row name dir role =
    match count_lines dir with
    | Some n -> Tbl.add_row t [ name; Tbl.cell_int n; role ]
    | None -> Tbl.add_row t [ name; "n/a"; role ]
  in
  row "SIMPL frontend" "lib/simpl" "lexer+parser+compiler";
  row "EMPL frontend" "lib/empl" "lexer+parser+inliner+compiler";
  row "S* frontend" "lib/sstar" "lexer+parser+composer+verifier";
  row "YALLL frontend" "lib/yalll" "parser+compiler";
  row "shared middle end" "lib/mir" "dataflow+compaction+allocation+selection";
  row "machine layer" "lib/machine"
    "elaborator+engines+assembler+encoder+symexec";
  t

(* -- F1: single-identity parallelism vs block size ----------------------------------------- *)

type f1_row = {
  f1_n : int;
  f1_parallelism : float;  (* available under the single-identity order *)
  f1_ops_per_word_h1 : float;  (* achieved on H1 (3-phase, chained) *)
  f1_ops_per_word_hp3 : float;
}

let f1_rows () =
  let achieved d stmts =
    let p =
      { Mir.main = [ { Mir.b_label = "b"; b_stmts = stmts; b_term = Mir.Halt } ];
        procs = []; vreg_names = []; next_vreg = 0 }
    in
    (* -O0: F1 measures what compaction alone realises on raw blocks *)
    let _, _, m = Pipeline.compile ~options:o0 d p in
    if m.Pipeline.m_instructions = 0 then 0.0
    else float_of_int m.Pipeline.m_ops /. float_of_int m.Pipeline.m_instructions
  in
  List.map
    (fun n ->
      let stmts = Workloads.simpl_block Machines.hp3 ~seed:n ~n ~p_dep:40 in
      let stmts_h1 = Workloads.simpl_block Machines.h1 ~seed:n ~n ~p_dep:40 in
      {
        f1_n = n;
        f1_parallelism = Dataflow.parallelism stmts;
        f1_ops_per_word_h1 = achieved Machines.h1 stmts_h1;
        f1_ops_per_word_hp3 = achieved Machines.hp3 stmts;
      })
    [ 4; 8; 16; 32; 64 ]

let f1 () =
  let t =
    Tbl.make
      ~title:
        "F1: parallelism under the single-identity order vs what the \
         machines realise (ops per word)"
      ~aligns:[ Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right ]
      [ "block size"; "available"; "achieved HP3"; "achieved H1" ]
  in
  List.iter
    (fun r ->
      Tbl.add_row t
        [
          Tbl.cell_int r.f1_n;
          Tbl.cell_float r.f1_parallelism;
          Tbl.cell_float r.f1_ops_per_word_hp3;
          Tbl.cell_float r.f1_ops_per_word_h1;
        ])
    (f1_rows ());
  t

(* -- F2: interrupts and microtraps (survey §2.1.5) ------------------------------------------ *)

type f2_result = {
  f2_poll : bool;
  f2_serviced : int;
  f2_avg_latency : float;
  f2_max_latency : int;
  f2_total_cycles : int;
}

let f2_interrupts () =
  let d = Machines.hp3 in
  let src =
    "begin 400 -> R1; 0 -> R2; while R1 <> 0 do begin R2 + R1 -> R2; R1 - 1 \
     -> R1; end; end"
  in
  let p = Msl_simpl.Compile.parse_compile d src in
  let run poll =
    let sim, _, _ =
      Pipeline.load ~options:{ Pipeline.default_options with poll } d p
    in
    Sim.schedule_interrupts sim [ 100; 500; 900; 1300; 1700 ];
    (match Sim.run sim with
    | Sim.Halted -> ()
    | Sim.Out_of_fuel -> failwith "F2 loop did not halt");
    let avg, mx = Sim.interrupt_latency_stats sim in
    {
      f2_poll = poll;
      f2_serviced = Sim.interrupts_serviced sim;
      f2_avg_latency = avg;
      f2_max_latency = mx;
      f2_total_cycles = Sim.cycles sim;
    }
  in
  [ run false; run true ]

(* The incread microtrap hazard, reproduced and repaired — both at the
   microassembly level and by the compiler's trap-safe recompilation pass
   on the SIMPL source. *)
type f2_trap = { f2_variant : string; f2_final : int; f2_traps : int }

let f2_traps () =
  let d = Machines.hp3 in
  let run_insts insts =
    let sim = Sim.create ~trap_mode:Sim.Restart d in
    Sim.load_store sim insts;
    Sim.set_reg_int sim "R1" 299;
    Memory.mark_absent (Sim.memory sim) ~page:1;
    (match Sim.run sim with
    | Sim.Halted -> ()
    | Sim.Out_of_fuel -> failwith "trap demo did not halt");
    (Bitvec.to_int (Sim.get_reg sim "R1"), Sim.traps_taken sim)
  in
  let run_masm src = run_insts (Masm.parse_program d src) in
  let buggy = "  [ inc R1, R1 ]\n  [ mov MAR, R1 ]\n  [ rd ]\n  [ ] -> halt\n" in
  let safe =
    "  [ inc R2, R1 ]\n  [ mov MAR, R2 ]\n  [ rd ]\n  [ mov R1, R2 ]\n\
    \  [ ] -> halt\n"
  in
  let vb, tb = run_masm buggy in
  let vs, ts = run_masm safe in
  (* the survey's incread, from SIMPL source, compiled both ways *)
  let incread_src = "begin R1 + 1 -> R1; read R1 -> R2; end" in
  let run_simpl trap_safe =
    let p = Msl_simpl.Compile.parse_compile d incread_src in
    let insts, _, _ =
      Pipeline.compile ~options:{ Pipeline.default_options with trap_safe } d p
    in
    run_insts insts
  in
  let vc, tc = run_simpl false in
  let vt, tt = run_simpl true in
  [
    { f2_variant = "hand microcode, as written (survey's bug)"; f2_final = vb;
      f2_traps = tb };
    { f2_variant = "hand microcode, restart-safe"; f2_final = vs; f2_traps = ts };
    { f2_variant = "compiled SIMPL incread, literal"; f2_final = vc;
      f2_traps = tc };
    { f2_variant = "compiled SIMPL incread, trap_safe pass"; f2_final = vt;
      f2_traps = tt };
  ]

let f2 () =
  let t =
    Tbl.make
      ~title:
        "F2a: interrupt service with and without compiler poll points \
         (survey: \"completely neglected\")"
      ~aligns:[ Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right ]
      [ "poll points"; "serviced (of 5)"; "avg latency"; "max latency";
        "total cycles" ]
  in
  List.iter
    (fun r ->
      Tbl.add_row t
        [
          (if r.f2_poll then "back edges" else "none");
          Tbl.cell_int r.f2_serviced;
          Tbl.cell_float r.f2_avg_latency;
          Tbl.cell_int r.f2_max_latency;
          Tbl.cell_int r.f2_total_cycles;
        ])
    (f2_interrupts ());
  let t2 =
    Tbl.make
      ~title:
        "F2b: the incread page-fault hazard (R1 starts at 299; correct \
         final value is 300)"
      ~aligns:[ Tbl.Left; Tbl.Right; Tbl.Right ]
      [ "variant"; "final R1"; "traps" ]
  in
  List.iter
    (fun r ->
      Tbl.add_row t2
        [ r.f2_variant; Tbl.cell_int r.f2_final; Tbl.cell_int r.f2_traps ])
    (f2_traps ());
  [ t; t2 ]

(* -- A1: design-choice ablations -------------------------------------------------------------- *)

type a1_row = { a1_what : string; a1_base : int; a1_variant : int; a1_unit : string }

let a1_rows () =
  (* (a) transport chaining on the 3-phase H1: a memory-traversal program
     whose address transfers (phase 0) chain into reads (phase 2) *)
  let chain_src =
    "begin 200 -> R1; read R1 -> R2; R2 + R2 -> R3; R3 -> R4; write R4 -> \
     R1; end"
  in
  let p = Msl_simpl.Compile.parse_compile Machines.h1 chain_src in
  let words chain =
    let _, _, m =
      Pipeline.compile ~options:{ o0 with Pipeline.chain } Machines.h1 p
    in
    m.Pipeline.m_instructions
  in
  let chain_on = words true and chain_off = words false in
  (* (b) EMPL MICROOP vs inlining on B17 *)
  let stack_src =
    "TYPE STACK\n  DECLARE STK(16) FIXED;\n  DECLARE STKPTR FIXED;\n\
    \  DECLARE VALUE FIXED;\n  INITIALLY DO; STKPTR = 0; END;\n\
    \  PUSH: OPERATION ACCEPTS (VALUE)\n        MICROOP: PUSH 3 0;\n\
    \        IF STKPTR = 16 THEN ERROR;\n\
    \        ELSE DO; STKPTR = STKPTR + 1; STK(STKPTR) = VALUE; END\n\
     END;\n\
    \  POP: OPERATION RETURNS (VALUE)\n        MICROOP: POP 3 0;\n\
    \        IF STKPTR = 0 THEN ERROR;\n\
    \        ELSE DO; VALUE = STK(STKPTR); STKPTR = STKPTR - 1; END\n\
     END;\n\
     ENDTYPE;\n\
     DECLARE S STACK;\nDECLARE A FIXED;\n\
     S.PUSH(1);\nS.PUSH(2);\nS.PUSH(3);\nA = S.POP();\nA = S.POP();\n"
  in
  let stack_words use_microops =
    (cached_compile ~options:o0 ~use_microops Toolkit.Empl Machines.b17
       stack_src)
      .Toolkit.c_words
  in
  (* (c) priority vs first-fit on a tight machine *)
  let pressure = Workloads.pressure_program ~seed:3 ~nvars:24 ~nops:80 in
  let traffic strategy =
    let c =
      cached_compile
        ~options:{ o0 with Pipeline.strategy; pool_limit = Some 6 }
        Toolkit.Empl Machines.hp3 pressure
    in
    match c.Toolkit.c_alloc with
    | Some s -> s.Regalloc.spill_loads + s.Regalloc.spill_stores
    | None -> 0
  in
  [
    { a1_what = "H1 memory walk words: chaining on/off"; a1_base = chain_on;
      a1_variant = chain_off; a1_unit = "words" };
    { a1_what = "B17 stack words: MICROOP/inlined"; a1_base = stack_words true;
      a1_variant = stack_words false; a1_unit = "words" };
    { a1_what = "HP3 spill traffic: priority/first-fit";
      a1_base = traffic Regalloc.Priority;
      a1_variant = traffic Regalloc.First_fit; a1_unit = "load/stores" };
  ]

let a1 () =
  let t =
    Tbl.make ~title:"A1: design-choice ablations"
      ~aligns:[ Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Left ]
      [ "choice"; "with"; "without"; "unit" ]
  in
  List.iter
    (fun r ->
      Tbl.add_row t
        [ r.a1_what; Tbl.cell_int r.a1_base; Tbl.cell_int r.a1_variant;
          r.a1_unit ])
    (a1_rows ());
  t

(* -- O1: the machine-independent optimizer ---------------------------------------------------- *)

(* The survey's compilers translated statement by statement; §2.1.4 notes a
   "huge" optimising compiler would be needed to close the gap to hand
   code.  The MIR optimizer (constant folding/propagation, dead-assignment
   elimination, branch simplification, jump threading) is machine
   independent, so one implementation serves all four languages — this
   table shows what it buys before compaction even starts.  S* rides along
   as the control: the programmer composes the microinstructions directly,
   there is no MIR, and -O1 changes nothing. *)

type o1_row = {
  o1_program : string;
  o1_language : Toolkit.language;
  o1_machine : Desc.t;
  o1_words0 : int;  (* control-store words at -O0 *)
  o1_bits0 : int;
  o1_words1 : int;  (* and at -O1 *)
  o1_bits1 : int;
}

let o1_yalll_src =
  "reg x = r1\nreg y = r2\nreg z = r3\nset x, 9\nset y, 174\n\
   lsl x, x, 3\nror y, y, 2\nxor z, x, y\nadd x, x, z\nasr y, z, 1\n\
   or x, x, y\nnot y, x\nand x, x, y\nneg y, y\nsub x, x, y\nexit x\n"

let o1_simpl_src =
  "begin 6 -> R1; R1 + 7 -> R1; R1 | 9 -> R1; R1 & 1023 -> R2;\n\
  \ R2 - 5 -> R2; write R2 -> R1; end"

let o1_empl_src =
  "DECLARE A FIXED;\nDECLARE B FIXED;\nDECLARE C FIXED;\nDECLARE S FIXED;\n\
   DECLARE OUT(1) FIXED;\nA = 6 * 7;\nB = A + 19;\nC = B XOR A;\n\
   S = A + B;\nS = S + C;\nS = S & 1023;\nOUT(0) = S;\n"

let o1_sstar_src =
  "program MPY;\n\
   var left_alu_in : seq [63..0] bit at R4;\n\
   var right_alu_in : seq [63..0] bit at R5;\n\
   var aluout : seq [63..0] bit at R6;\n\
   var localstore : array [0..2] of seq [63..0] bit at regs R1, R2, R3;\n\
   const minus1 = dec (64) -1 at R8;\n\
   syn mpr = localstore[0], mpnd = localstore[1], product = localstore[2];\n\
   begin\n\
  \  repeat\n\
  \    cocycle\n\
  \      cobegin left_alu_in := product; right_alu_in := mpnd coend;\n\
  \      aluout := left_alu_in + right_alu_in;\n\
  \      product := aluout\n\
  \    end;\n\
  \    cocycle\n\
  \      cobegin left_alu_in := mpr; right_alu_in := minus1 coend;\n\
  \      aluout := left_alu_in + right_alu_in;\n\
  \      mpr := aluout\n\
  \    end\n\
  \  until aluout = 0\n\
   end\n"

let o1_rows () =
  let cases =
    [
      ("straight-line shifts", Toolkit.Yalll, o1_yalll_src,
       [ Machines.hp3; Machines.v11 ]);
      ("constant cascade", Toolkit.Simpl, o1_simpl_src,
       [ Machines.hp3; Machines.b17 ]);
      ("constant fold", Toolkit.Empl, o1_empl_src,
       [ Machines.hp3; Machines.b17 ]);
      ("composed multiply (control)", Toolkit.Sstar, o1_sstar_src,
       [ Machines.h1 ]);
    ]
  in
  List.concat_map
    (fun (name, lang, src, machines) ->
      List.map
        (fun d ->
          let c0 = cached_compile ~options:o0 lang d src in
          let c1 =
            cached_compile ~options:Pipeline.default_options lang d src
          in
          {
            o1_program = name;
            o1_language = lang;
            o1_machine = d;
            o1_words0 = c0.Toolkit.c_words;
            o1_bits0 = c0.Toolkit.c_bits;
            o1_words1 = c1.Toolkit.c_words;
            o1_bits1 = c1.Toolkit.c_bits;
          })
        machines)
    cases

let o1 () =
  let t =
    Tbl.make
      ~title:
        "O1: the machine-independent MIR optimizer across languages and \
         machines (survey \u{00a7}2.1.4: optimization left to the -- never \
         built -- \"huge\" compilers)"
      ~aligns:
        [ Tbl.Left; Tbl.Left; Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right;
          Tbl.Right; Tbl.Right ]
      [ "program"; "language"; "machine"; "-O0 words"; "-O1 words";
        "reduction"; "-O0 bits"; "-O1 bits" ]
  in
  List.iter
    (fun r ->
      Tbl.add_row t
        [
          r.o1_program;
          Toolkit.language_name r.o1_language;
          r.o1_machine.Desc.d_name;
          Tbl.cell_int r.o1_words0;
          Tbl.cell_int r.o1_words1;
          Tbl.cell_pct r.o1_words1 r.o1_words0;
          Tbl.cell_int r.o1_bits0;
          Tbl.cell_int r.o1_bits1;
        ])
    (o1_rows ());
  t

(* -- L1: seeded defect injection vs the static analyzer ------------------------- *)

(* How much of each injected compiler-defect class the independent
   analyzer (Msl_mir.Lint.validate_machine) actually catches.  Races and
   field overflows must be 100% (test_lint pins that); swapped operands
   are caught only when the swap is type-wrong; a dropped dependence
   edge reorders computation without creating any intra-word hazard, so
   its low rate is the honest negative result — only the differential
   simulator oracle sees those. *)

type l1_row = {
  l1_machine : Desc.t;
  l1_defect : Workloads.defect;
  l1_injected : int;
  l1_detected : int;
  l1_validated : int;
      (* mutants the translation validator refutes.  Closes the analyzer's
         honest blind spot: drop-dep races are invisible to the resource
         checker, but every drop-dep mutant that observably diverges
         (probe-confirmed) must be REFUTED — asserted below. *)
}

let l1_machines = [ Machines.hp3; Machines.h1; Machines.v11; Machines.b17 ]

(* The block generator has no v11 templates, so v11 rides the YALLL
   whole-program corpus — at -O0, where the generator programs keep
   enough register reuse to offer race-injection sites. *)
let l1_corpus d =
  if d.Desc.d_name = Machines.v11.Desc.d_name then
    List.map
      (fun seed ->
        let src = Workloads.yalll_program ~seed ~len:14 in
        let c = cached_compile ~options:o0 Toolkit.Yalll d src in
        c.Toolkit.c_insts)
      [ 1; 2; 3; 4; 5; 6 ]
  else
    List.map
      (fun seed ->
        let ops = Workloads.compaction_block d ~seed ~n:16 ~p_dep:40 in
        let r =
          Compaction.compact ~chain:true ~algo:Compaction.Critical_path d ops
        in
        List.map (fun g -> { Inst.ops = g; next = Inst.Next })
          r.Compaction.groups
        @ [ { Inst.ops = []; next = Inst.Halt } ])
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let l1_rows () =
  List.concat_map
    (fun d ->
      let corpus = l1_corpus d in
      List.map
        (fun defect ->
          let injected = ref 0 and detected = ref 0 and validated = ref 0 in
          List.iter
            (fun insts ->
              List.iter
                (fun seed ->
                  match Workloads.inject_defect d ~seed defect insts with
                  | None -> ()
                  | Some mutant ->
                      incr injected;
                      if
                        Msl_mir.Diag.errors
                          (Msl_mir.Lint.validate_machine d mutant)
                        <> []
                      then incr detected;
                      let refuted =
                        (Tv.validate_program d ~reference:insts
                           ~candidate:mutant)
                          .Tv.v_refuted > 0
                      in
                      if refuted then incr validated;
                      (* the analyzer's blind spot, closed: any drop-dep
                         mutant the differential probe can observe must be
                         refuted by the validator *)
                      if
                        defect = Workloads.D_drop_dep && (not refuted)
                        && Workloads.miscompile_probe d ~seed insts mutant
                           <> None
                      then
                        failwith
                          (Printf.sprintf
                             "L1: observable drop-dep mutant (%s, seed %d) \
                              not refuted by the translation validator"
                             d.Desc.d_name seed))
                [ 0; 1; 2; 3; 4 ])
            corpus;
          { l1_machine = d; l1_defect = defect; l1_injected = !injected;
            l1_detected = !detected; l1_validated = !validated })
        Workloads.all_defects)
    l1_machines

let l1 () =
  let rate det inj =
    if inj = 0 then "n/a"
    else Printf.sprintf "%.0f%%" (100.0 *. float_of_int det /. float_of_int inj)
  in
  let t =
    Tbl.make
      ~title:
        "L1: seeded compiler-defect injection vs the static analyzer and \
         the translation validator (mutants of honestly compiled \
         programs; detected = any lint error finding, refuted = Tv \
         counterexample or structural mismatch)"
      ~aligns:
        [ Tbl.Left; Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right;
          Tbl.Right ]
      [ "machine"; "defect"; "injected"; "detected"; "rate"; "refuted";
        "tv rate" ]
  in
  List.iter
    (fun r ->
      Tbl.add_row t
        [
          r.l1_machine.Desc.d_name;
          Workloads.defect_name r.l1_defect;
          Tbl.cell_int r.l1_injected;
          Tbl.cell_int r.l1_detected;
          rate r.l1_detected r.l1_injected;
          Tbl.cell_int r.l1_validated;
          rate r.l1_validated r.l1_injected;
        ])
    (l1_rows ());
  t

(* -- M1: the machine-space sweep ------------------------------------------------ *)

(* The mdesc tentpole claim, measured: the toolchain is machine-generic,
   not four-machines-generic.  Each seeded machine (Workloads.gen_machine)
   is elaborated from its .mdesc text, compiles a small YALLL corpus,
   must come through Microlint with zero error findings, and must run to
   the same architectural state on the interpreter and the compiled
   engine.  The driver asserts the clean-sweep claims directly, so
   `mslc experiments m1` doubles as the CI gate. *)

type m1_row = {
  m1_style : string;
  m1_machines : int;
  m1_programs : int;
  m1_words : int;  (* control-store words across the corpus *)
  m1_lint : int;  (* Microlint error findings; the claim is 0 *)
  m1_mismatches : int;  (* engine state-digest disagreements; claim 0 *)
  m1_tv_bad : int;
      (* translation-validation REFUTED + UNKNOWN blocks; claim 0 — every
         compacted block of every generated machine proves equivalent to
         its pre-compaction schedule *)
}

let m1_default_machines = 100
let m1_programs_per_machine = 3

let m1_style (d : Desc.t) =
  if d.Desc.d_vertical then "vertical 3-op"
  else if Desc.find_template d "shl1" <> None then "fixed-ACC horizontal"
  else "3-op horizontal"

let m1_rows ?(n = m1_default_machines) () =
  let tally = Hashtbl.create 4 in
  for seed = 1 to n do
    let src = Workloads.gen_machine ~seed in
    let d = Mdesc.parse ~file:(Printf.sprintf "gen-%d.mdesc" seed) src in
    let style = m1_style d in
    let row =
      match Hashtbl.find_opt tally style with
      | Some r -> r
      | None ->
          let r =
            ref
              { m1_style = style; m1_machines = 0; m1_programs = 0;
                m1_words = 0; m1_lint = 0; m1_mismatches = 0; m1_tv_bad = 0 }
          in
          Hashtbl.add tally style r;
          r
    in
    row := { !row with m1_machines = !row.m1_machines + 1 };
    for p = 1 to m1_programs_per_machine do
      let psrc =
        Workloads.yalll_program ~seed:((seed * 31) + p) ~len:12
      in
      (* fresh compiles: generated machines must not pollute (or be
         served by) the shared experiment cache *)
      let c, proof = Toolkit.compile_for_proof Toolkit.Yalll d psrc in
      let tv, _ = Toolkit.prove d proof in
      let lint =
        List.length
          (Msl_mir.Diag.errors
             (Msl_mir.Lint.validate_machine d c.Toolkit.c_insts))
      in
      let digest engine =
        let sim, status = Toolkit.run_status ~engine c in
        assert (status = Sim.Halted);
        Sim.state_digest sim
      in
      let mism = if digest Toolkit.Interp = digest Toolkit.Compiled then 0 else 1 in
      row :=
        { !row with
          m1_programs = !row.m1_programs + 1;
          m1_words = !row.m1_words + c.Toolkit.c_words;
          m1_lint = !row.m1_lint + lint;
          m1_mismatches = !row.m1_mismatches + mism;
          m1_tv_bad = !row.m1_tv_bad + tv.Tv.v_refuted + tv.Tv.v_unknown }
    done
  done;
  let rows =
    Hashtbl.fold (fun _ r acc -> !r :: acc) tally []
    |> List.sort (fun a b -> compare a.m1_style b.m1_style)
  in
  (* the sweep's claims, asserted — a dirty machine space must fail the
     experiment run, not just discolor a table *)
  assert (List.fold_left (fun acc r -> acc + r.m1_machines) 0 rows = n);
  List.iter
    (fun r ->
      assert (r.m1_lint = 0);
      assert (r.m1_mismatches = 0);
      assert (r.m1_tv_bad = 0))
    rows;
  rows

let m1 () =
  let t =
    Tbl.make
      ~title:
        (Printf.sprintf
           "M1: machine-space sweep — %d seeded .mdesc machines x %d YALLL \
            programs, compile + Microlint + translation validation + \
            interp/compiled engine oracle"
           m1_default_machines m1_programs_per_machine)
      ~aligns:
        [ Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right;
          Tbl.Right ]
      [ "machine style"; "machines"; "programs"; "words"; "lint errors";
        "engine mismatches"; "tv refuted+unknown" ]
  in
  List.iter
    (fun r ->
      Tbl.add_row t
        [
          r.m1_style; Tbl.cell_int r.m1_machines; Tbl.cell_int r.m1_programs;
          Tbl.cell_int r.m1_words; Tbl.cell_int r.m1_lint;
          Tbl.cell_int r.m1_mismatches; Tbl.cell_int r.m1_tv_bad;
        ])
    (m1_rows ());
  t

(* -- V1: translation validation — honest compiles vs seeded miscompiles --------- *)

(* The validator tentpole claim, measured from both sides.  Honest half:
   every example program, compiled for every machine its language targets
   at -O0 and -O1 with the pipeline's capture hook, must come through
   {!Msl_mir.Tv} with zero REFUTED and zero UNKNOWN blocks — compaction
   is proved equivalent, not trusted.  Mutant half: probe-confirmed
   miscompiles ({!Workloads.inject_miscompile} — resource-clean word
   streams that compute something else) over the L1 corpus must all be
   REFUTED, and every witness store must replay to divergent
   architectural digests through the interpreter.  The driver asserts
   both claims, so `mslc experiments v1` doubles as the CI gate. *)

type v1_honest_row = {
  v1h_language : Toolkit.language;
  v1h_machine : string;
  v1h_opt : int;
  v1h_programs : int;
  v1h_blocks : int;
  v1h_proved : int;  (* symbolically validated *)
  v1h_refuted : int;  (* claim: 0 *)
  v1h_unknown : int;  (* claim: 0 *)
}

type v1_mutant_row = {
  v1m_machine : string;
  v1m_kind : Workloads.miscompile;
  v1m_injected : int;
  v1m_refuted : int;  (* claim: = injected *)
  v1m_replayed : int;
      (* witness stores replaying to divergent digests; claim: = injected *)
}

(* The example corpus rides in from disk when it is around (the drivers
   run from the repo root); a generated YALLL corpus keeps the experiment
   meaningful when it is not. *)
let v1_examples () =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let dir =
    List.find_opt
      (fun d -> Sys.file_exists d && Sys.is_directory d)
      [ "examples"; "../examples"; "../../examples" ]
  in
  match dir with
  | Some dir ->
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.filter_map (fun f ->
             let lang =
               match Filename.extension f with
               | ".yll" -> Some Toolkit.Yalll
               | ".simpl" -> Some Toolkit.Simpl
               | ".empl" -> Some Toolkit.Empl
               | _ -> None
             in
             Option.map (fun l -> (f, l, read (Filename.concat dir f))) lang)
  | None ->
      List.map
        (fun seed ->
          ( Printf.sprintf "gen-%d.yll" seed,
            Toolkit.Yalll,
            Workloads.yalll_program ~seed ~len:12 ))
        [ 1; 2; 3; 4; 5 ]

(* the machine matrix of the CI gates: every machine a language targets *)
let v1_machines = function
  | Toolkit.Yalll -> [ Machines.hp3; Machines.v11; Machines.b17 ]
  | Toolkit.Simpl -> [ Machines.hp3; Machines.h1; Machines.b17 ]
  | Toolkit.Empl -> [ Machines.hp3; Machines.b17 ]
  | Toolkit.Sstar -> []  (* no compaction, nothing to validate *)

let v1_honest_rows () =
  let examples = v1_examples () in
  let rows =
    List.concat_map
      (fun lang ->
        let programs = List.filter (fun (_, l, _) -> l = lang) examples in
        if programs = [] then []
        else
          List.concat_map
            (fun (d : Desc.t) ->
              List.map
                (fun (opt, options) ->
                  (* fresh compiles: only the capture hook sees the
                     pre-compaction schedules *)
                  let results =
                    List.map
                      (fun (_, _, src) ->
                        let _, proof =
                          Toolkit.compile_for_proof ~options lang d src
                        in
                        fst (Toolkit.prove d proof))
                      programs
                  in
                  let sum f =
                    List.fold_left (fun acc r -> acc + f r) 0 results
                  in
                  { v1h_language = lang; v1h_machine = d.Desc.d_name;
                    v1h_opt = opt; v1h_programs = List.length programs;
                    v1h_blocks = sum (fun r -> r.Tv.v_total);
                    v1h_proved = sum (fun r -> r.Tv.v_validated);
                    v1h_refuted = sum (fun r -> r.Tv.v_refuted);
                    v1h_unknown = sum (fun r -> r.Tv.v_unknown) })
                [ (0, o0); (1, Pipeline.default_options) ])
            (v1_machines lang))
      [ Toolkit.Yalll; Toolkit.Simpl; Toolkit.Empl ]
  in
  (* the false-alarm claim, asserted: an honest compile never refutes and
     never exhausts the budget *)
  List.iter
    (fun r ->
      if r.v1h_refuted > 0 || r.v1h_unknown > 0 then
        failwith
          (Printf.sprintf
             "V1: honest %s compile on %s at -O%d: %d refuted, %d unknown"
             (Toolkit.language_name r.v1h_language)
             r.v1h_machine r.v1h_opt r.v1h_refuted r.v1h_unknown))
    rows;
  rows

let v1_mutant_rows () =
  List.concat_map
    (fun (d : Desc.t) ->
      let corpus = l1_corpus d in
      List.map
        (fun kind ->
          let injected = ref 0 and refuted = ref 0 and replayed = ref 0 in
          List.iter
            (fun insts ->
              List.iter
                (fun seed ->
                  match Workloads.inject_miscompile d ~seed kind insts with
                  | None -> ()
                  | Some (mutant, witness) ->
                      incr injected;
                      let r =
                        Tv.validate_program d ~reference:insts
                          ~candidate:mutant
                      in
                      if r.Tv.v_refuted > 0 then incr refuted
                      else
                        failwith
                          (Printf.sprintf
                             "V1: %s miscompile (%s, seed %d) not refuted \
                              by the translation validator"
                             (Workloads.miscompile_name kind) d.Desc.d_name
                             seed);
                      if Tv.replay d insts witness <> Tv.replay d mutant witness
                      then
                        incr replayed
                      else
                        failwith
                          (Printf.sprintf
                             "V1: %s witness (%s, seed %d) does not replay \
                              to divergent digests"
                             (Workloads.miscompile_name kind) d.Desc.d_name
                             seed))
                [ 0; 1; 2 ])
            corpus;
          { v1m_machine = d.Desc.d_name; v1m_kind = kind;
            v1m_injected = !injected; v1m_refuted = !refuted;
            v1m_replayed = !replayed })
        Workloads.all_miscompiles)
    l1_machines

let v1 () =
  let honest =
    Tbl.make
      ~title:
        "V1a: translation validation over the example corpus (honest \
         compiles, every target machine, -O0 and -O1; claims: refuted = \
         unknown = 0)"
      ~aligns:
        [ Tbl.Left; Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right;
          Tbl.Right; Tbl.Right ]
      [ "language"; "machine"; "-O"; "programs"; "blocks"; "proved";
        "refuted"; "unknown" ]
  in
  List.iter
    (fun r ->
      Tbl.add_row honest
        [
          Toolkit.language_name r.v1h_language; r.v1h_machine;
          Tbl.cell_int r.v1h_opt; Tbl.cell_int r.v1h_programs;
          Tbl.cell_int r.v1h_blocks; Tbl.cell_int r.v1h_proved;
          Tbl.cell_int r.v1h_refuted;
          Tbl.cell_int r.v1h_unknown;
        ])
    (v1_honest_rows ());
  let mutants =
    Tbl.make
      ~title:
        "V1b: seeded miscompile injection vs the validator \
         (probe-confirmed mutants of the L1 corpus; claims: refuted = \
         replayed = injected)"
      ~aligns:[ Tbl.Left; Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right ]
      [ "machine"; "miscompile"; "injected"; "refuted"; "replayed" ]
  in
  List.iter
    (fun r ->
      Tbl.add_row mutants
        [
          r.v1m_machine;
          Workloads.miscompile_name r.v1m_kind;
          Tbl.cell_int r.v1m_injected;
          Tbl.cell_int r.v1m_refuted;
          Tbl.cell_int r.v1m_replayed;
        ])
    (v1_mutant_rows ());
  [ honest; mutants ]

(* -- R1: fault injection against the service firewall ---------------------------- *)

(* Each configuration replays the same mixed batch through a fresh,
   private service (injected faults must not touch the shared experiment
   cache) under deterministic fault injection, and reports completion,
   retry and latency figures.  The driver asserts the tentpole claims
   directly: a batch under injected raises/delays still yields one
   outcome per job (the firewall holds — nothing aborts the batch), and
   with retries enabled every job ultimately succeeds. *)

type r1_row = {
  r1_config : string;
  r1_jobs : int;
  r1_ok : int;
  r1_failed : int;
  r1_retries : int;
  r1_internal : int;  (* firewalled raises, per attempt *)
  r1_avg_ms : float;  (* per-job wall latency, backoff included *)
  r1_max_ms : float;
}

let r1_jobs () =
  List.concat_map
    (fun (d : Desc.t) ->
      List.map
        (fun seed ->
          Service.job Toolkit.Yalll ~machine:d.Desc.d_name
            ~source:(Workloads.yalll_program ~seed ~len:10)
            ~id:(Printf.sprintf "r1-%s-%d" d.Desc.d_name seed))
        [ 1; 2; 3; 4; 5; 6; 7; 8 ])
    [ Machines.hp3; Machines.v11; Machines.b17 ]

let r1_configs =
  let policy retries =
    { Service.default_policy with Service.p_retries = retries; p_backoff_ms = 0.5 }
  in
  let faults ?(p_raise = 0.0) ?(p_delay = 0.0) () =
    { Service.f_seed = 1; f_raise = p_raise; f_delay = p_delay; f_delay_ms = 2.0 }
  in
  [
    ("no faults", policy 0, faults (), `All_complete);
    ("raise p=0.5, no retry", policy 0, faults ~p_raise:0.5 (), `All_complete);
    ("raise p=0.5, 10 retries", policy 10, faults ~p_raise:0.5 (), `All_ok);
    ( "raise p=0.3 + delay p=0.5 (2 ms), 10 retries",
      policy 10,
      faults ~p_raise:0.3 ~p_delay:0.5 (),
      `All_ok );
  ]

let r1_rows () =
  let jobs = r1_jobs () in
  let njobs = List.length jobs in
  List.map
    (fun (config, policy, faults, expect) ->
      (* the batch-completion claim, under a real domain fan-out *)
      let batch = Service.create ~domains:4 () in
      let outcomes = Service.run_batch ~policy ~faults batch jobs in
      assert (Array.length outcomes = njobs);
      (* per-job latency, measured sequentially on a second cold service
         so one job's backoff cannot hide inside another's compile *)
      let timed = Service.create ~domains:1 () in
      let latencies =
        List.map
          (fun j ->
            let t0 = Msl_util.Clock.now_s () in
            let o = Service.compile_job ~policy ~faults timed j in
            let ms = Msl_util.Clock.elapsed_s t0 *. 1000.0 in
            (o, ms))
          jobs
      in
      let ok =
        List.length
          (List.filter (fun (o, _) -> Result.is_ok o.Service.o_result) latencies)
      in
      (match expect with
      | `All_complete -> ()
      | `All_ok -> assert (ok = njobs));
      let st = Service.stats timed in
      let ms = List.map snd latencies in
      {
        r1_config = config;
        r1_jobs = njobs;
        r1_ok = ok;
        r1_failed = njobs - ok;
        r1_retries = st.Service.st_retries;
        r1_internal = st.Service.st_internal;
        r1_avg_ms = List.fold_left ( +. ) 0.0 ms /. float_of_int njobs;
        r1_max_ms = List.fold_left Float.max 0.0 ms;
      })
    r1_configs

let r1 () =
  let t =
    Tbl.make
      ~title:
        "R1: deterministic fault injection vs the service firewall (24 \
         YALLL jobs on HP3/V11/B17; every configuration completes the \
         whole batch, failures confined to per-job diagnostics)"
      ~aligns:
        [ Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right;
          Tbl.Right; Tbl.Right ]
      [ "configuration"; "jobs"; "ok"; "failed"; "retries"; "internal";
        "avg ms"; "max ms" ]
  in
  List.iter
    (fun r ->
      Tbl.add_row t
        [
          r.r1_config;
          Tbl.cell_int r.r1_jobs;
          Tbl.cell_int r.r1_ok;
          Tbl.cell_int r.r1_failed;
          Tbl.cell_int r.r1_retries;
          Tbl.cell_int r.r1_internal;
          Tbl.cell_float ~digits:2 r.r1_avg_ms;
          Tbl.cell_float ~digits:2 r.r1_max_ms;
        ])
    (r1_rows ());
  t

(* Each generator runs as an "experiment" span, so a traced regeneration
   shows where the time goes table by table. *)
let table name f = Msl_util.Trace.with_span ~cat:"experiment" name f

(* Every experiment, under the name [mslc experiments] takes. *)
let all : (string * (unit -> Tbl.t list)) list =
  let one f () = [ f () ] in
  [
    ("t1", t1); ("t2", one t2); ("t3", one t3); ("t4", one t4);
    ("t5", one t5); ("t6", one t6); ("t7", one t7); ("t8", one t8);
    ("f1", one f1); ("f2", f2); ("a1", one a1); ("o1", one o1);
    ("l1", one l1); ("m1", one m1); ("v1", v1); ("r1", one r1);
  ]

let all_tables () = List.concat_map (fun (name, f) -> table name f) all
