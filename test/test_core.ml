(* Tests for the core library: the survey matrix, hand-coded baselines,
   the MAC-16 emulator, and — most importantly — the *shape claims* every
   experiment must reproduce (EXPERIMENTS.md records the numbers; these
   tests pin the directions). *)

open Msl_bitvec
open Msl_machine
module Core = Msl_core
module Compaction = Msl_mir.Compaction
module Regalloc = Msl_mir.Regalloc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- T1: the matrix reproduces the survey's tallies ------------------------- *)

let test_t1_tallies () =
  check_int "ten languages" 10 (List.length Core.Language_info.languages);
  check_int "eight sequential" 8 Core.Language_info.sequential_count;
  check_int "two explicit" 2 Core.Language_info.explicit_count;
  check_int "three symbolic" 3 Core.Language_info.symbolic_count;
  check_int "no parameter passing" 0 Core.Language_info.parameter_passing_count;
  check_int "interrupts neglected" 0 Core.Language_info.interrupts_count;
  check_int "two verification-oriented" 2
    (List.length
       (List.filter
          (fun l -> l.Core.Language_info.verification)
          Core.Language_info.languages));
  check_bool "tables render" true
    (String.length (Msl_util.Tbl.render (Core.Language_info.to_table ())) > 0)

(* -- hand-coded baselines are correct ------------------------------------------ *)

let test_handcoded_translit () =
  let d = Machines.hp3 in
  let c = Core.Toolkit.assemble d Core.Handcoded.translit_hp3 in
  let sim =
    Core.Toolkit.run c ~setup:(fun sim ->
        let mem = Sim.memory sim in
        for i = 0 to 127 do
          Memory.poke mem (500 + i) (Bitvec.of_int ~width:16 (i + 1))
        done;
        Memory.load_ints mem ~base:300 [ 97; 98; 99; 0 ];
        Sim.set_reg_int sim "DB" 300;
        Sim.set_reg_int sim "SB" 500)
  in
  List.iteri
    (fun i e ->
      check_int "hand translit" e
        (Bitvec.to_int (Memory.peek (Sim.memory sim) (300 + i))))
    [ 98; 99; 100; 0 ]

let test_handcoded_mpy () =
  let d = Machines.h1 in
  let c = Core.Toolkit.assemble d Core.Handcoded.mpy_h1 in
  let sim =
    Core.Toolkit.run c ~setup:(fun sim ->
        Sim.set_reg_int sim "R1" 13;
        Sim.set_reg_int sim "R2" 11)
  in
  check_int "hand mpy" 143 (Bitvec.to_int (Sim.get_reg sim "R3"))

(* compiled and hand-written fpmul agree on many inputs (differential) *)
let test_fpmul_parity () =
  let d = Machines.h1 in
  let compiled = Core.Toolkit.compile Core.Toolkit.Simpl d Core.Handcoded.simpl_fpmul in
  let hand = Core.Toolkit.assemble d Core.Handcoded.fpmul_h1 in
  let exp_mask = Int64.shift_left 0x1FFFL 50 in
  let man_mask = Int64.sub (Int64.shift_left 1L 50) 1L in
  let run c a b =
    let sim =
      Core.Toolkit.run c ~setup:(fun sim ->
          Sim.set_reg sim "R1" (Bitvec.of_int64 ~width:64 a);
          Sim.set_reg sim "R2" (Bitvec.of_int64 ~width:64 b);
          Sim.set_reg sim "R8" (Bitvec.of_int64 ~width:64 exp_mask);
          Sim.set_reg sim "R9" (Bitvec.of_int64 ~width:64 man_mask))
    in
    Bitvec.to_int64 (Sim.get_reg sim "R3")
  in
  let mk e m = Int64.logor (Int64.shift_left (Int64.of_int e) 50) m in
  List.iter
    (fun (a, b) ->
      Alcotest.(check int64)
        "fpmul parity" (run hand a b) (run compiled a b))
    [ (mk 3 5L, mk 4 9L); (mk 100 12345L, mk 7 98765L); (mk 0 0L, mk 1 7L);
      (mk 1 man_mask, mk 1 1L) ]

(* -- the emulator substrate ------------------------------------------------------ *)

let test_emulator_basics () =
  (* 6*7 by repeated addition at the macro level *)
  let prog =
    Core.Emulator.link
      [
        Core.Emulator.I (Core.Emulator.Loadi 0);
        Core.Emulator.I (Core.Emulator.Store 20);
        Core.Emulator.L "loop";
        Core.Emulator.I (Core.Emulator.Load 20);
        Core.Emulator.I (Core.Emulator.Add 21);
        Core.Emulator.I (Core.Emulator.Store 20);
        Core.Emulator.I (Core.Emulator.Decm 22);
        Core.Emulator.I (Core.Emulator.Load 22);
        Core.Emulator.Iref ((fun a -> Core.Emulator.Jnz a), "loop");
        Core.Emulator.I (Core.Emulator.Load 20);
        Core.Emulator.I Core.Emulator.Halt;
      ]
  in
  let sim =
    Core.Emulator.run prog ~setup:(fun sim ->
        Memory.load_ints (Sim.memory sim) ~base:21 [ 6; 7 ])
  in
  check_int "macro 6*7" 42 (Core.Emulator.acc sim)

let test_emulator_indirect () =
  let prog =
    Core.Emulator.link
      [
        Core.Emulator.I (Core.Emulator.Loadx 30);  (* ACC := mem[mem[30]] *)
        Core.Emulator.I (Core.Emulator.Stox 31);  (* mem[mem[31]] := ACC *)
        Core.Emulator.I (Core.Emulator.Incm 30);
        Core.Emulator.I Core.Emulator.Halt;
      ]
  in
  let sim =
    Core.Emulator.run prog ~setup:(fun sim ->
        let mem = Sim.memory sim in
        Memory.load_ints mem ~base:30 [ 50; 60 ];
        Memory.load_ints mem ~base:50 [ 77 ])
  in
  check_int "indirect copy" 77
    (Bitvec.to_int (Memory.peek (Sim.memory sim) 60));
  check_int "incm" 51 (Bitvec.to_int (Memory.peek (Sim.memory sim) 30))

(* -- experiment shape claims --------------------------------------------------------- *)

let test_t2_shape () =
  (* hand-written code is never larger than block-at-a-time compiled
     code (-O1); the superoptimizer (-O2) never loses to -O1 — it may
     even beat the hand code, as on the V11 transliterate loop — and
     the worst -O2 case stays strictly below the +100% that -O1 pays
     on the multiply loop *)
  let rows = Core.Experiments.t2_rows () in
  List.iter
    (fun r ->
      let tag fmt =
        Printf.ksprintf
          (fun s ->
            Printf.sprintf "%s on %s: %s" r.Core.Experiments.t2_name
              r.Core.Experiments.t2_machine s)
          fmt
      in
      check_bool
        (tag "hand (%d) <= O1 (%d)" r.Core.Experiments.t2_hand
           r.Core.Experiments.t2_compiled)
        true
        (r.Core.Experiments.t2_hand <= r.Core.Experiments.t2_compiled);
      check_bool
        (tag "O2 (%d) <= O1 (%d)" r.Core.Experiments.t2_o2
           r.Core.Experiments.t2_compiled)
        true
        (r.Core.Experiments.t2_o2 <= r.Core.Experiments.t2_compiled);
      (* strictly below doubling: o2 - hand < hand *)
      check_bool
        (tag "O2 overhead below +100%% (%d vs hand %d)"
           r.Core.Experiments.t2_o2 r.Core.Experiments.t2_hand)
        true
        (r.Core.Experiments.t2_o2 - r.Core.Experiments.t2_hand
        < r.Core.Experiments.t2_hand))
    rows;
  (* the headline case: the H1 multiply loop strictly improves under -O2 *)
  let mpy =
    List.find
      (fun r ->
        r.Core.Experiments.t2_machine = "H1"
        && r.Core.Experiments.t2_name = "multiply loop (SIMPL)")
      rows
  in
  check_bool "mpy H1: O2 strictly beats O1" true
    (mpy.Core.Experiments.t2_o2 < mpy.Core.Experiments.t2_compiled)

let test_t3_shape () =
  (* HP3 beats V11 on both cycles and words *)
  match Core.Experiments.t3_rows () with
  | [ hp; vax ] ->
      check_bool "HP3 fewer cycles" true
        (hp.Core.Experiments.t3_cycles < vax.Core.Experiments.t3_cycles);
      check_bool "HP3 no more words" true
        (hp.Core.Experiments.t3_words <= vax.Core.Experiments.t3_words)
  | _ -> Alcotest.fail "expected two T3 rows"

let test_t4_shape () =
  (* The exact table: (machine, ops, dep%), words by sequential, fcfs,
     critical-path and branch-and-bound, then B&B nodes and exactness.
     The node counts pin the search's pruning, not just its answers. *)
  let expected =
    [
      (("HP3", 8, 30), (8, 6, 6, 6), (6115, true));
      (("HP3", 16, 30), (16, 9, 9, 9), (300000, false));
      (("HP3", 16, 60), (16, 10, 10, 10), (300000, false));
      (("H1", 12, 30), (12, 6, 5, 5), (1, true));
      (("H1", 12, 60), (12, 9, 9, 9), (4843, true));
      (("HP3", 28, 40), (28, 16, 16, 16), (300000, false));
    ]
  in
  let rows = Core.Experiments.t4_rows () in
  check_int "row count" (List.length expected) (List.length rows);
  List.iter2
    (fun ((m, n, p), (seq', fcfs', cp', opt'), (nodes, exact)) r ->
      let what = Printf.sprintf "%s %d ops %d%%" m n p in
      let w a = List.assoc a r.Core.Experiments.t4_words in
      let seq = w Compaction.Sequential in
      let fcfs = w Compaction.Fcfs in
      let cp = w Compaction.Critical_path in
      let opt = w Compaction.Optimal in
      check_bool (what ^ ": case") true
        ((r.Core.Experiments.t4_machine, r.Core.Experiments.t4_n,
          r.Core.Experiments.t4_pdep) = (m, n, p));
      check_int (what ^ ": sequential") seq' seq;
      check_int (what ^ ": fcfs") fcfs' fcfs;
      check_int (what ^ ": critical-path") cp' cp;
      check_int (what ^ ": optimal") opt' opt;
      check_int (what ^ ": B&B nodes") nodes r.Core.Experiments.t4_nodes;
      check_bool (what ^ ": exact") exact r.Core.Experiments.t4_exact;
      check_bool "fcfs <= seq" true (fcfs <= seq);
      check_bool "opt <= cp" true (opt <= cp);
      check_bool "opt <= fcfs" true (opt <= fcfs);
      check_bool "some packing" true (cp < seq))
    expected rows

let test_t5_shape () =
  (* The exact table, (registers, spilled/traffic first-fit, then
     priority): spills fall monotonically with register count, priority
     never moves more than first-fit, and from 64 registers up (the CDC
     480 end of the survey's range is 256) nothing spills. *)
  let expected =
    [
      (4, (44, 489), (44, 475));
      (8, (40, 449), (40, 411));
      (16, (32, 366), (32, 305));
      (32, (16, 184), (16, 123));
      (64, (0, 0), (0, 0));
      (128, (0, 0), (0, 0));
      (256, (0, 0), (0, 0));
    ]
    |> List.concat_map (fun (n, ff, pr) ->
           [ (n, Regalloc.First_fit, ff); (n, Regalloc.Priority, pr) ])
  in
  let got =
    List.map
      (fun (r : Core.Experiments.t5_row) ->
        (r.t5_nregs, r.t5_strategy, (r.t5_spilled, r.t5_traffic)))
      (Core.Experiments.t5_rows ())
  in
  Alcotest.(check int) "row count" (List.length expected) (List.length got);
  List.iter2
    (fun (n, s, (sp, tr)) (n', s', (sp', tr')) ->
      let what = Printf.sprintf "%d regs, %s" n (Regalloc.strategy_name s) in
      check_int (what ^ ": registers") n n';
      check_bool (what ^ ": allocator") true (s = s');
      check_int (what ^ ": spilled") sp sp';
      check_int (what ^ ": traffic") tr tr')
    expected got

let test_t6_shape () =
  match Core.Experiments.t6_rows () with
  | [ macro; empl; compiled; hand ] ->
      check_bool "macro is slowest" true
        (macro.Core.Experiments.t6_cycles > empl.Core.Experiments.t6_cycles);
      check_bool "EMPL slower than YALLL" true
        (empl.Core.Experiments.t6_cycles > compiled.Core.Experiments.t6_cycles);
      check_bool "hand fastest" true
        (hand.Core.Experiments.t6_cycles <= compiled.Core.Experiments.t6_cycles);
      check_bool "EMPL speedup is at least the survey's 'factor of five'" true
        (empl.Core.Experiments.t6_speedup >= 5.0)
  | _ -> Alcotest.fail "expected four T6 rows"

let test_t7_shape () =
  (* vertical: fewer program bits, more cycles *)
  let rows = Core.Experiments.t7_rows () in
  let pairs =
    List.filter (fun r -> r.Core.Experiments.t7_machine = "HP3") rows
    |> List.map (fun hp ->
           ( hp,
             List.find
               (fun r ->
                 r.Core.Experiments.t7_machine = "B17"
                 && r.Core.Experiments.t7_program = hp.Core.Experiments.t7_program)
               rows ))
  in
  check_bool "has pairs" true (pairs <> []);
  List.iter
    (fun (hp, b) ->
      check_bool "vertical slower" true
        (b.Core.Experiments.t7_cycles > hp.Core.Experiments.t7_cycles);
      check_bool "vertical smaller" true
        (b.Core.Experiments.t7_program_bits < hp.Core.Experiments.t7_program_bits))
    pairs

let test_f1_shape () =
  List.iter
    (fun r ->
      check_bool "available >= achieved" true
        (r.Core.Experiments.f1_parallelism >= r.Core.Experiments.f1_ops_per_word_hp3 -. 0.01);
      check_bool "achieved >= 1" true (r.Core.Experiments.f1_ops_per_word_hp3 >= 0.99))
    (Core.Experiments.f1_rows ());
  (* larger blocks realise real packing *)
  let big = List.nth (Core.Experiments.f1_rows ()) 4 in
  check_bool "packing on 64-stmt blocks" true
    (big.Core.Experiments.f1_ops_per_word_hp3 > 1.2)

let test_f2_shape () =
  (match Core.Experiments.f2_interrupts () with
  | [ without; with_ ] ->
      check_int "no polls, nothing serviced" 0
        without.Core.Experiments.f2_serviced;
      check_int "polls service all five" 5 with_.Core.Experiments.f2_serviced;
      check_bool "poll overhead exists" true
        (with_.Core.Experiments.f2_total_cycles
        > without.Core.Experiments.f2_total_cycles)
  | _ -> Alcotest.fail "expected two F2 rows");
  match Core.Experiments.f2_traps () with
  | [ buggy; safe; compiled; trapsafe ] ->
      check_int "double increment" 301 buggy.Core.Experiments.f2_final;
      check_int "safe version" 300 safe.Core.Experiments.f2_final;
      check_int "compiled literal also buggy" 301
        compiled.Core.Experiments.f2_final;
      check_int "trap_safe pass repairs it" 300
        trapsafe.Core.Experiments.f2_final
  | _ -> Alcotest.fail "expected four trap rows"

let test_a1_shape () =
  match Core.Experiments.a1_rows () with
  | [ chain; microop; alloc ] ->
      check_bool "chaining never hurts" true
        (chain.Core.Experiments.a1_base <= chain.Core.Experiments.a1_variant);
      check_bool "MICROOP shrinks code" true
        (microop.Core.Experiments.a1_base < microop.Core.Experiments.a1_variant);
      check_bool "priority allocator not worse" true
        (alloc.Core.Experiments.a1_base <= alloc.Core.Experiments.a1_variant)
  | _ -> Alcotest.fail "expected three ablation rows"

let test_o1_shape () =
  let rows = Core.Experiments.o1_rows () in
  check_bool "several rows" true (List.length rows >= 6);
  let strict, control = ref 0, ref 0 in
  List.iter
    (fun (r : Core.Experiments.o1_row) ->
      check_bool "-O1 never larger" true
        (r.Core.Experiments.o1_words1 <= r.Core.Experiments.o1_words0);
      if r.Core.Experiments.o1_words1 < r.Core.Experiments.o1_words0 then
        incr strict;
      if r.Core.Experiments.o1_language = Core.Toolkit.Sstar then begin
        incr control;
        check_int "S* control unchanged" r.Core.Experiments.o1_words0
          r.Core.Experiments.o1_words1
      end)
    rows;
  check_bool "strict reduction on at least three rows" true (!strict >= 3);
  check_int "the S* control is present" 1 !control

let test_sweeper_machines_valid () =
  List.iter
    (fun n ->
      let d = Core.Sweeper.machine ~nregs:n in
      check_int (Printf.sprintf "SWP%d alloc regs" n) n
        (List.length (Desc.regs_of_class d "alloc")))
    [ 2; 16; 256 ]

let test_all_tables_render () =
  (* every experiment table renders without raising *)
  List.iter
    (fun t -> check_bool "renders" true (String.length (Msl_util.Tbl.render t) > 0))
    (Core.Experiments.all_tables ())

(* A load allocates a 4096-word memory straight into the major heap.
   Filling it with a young value makes [Array.make] collect the minor
   heap first, so a fresh zero per load would cost a collection per
   load; the shared per-width zeros keep loads collection-free. *)
let test_load_no_minor_gc () =
  let c = Core.Toolkit.assemble Machines.hp3 Core.Handcoded.translit_hp3 in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  for _ = 1 to 10 do
    ignore (Core.Toolkit.load c : Sim.t)
  done;
  check_int "minor collections over ten loads" 0
    ((Gc.quick_stat ()).Gc.minor_collections - before)

(* Words allocated straight into the major heap (not promoted) while [f]
   runs.  OCaml 5 syncs these counters only at a collection, hence the
   [Gc.minor] on both sides. *)
let direct_major_words f =
  Gc.minor ();
  let s0 = Gc.quick_stat () in
  let r = f () in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  ( r,
    int_of_float
      (s1.Gc.major_words -. s0.Gc.major_words
      -. (s1.Gc.promoted_words -. s0.Gc.promoted_words)) )

(* A proof context starts small enough for the minor heap, so the terms
   it hash-conses die young instead of being promoted through it. *)
let test_proof_no_direct_major () =
  let o2 = { Msl_mir.Pipeline.default_options with opt_level = 2 } in
  let read name =
    In_channel.with_open_bin (Filename.concat "../examples" name)
      In_channel.input_all
  in
  List.iter
    (fun (lang, name, d) ->
      let src = read name in
      let what = Printf.sprintf "%s on %s" name d.Desc.d_name in
      let (_, inputs), compile_words =
        direct_major_words (fun () ->
            Core.Toolkit.compile_for_proof ~options:o2 lang d src)
      in
      check_int (what ^ ": -O2 compile") 0 compile_words;
      let (r, unproved), prove_words =
        direct_major_words (fun () -> Core.Toolkit.prove d inputs)
      in
      check_bool (what ^ ": proved") true
        (r.Msl_mir.Tv.v_validated = r.Msl_mir.Tv.v_total && unproved = []);
      check_int (what ^ ": proof") 0 prove_words)
    [
      (Core.Toolkit.Simpl, "mpy.simpl", Machines.hp3);
      (Core.Toolkit.Simpl, "mpy.simpl", Machines.h1);
      (Core.Toolkit.Yalll, "gcd.yll", Machines.b17);
      (Core.Toolkit.Yalll, "gcd.yll", Machines.v11);
    ]

(* The interpreter's per-cycle allocation: Sim.run of the -O2 SIMPL
   multiply on HP3 (3000 x 7, 9003 cycles).  It read about 129 minor
   words per cycle while each step filtered its word's ops per phase,
   copied the register file per phase and consed its write buffer, and
   about 32 with the word split once and a preallocated buffer.  With
   each word's actions prepared on first execution, shared 1-bit flag
   values and result-only arithmetic for the flag-preserving forms it
   reads about 8: the bitvector results themselves. *)
let test_interp_alloc_per_cycle () =
  let o2 = { Msl_mir.Pipeline.default_options with opt_level = 2 } in
  let c =
    Core.Toolkit.compile ~options:o2 Core.Toolkit.Simpl Machines.hp3
      Core.Handcoded.simpl_mpy
  in
  let sim = Core.Toolkit.load c in
  Sim.set_reg_int sim "R1" 3000;
  Sim.set_reg_int sim "R2" 7;
  let w0 = Gc.minor_words () in
  check_bool "halted" true (Sim.run sim = Sim.Halted);
  let words = Gc.minor_words () -. w0 in
  check_int "product" 21000 (Bitvec.to_int (Sim.get_reg sim "R3"));
  let per_cycle = words /. float_of_int (Sim.cycles sim) in
  if per_cycle >= 13. then
    Alcotest.failf "%.1f minor words per simulated cycle (bound 13)" per_cycle

let () =
  Alcotest.run "core"
    [
      ("matrix", [ Alcotest.test_case "survey tallies" `Quick test_t1_tallies ]);
      ( "handcoded",
        [
          Alcotest.test_case "translit" `Quick test_handcoded_translit;
          Alcotest.test_case "mpy" `Quick test_handcoded_mpy;
          Alcotest.test_case "fpmul parity" `Quick test_fpmul_parity;
        ] );
      ( "emulator",
        [
          Alcotest.test_case "basics" `Quick test_emulator_basics;
          Alcotest.test_case "indirect" `Quick test_emulator_indirect;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "T2 hand <= O2 <= O1, worst below +100%" `Quick
            test_t2_shape;
          Alcotest.test_case "T3 HP3 beats V11" `Quick test_t3_shape;
          Alcotest.test_case "T4 algorithm ordering" `Quick test_t4_shape;
          Alcotest.test_case "T5 spill monotonicity" `Quick test_t5_shape;
          Alcotest.test_case "T6 speedup ladder" `Quick test_t6_shape;
          Alcotest.test_case "T7 vertical trade-off" `Quick test_t7_shape;
          Alcotest.test_case "F1 parallelism gap" `Quick test_f1_shape;
          Alcotest.test_case "F2 interrupts and traps" `Quick test_f2_shape;
          Alcotest.test_case "A1 ablations" `Quick test_a1_shape;
          Alcotest.test_case "O1 optimizer wins, S* control flat" `Quick
            test_o1_shape;
        ] );
      ( "infrastructure",
        [
          Alcotest.test_case "sweeper machines" `Quick
            test_sweeper_machines_valid;
          Alcotest.test_case "all tables render" `Quick test_all_tables_render;
          Alcotest.test_case "load forces no minor collection" `Quick
            test_load_no_minor_gc;
          Alcotest.test_case "proofs allocate nothing straight into the major heap"
            `Quick test_proof_no_direct_major;
          Alcotest.test_case "interpreter allocates under 13 words per cycle"
            `Quick test_interp_alloc_per_cycle;
        ] );
    ]
