(* Tests for the machine substrate: descriptions, conflict model,
   assembler, encoder, memory, simulator, interrupts and microtraps. *)

open Msl_bitvec
open Msl_machine
module Diag = Msl_util.Diag

let bv w v = Bitvec.of_int ~width:w v
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let expect_diag phase f =
  match f () with
  | exception Diag.Error d when d.Diag.phase = phase -> ()
  | exception Diag.Error d ->
      Alcotest.failf "wrong phase: %s" (Diag.to_string d)
  | _ -> Alcotest.fail "expected a diagnostic"

(* Assemble and run a program on a machine, returning the sim. *)
let run_program ?(setup = fun _ -> ()) d src =
  let prog = Masm.parse_program d src in
  let sim = Sim.create d in
  Sim.load_store sim prog;
  setup sim;
  (match Sim.run sim with
  | Sim.Halted -> ()
  | Sim.Out_of_fuel -> Alcotest.fail "program did not halt");
  sim

(* -- machine descriptions ------------------------------------------------ *)

let test_descriptions_valid () =
  List.iter
    (fun d ->
      check_bool (d.Desc.d_name ^ " has registers") true
        (Array.length d.Desc.d_regs > 0);
      check_bool (d.Desc.d_name ^ " has templates") true
        (Array.length d.Desc.d_templates > 0);
      (* sequencing fields are mandatory: seq, cond, addr, breg *)
      Array.iteri
        (fun k slot ->
          if k < 4 then
            check_bool (d.Desc.d_name ^ " has " ^ Desc.seq_fields.(k)) true
              (slot >= 0))
        d.Desc.d_seq_slots)
    Machines.all

let test_register_lookup () =
  let d = Machines.h1 in
  check_int "R3 id" 3 (Desc.get_reg d "R3").Desc.r_id;
  check_str "name round trip" "ACC" (Desc.reg_name d (Desc.get_reg d "ACC").Desc.r_id);
  check_bool "no such reg" true (Desc.find_reg d "NOPE" = None);
  check_bool "gpr class nonempty" true (List.length (Desc.regs_of_class d "gpr") > 10);
  check_bool "at reserved" true (List.length (Desc.regs_of_class d "at") = 1)

let test_word_widths () =
  (* the vertical machine's control word must be much narrower than the
     horizontal machines' words: the survey's encoding trade-off *)
  let bits (d : Desc.t) = d.Desc.d_word_bits in
  check_bool "B17 narrower than H1" true (bits Machines.b17 < bits Machines.h1 / 2);
  check_bool "B17 narrower than HP3" true (bits Machines.b17 < bits Machines.hp3 / 2)

let test_bad_description_rejected () =
  let raises_any f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  (* overlapping fields *)
  raises_any (fun () ->
      Desc.make ~name:"bad" ~word:16 ~addr:8 ~phases:1
        ~regs:[ Desc.mkreg 0 "R0" 16 ]
        ~units:[ "u" ]
        ~fields:
          [
            { Desc.f_name = "a"; f_lo = 0; f_width = 8 };
            { Desc.f_name = "b"; f_lo = 4; f_width = 8 };
          ]
        ~templates:[] ~cond_caps:[] ~mem_extra_cycles:0 ~store_words:16
        ~vertical:false ~scratch_base:0 ~note:"" ());
  (* template in nonexistent phase *)
  raises_any (fun () ->
      Desc.make ~name:"bad2" ~word:16 ~addr:8 ~phases:1
        ~regs:[ Desc.mkreg 0 "R0" 16 ]
        ~units:[ "u" ]
        ~fields:[ { Desc.f_name = "a"; f_lo = 0; f_width = 8 } ]
        ~templates:
          [ { (Desc.get_template Machines.hp3 "nop") with Desc.t_phase = 3 } ]
        ~cond_caps:[] ~mem_extra_cycles:0 ~store_words:16 ~vertical:false
        ~scratch_base:0 ~note:"" ())

(* -- conflict model ------------------------------------------------------ *)

let op d name args = Inst.make d name args
let compatible d a b = Conflict.pair_conflict d a b = None

let test_unit_conflict () =
  let d = Machines.h1 in
  let a = op d "add" [ Inst.A_reg 1; Inst.A_reg 2; Inst.A_reg 3 ] in
  let b = op d "sub" [ Inst.A_reg 4; Inst.A_reg 5; Inst.A_reg 6 ] in
  check_bool "two ALU ops clash" false (compatible d a b);
  let s = op d "shl" [ Inst.A_reg 4; Inst.A_reg 5; Inst.A_imm (bv 6 1) ] in
  check_bool "ALU and shifter coexist" true (compatible d a s)

let test_field_conflict () =
  let d = Machines.h1 in
  let m1 = op d "mov" [ Inst.A_reg 1; Inst.A_reg 2 ] in
  let m2 = op d "mov" [ Inst.A_reg 3; Inst.A_reg 4 ] in
  (* both need the abus fields with different values *)
  check_bool "two moves clash" false (compatible d m1 m2);
  let m3 = op d "mov" [ Inst.A_reg 1; Inst.A_reg 2 ] in
  check_bool "identical moves share the word" true (compatible d m1 m3)

let test_memory_conflict () =
  let d = Machines.h1 in
  let r = op d "rd" [] in
  let w = op d "wr" [] in
  check_bool "one memory port" false (compatible d r w)

let test_write_conflict () =
  let d = Machines.hp3 in
  let a = op d "add" [ Inst.A_reg 1; Inst.A_reg 2; Inst.A_reg 3 ] in
  let i = op d "inc" [ Inst.A_reg 1; Inst.A_reg 4 ] in
  (* different units, but both write R1 in the same phase *)
  check_bool "write-write clash" false (compatible d a i);
  (* quiet ops coexist across units; two flag-setters do not *)
  let i2 = op d "inc" [ Inst.A_reg 5; Inst.A_reg 4 ] in
  check_bool "quiet add and inc coexist" true (compatible d a i2);
  let af = op d "addf" [ Inst.A_reg 1; Inst.A_reg 2; Inst.A_reg 3 ] in
  let sf = op d "shrf" [ Inst.A_reg 5; Inst.A_reg 4; Inst.A_imm (bv 4 1) ] in
  check_bool "flag clash (both set flags)" false (compatible d af sf);
  let m = op d "mov" [ Inst.A_reg 6; Inst.A_reg 7 ] in
  check_bool "mov and add coexist" true (compatible d a m)

(* -- assembler ----------------------------------------------------------- *)

let test_masm_roundtrip () =
  let d = Machines.hp3 in
  (* ldc uses the abus group, add uses the alu group: they may share *)
  let prog =
    Masm.parse_program d
      "start:\n  [ ldc R1, #5 | add R3, R2, R2 ] -> halt\n"
  in
  check_int "one instruction" 1 (List.length prog);
  check_int "two ops packed" 2 (List.length (List.hd prog).Inst.ops)

(* Two ldc ops do clash (one imm field); assert that the assembler says so. *)
let test_masm_conflict_rejected () =
  let d = Machines.hp3 in
  expect_diag Diag.Compaction (fun () ->
      Masm.parse_program d "[ ldc R1, #5 | ldc R2, #7 ]")

let test_masm_errors () =
  let d = Machines.hp3 in
  expect_diag Diag.Assembly (fun () -> Masm.parse_program d "[ bogus R1 ]");
  expect_diag Diag.Assembly (fun () -> Masm.parse_program d "[ mov R1 ]");
  expect_diag Diag.Assembly (fun () -> Masm.parse_program d "[ mov R1, #3 ]");
  expect_diag Diag.Assembly (fun () -> Masm.parse_program d "[ ] -> goto nowhere");
  expect_diag Diag.Assembly (fun () ->
      Masm.parse_program d "x:\nx:\n[ ] -> halt");
  (* V11 cannot test register-zero conditions *)
  expect_diag Diag.Assembly (fun () ->
      Masm.parse_program Machines.v11 "[ ] -> if R0 = 0 goto 0")

let test_masm_labels () =
  let d = Machines.hp3 in
  let prog, labels =
    Masm.parse d "  [ ldc R1, #1 ]\nloop:\n  [ inc R1, R1 ] -> goto loop\n"
  in
  check_int "two instructions" 2 (List.length prog);
  check_int "label resolved" 1 (Hashtbl.find labels "loop");
  match (List.nth prog 1).Inst.next with
  | Inst.Jump 1 -> ()
  | _ -> Alcotest.fail "goto did not resolve to address 1"

(* Every sequencer form, every condition shape and both immediate
   renderings, on hand-built words (the example goldens miss several);
   [Inst.pp] must render each word as the listing does. *)
let test_masm_listing_shapes () =
  let hp3 = Machines.hp3 and h1 = Machines.h1 in
  let reg d n = Inst.A_reg (Desc.get_reg d n).Desc.r_id in
  let imm w v = Inst.A_imm (Bitvec.of_int ~width:w v) in
  let r1 = (Desc.get_reg hp3 "R1").Desc.r_id in
  let w ops next = { Inst.ops; next } in
  let add = Inst.make hp3 "add" [ reg hp3 "R3"; reg hp3 "R1"; reg hp3 "R2" ] in
  let ldc v = Inst.make hp3 "ldc" [ reg hp3 "R4"; imm 16 v ] in
  let hp3_words =
    [
      w [] Inst.Next;
      w [ add; ldc 7 ] (Inst.Jump 5);
      w [ ldc 65535 ] (Inst.Call 12);
      w [] Inst.Return;
      w [] Inst.Halt;
      w [ add ] (Inst.Dispatch { dreg = r1; hi = 3; lo = 0; base = 8 });
      w [] (Inst.Branch (Desc.C_flag (Rtl.Z, true), 2));
      w [] (Inst.Branch (Desc.C_flag (Rtl.C, false), 3));
      w [] (Inst.Branch (Desc.C_reg_zero (r1, true), 4));
      w [] (Inst.Branch (Desc.C_reg_zero (r1, false), 5));
      w [] (Inst.Branch (Desc.C_reg_mask (r1, [| Desc.Mt; Desc.Mx; Desc.Mf |]), 6));
      w [] (Inst.Branch (Desc.C_int_pending, 7));
    ]
  in
  check_str "HP3 listing"
    "   0: []\n\
    \   1: [add R3, R1, R2 | ldc R4, #7] -> goto 5\n\
    \   2: [ldc R4, #65535] -> call 12\n\
    \   3: [] -> return\n\
    \   4: [] -> halt\n\
    \   5: [add R3, R1, R2] -> dispatch R1<3..0> + 8\n\
    \   6: [] -> if Z goto 2\n\
    \   7: [] -> if !C goto 3\n\
    \   8: [] -> if R1 = 0 goto 4\n\
    \   9: [] -> if R1 <> 0 goto 5\n\
    \  10: [] -> if R1 match 0x1 goto 6\n\
    \  11: [] -> if int_pending goto 7\n"
    (Masm.print hp3 hp3_words);
  let h1_words =
    [
      w [ Inst.make h1 "ldc" [ reg h1 "R2"; imm 32 0x12345 ] ] Inst.Next;
      w [ Inst.make h1 "ldc" [ reg h1 "R3"; imm 32 0 ] ] Inst.Halt;
    ]
  in
  check_str "H1 wide immediates"
    "   0: [ldc R2, #0x00012345]\n   1: [ldc R3, #0x00000000] -> halt\n"
    (Masm.print h1 h1_words);
  List.iter
    (fun (d, words) ->
      List.iter
        (fun inst ->
          check_str "Inst.pp matches the listing"
            ("   0: " ^ Fmt.str "%a" (Inst.pp d) inst ^ "\n")
            (Masm.print d [ inst ]))
        words)
    [ (hp3, hp3_words); (h1, h1_words) ]

(* -- encoder ------------------------------------------------------------- *)

(* Every field of a control word as (name, value), through the
   disassembler's field reader. *)
let decode_fields (d : Desc.t) w =
  List.map
    (fun (f : Desc.field) -> (f.f_name, Encode.read_field w f))
    (Array.to_list d.Desc.d_fields)

let test_encode_roundtrip_fields () =
  let d = Machines.hp3 in
  let prog = Masm.parse_program d "[ add R3, R1, R2 ] -> if Z goto 0" in
  let w = Encode.encode_inst d (List.hd prog) in
  let fields = decode_fields d w in
  check_int "alu_d" 3 (List.assoc "alu_d" fields);
  check_int "alu_a" 1 (List.assoc "alu_a" fields);
  check_int "alu_b" 2 (List.assoc "alu_b" fields);
  check_int "seq is branch" 2 (List.assoc "seq" fields)

let test_encode_program_bits () =
  let d = Machines.b17 in
  let prog = Masm.parse_program d "[ ldc R1, #1 ]\n[ ] -> halt" in
  check_int "bits = 2 words" (2 * d.Desc.d_word_bits)
    (Encode.program_bits d prog)

(* -- memory -------------------------------------------------------------- *)

let test_memory_basics () =
  let m = Memory.create ~word_width:16 ~words:1024 in
  Memory.write m 10 (bv 16 42);
  check_str "read back" "42" (Bitvec.to_string (Memory.read m 10));
  check_int "reads counted" 1 (Memory.reads m);
  check_int "writes counted" 1 (Memory.writes m);
  Memory.mark_absent m ~page:0;
  (match Memory.read m 10 with
  | exception Memory.Page_fault 10 -> ()
  | _ -> Alcotest.fail "expected page fault");
  check_int "fault counted" 1 (Memory.faults m);
  Memory.mark_present m ~page:0;
  check_str "present again" "42" (Bitvec.to_string (Memory.read m 10))

(* -- simulator ----------------------------------------------------------- *)

(* Sum 1..10 by explicit loop on each machine that can test reg-zero. *)
let sum_src =
  "  [ ldc R1, #10 ]\n\
  \  [ ldc R2, #0 ]\n\
   loop:\n\
  \  [ add R2, R2, R1 ]\n\
  \  [ dec R1, R1 ] -> if R1 <> 0 goto loop\n\
  \  [ ] -> halt\n"

let test_sim_sum_loop () =
  List.iter
    (fun d ->
      let sim = run_program d sum_src in
      check_int
        (d.Desc.d_name ^ " sum 1..10")
        55
        (Bitvec.to_int (Sim.get_reg sim "R2")))
    [ Machines.hp3; Machines.b17 ]

(* The same loop on V11, where ALU results land in ACC and the zero test
   must go through flags: the baroque version is visibly longer. *)
let test_sim_sum_loop_v11 () =
  let d = Machines.v11 in
  let src =
    "  [ ldc R1, #10 ]\n\
    \  [ ldc R2, #0 ]\n\
     loop:\n\
    \  [ add R2, R1 ]\n\
    \  [ mov R2, ACC ]\n\
    \  [ ldc R3, #1 ]\n\
    \  [ sub R1, R3 ]\n\
    \  [ mov R1, ACC ] -> if !Z goto loop\n\
    \  [ ] -> halt\n"
  in
  let sim = run_program d src in
  check_int "V11 sum 1..10" 55 (Bitvec.to_int (Sim.get_reg sim "R2"))

let test_sim_phases_chain () =
  (* On 3-phase H1 a single microinstruction can move a value (phase 0)
     and consume it in the ALU (phase 1): transport chaining. *)
  let d = Machines.h1 in
  let src =
    "  [ ldc R1, #21 ]\n\
    \  [ mov R2, R1 | add R3, R2, R2 ]\n\
    \  [ ] -> halt\n"
  in
  let sim = run_program d src in
  check_int "phase 1 sees phase 0 result" 42 (Bitvec.to_int (Sim.get_reg sim "R3"))

let test_sim_same_phase_snapshot () =
  (* Every read in a phase sees the phase-start state.  First an ALU op
     reading its own destination; then an exchange between two ops of one
     phase (mov on the abus, add on the alu, both phase 0), where each op
     reads the other's destination.  The exchange runs on both engines
     and through the symbolic executor: none takes a snapshot, so the rule
     rests on every write being buffered until the phase commits. *)
  let d = Machines.hp3 in
  let src = "  [ ldc R1, #5 ]\n  [ add R1, R1, R1 ]\n  [ ] -> halt\n" in
  let sim = run_program d src in
  check_int "x := x + x" 10 (Bitvec.to_int (Sim.get_reg sim "R1"));
  let prog =
    Masm.parse_program d "  [ mov R1, R2 | add R2, R1, R1 ] -> halt\n"
  in
  List.iter
    (fun (engine, run) ->
      let sim = Sim.create d in
      Sim.load_store sim prog;
      Sim.set_reg_int sim "R1" 5;
      Sim.set_reg_int sim "R2" 7;
      check_bool (engine ^ " halted") true (run sim = Sim.Halted);
      check_int (engine ^ ": R1 := R2") 7
        (Bitvec.to_int (Sim.get_reg sim "R1"));
      check_int (engine ^ ": R2 := R1 + R1") 10
        (Bitvec.to_int (Sim.get_reg sim "R2")))
    [
      ("Sim", fun sim -> Sim.run sim);
      ("Simc", fun sim -> Simc.run (Simc.translate sim));
    ];
  let ctx = Symexec.create_ctx () in
  let store = Symexec.init_store ctx d in
  List.iter
    (fun (w : Inst.t) -> Symexec.exec_word ctx d store w.Inst.ops)
    prog;
  let env =
    {
      Symexec.e_var =
        (fun n ->
          if n = Symexec.reg_var_name "R1" then bv 16 5
          else if n = Symexec.reg_var_name "R2" then bv 16 7
          else Alcotest.failf "unexpected symbolic input %s" n);
      e_mem = (fun _ -> 0L);
    }
  in
  let value name =
    let r = Desc.get_reg d name in
    Bitvec.to_int (Symexec.eval env (Symexec.reg ctx d store r.Desc.r_id))
  in
  check_int "Symexec: R1 := R2" 7 (value "R1");
  check_int "Symexec: R2 := R1 + R1" 10 (value "R2")

let test_sim_memory_ops () =
  let d = Machines.hp3 in
  let src =
    "  [ ldc MAR, #100 ]\n\
    \  [ rd ]\n\
    \  [ add MBR, MBR, MBR ]\n\
    \  [ ldc MAR, #101 ]\n\
    \  [ wr ]\n\
    \  [ ] -> halt\n"
  in
  let sim =
    run_program d src ~setup:(fun sim ->
        Memory.poke (Sim.memory sim) 100 (bv 16 21))
  in
  check_int "doubled through memory" 42
    (Bitvec.to_int (Memory.peek (Sim.memory sim) 101))

let test_sim_cycles_memory_stall () =
  let d = Machines.hp3 in
  let src_no_mem = "  [ ldc R1, #1 ]\n  [ ] -> halt\n" in
  let src_mem = "  [ ldc MAR, #0 ]\n  [ rd ]\n  [ ] -> halt\n" in
  let s1 = run_program d src_no_mem in
  let s2 = run_program d src_mem in
  check_int "no stall" 2 (Sim.cycles s1);
  check_int "memory stall adds a cycle" 4 (Sim.cycles s2)

let test_sim_dispatch () =
  let d = Machines.h1 in
  (* dispatch on low 2 bits of R1: 4-entry jump table *)
  let src =
    "  [ ldc R1, #2 ]\n\
    \  [ ] -> dispatch R1<1..0> + 2\n\
     t0: [ ldc R2, #100 ] -> goto out\n\
     t1: [ ldc R2, #101 ] -> goto out\n\
     t2: [ ldc R2, #102 ] -> goto out\n\
     t3: [ ldc R2, #103 ] -> goto out\n\
     out: [ ] -> halt\n"
  in
  let sim = run_program d src in
  check_int "dispatched to entry 2" 102 (Bitvec.to_int (Sim.get_reg sim "R2"))

let test_sim_mask_branch () =
  let d = Machines.hp3 in
  (* jump when low nibble matches 1x10 (bit3=1, bit1=1, bit0=0) *)
  let src =
    "  [ ldc R1, #10 ]\n\
    \  [ ] -> if R1 match 1x10 goto yes\n\
    \  [ ldc R2, #0 ] -> halt\n\
     yes:\n\
    \  [ ldc R2, #1 ] -> halt\n"
  in
  let sim = run_program d src in
  check_int "mask matched 10 = 0b1010" 1 (Bitvec.to_int (Sim.get_reg sim "R2"));
  let src2 = String.concat "" [ "  [ ldc R1, #8 ]\n";
    "  [ ] -> if R1 match 1x10 goto yes\n";
    "  [ ldc R2, #0 ] -> halt\n"; "yes:\n"; "  [ ldc R2, #1 ] -> halt\n" ] in
  let sim2 = run_program d src2 in
  check_int "mask rejected 8 = 0b1000" 0 (Bitvec.to_int (Sim.get_reg sim2 "R2"))

let test_sim_call_return () =
  let d = Machines.hp3 in
  let src =
    "  [ ldc R1, #5 ]\n\
    \  [ ] -> call double\n\
    \  [ ] -> call double\n\
    \  [ ] -> halt\n\
     double:\n\
    \  [ add R1, R1, R1 ] -> return\n"
  in
  let sim = run_program d src in
  check_int "two calls" 20 (Bitvec.to_int (Sim.get_reg sim "R1"))

let test_sim_flags () =
  let d = Machines.hp3 in
  let src =
    "  [ ldc R1, #65535 ]\n\
    \  [ ldc R2, #1 ]\n\
    \  [ addf R3, R1, R2 ] -> if C goto carry\n\
    \  [ ldc R4, #0 ] -> halt\n\
     carry:\n\
    \  [ ldc R4, #1 ] -> halt\n"
  in
  let sim = run_program d src in
  check_int "carry branch taken" 1 (Bitvec.to_int (Sim.get_reg sim "R4"))

let test_sim_carry_chain () =
  (* 32-bit addition on the 16-bit HP3 using add + adc *)
  let d = Machines.hp3 in
  let src =
    "  [ ldc R1, #65535 ]  ; lo(a) = 0xFFFF\n\
    \  [ ldc R2, #1 ]      ; hi(a) = 1\n\
    \  [ ldc R3, #1 ]      ; lo(b) = 1\n\
    \  [ ldc R4, #2 ]      ; hi(b) = 2\n\
    \  [ addf R5, R1, R3 ]\n\
    \  [ adc R6, R2, R4 ]\n\
    \  [ ] -> halt\n"
  in
  let sim = run_program d src in
  check_int "low word" 0 (Bitvec.to_int (Sim.get_reg sim "R5"));
  check_int "high word with carry" 4 (Bitvec.to_int (Sim.get_reg sim "R6"))

let test_sim_interrupts () =
  let d = Machines.hp3 in
  (* busy loop polling the interrupt line; services one interrupt *)
  let src =
    "  [ ldc R1, #50 ]\n\
     loop:\n\
    \  [ dec R1, R1 ] -> if int goto serve\n\
     back:\n\
    \  [ ] -> if R1 <> 0 goto loop\n\
    \  [ ] -> halt\n\
     serve:\n\
    \  [ intack | inc R2, R2 ] -> goto back\n"
  in
  let prog = Masm.parse_program d src in
  let sim = Sim.create d in
  Sim.load_store sim prog;
  Sim.schedule_interrupts sim [ 10 ];
  (match Sim.run sim with
  | Sim.Halted -> ()
  | Sim.Out_of_fuel -> Alcotest.fail "did not halt");
  check_int "one interrupt serviced" 1 (Sim.interrupts_serviced sim);
  check_int "handler ran once" 1 (Bitvec.to_int (Sim.get_reg sim "R2"));
  let avg, _ = Sim.interrupt_latency_stats sim in
  check_bool "latency positive" true (avg >= 0.0)

(* The survey's §2.1.5 incread microtrap bug, reproduced literally:
   increment a register, then use it as a memory address; the fetch
   page-faults; after restart the register is incremented a second time. *)
let test_sim_microtrap_double_increment () =
  let d = Machines.hp3 in
  let buggy =
    "  [ inc R1, R1 ]\n\
    \  [ mov MAR, R1 ]\n\
    \  [ rd ]\n\
    \  [ ] -> halt\n"
  in
  let prog = Masm.parse_program d buggy in
  let sim = Sim.create ~trap_mode:Sim.Restart d in
  Sim.load_store sim prog;
  Sim.set_reg_int sim "R1" 299;
  Memory.mark_absent (Sim.memory sim) ~page:1;  (* words 256..511 *)
  (match Sim.run sim with
  | Sim.Halted -> ()
  | Sim.Out_of_fuel -> Alcotest.fail "did not halt");
  check_int "one trap" 1 (Sim.traps_taken sim);
  (* the bug: R1 = 301, not 300 *)
  check_int "double increment" 301 (Bitvec.to_int (Sim.get_reg sim "R1"))

(* The restart-safe version computes into a temporary and commits after the
   faulting access: idempotent under restart. *)
let test_sim_microtrap_safe_version () =
  let d = Machines.hp3 in
  let safe =
    "  [ inc R2, R1 ]\n\
    \  [ mov MAR, R2 ]\n\
    \  [ rd ]\n\
    \  [ mov R1, R2 ]\n\
    \  [ ] -> halt\n"
  in
  let prog = Masm.parse_program d safe in
  let sim = Sim.create ~trap_mode:Sim.Restart d in
  Sim.load_store sim prog;
  Sim.set_reg_int sim "R1" 299;
  Memory.mark_absent (Sim.memory sim) ~page:1;
  (match Sim.run sim with
  | Sim.Halted -> ()
  | Sim.Out_of_fuel -> Alcotest.fail "did not halt");
  check_int "one trap" 1 (Sim.traps_taken sim);
  check_int "correct increment" 300 (Bitvec.to_int (Sim.get_reg sim "R1"))

let test_sim_fuel () =
  let d = Machines.hp3 in
  let prog = Masm.parse_program d "loop: [ ] -> goto loop" in
  let sim = Sim.create d in
  Sim.load_store sim prog;
  match Sim.run ~fuel:100 sim with
  | Sim.Out_of_fuel -> ()
  | Sim.Halted -> Alcotest.fail "infinite loop halted?"

let test_sim_store_overflow () =
  let d = Machines.v11 in
  let nop = { Inst.ops = []; next = Inst.Next } in
  let too_big = List.init 2000 (fun _ -> nop) in
  expect_diag Diag.Assembly (fun () ->
      let sim = Sim.create d in
      Sim.load_store sim too_big)

let () =
  Alcotest.run "machine"
    [
      ( "desc",
        [
          Alcotest.test_case "all models valid" `Quick test_descriptions_valid;
          Alcotest.test_case "register lookup" `Quick test_register_lookup;
          Alcotest.test_case "vertical word narrower" `Quick test_word_widths;
          Alcotest.test_case "bad descriptions rejected" `Quick
            test_bad_description_rejected;
        ] );
      ( "conflict",
        [
          Alcotest.test_case "unit conflict" `Quick test_unit_conflict;
          Alcotest.test_case "field conflict" `Quick test_field_conflict;
          Alcotest.test_case "memory port" `Quick test_memory_conflict;
          Alcotest.test_case "write/flag conflict" `Quick test_write_conflict;
        ] );
      ( "masm",
        [
          Alcotest.test_case "parses" `Quick test_masm_roundtrip;
          Alcotest.test_case "conflicting ops rejected" `Quick
            test_masm_conflict_rejected;
          Alcotest.test_case "errors" `Quick test_masm_errors;
          Alcotest.test_case "labels" `Quick test_masm_labels;
          Alcotest.test_case "listing shapes" `Quick test_masm_listing_shapes;
        ] );
      ( "encode",
        [
          Alcotest.test_case "field round trip" `Quick
            test_encode_roundtrip_fields;
          Alcotest.test_case "program bits" `Quick test_encode_program_bits;
        ] );
      ("memory", [ Alcotest.test_case "basics" `Quick test_memory_basics ]);
      ( "sim",
        [
          Alcotest.test_case "sum loop" `Quick test_sim_sum_loop;
          Alcotest.test_case "sum loop on baroque V11" `Quick
            test_sim_sum_loop_v11;
          Alcotest.test_case "phase chaining" `Quick test_sim_phases_chain;
          Alcotest.test_case "read-before-write" `Quick
            test_sim_same_phase_snapshot;
          Alcotest.test_case "memory ops" `Quick test_sim_memory_ops;
          Alcotest.test_case "memory stalls" `Quick
            test_sim_cycles_memory_stall;
          Alcotest.test_case "dispatch" `Quick test_sim_dispatch;
          Alcotest.test_case "mask branch" `Quick test_sim_mask_branch;
          Alcotest.test_case "call/return" `Quick test_sim_call_return;
          Alcotest.test_case "flags" `Quick test_sim_flags;
          Alcotest.test_case "carry chain" `Quick test_sim_carry_chain;
          Alcotest.test_case "interrupts" `Quick test_sim_interrupts;
          Alcotest.test_case "incread double increment" `Quick
            test_sim_microtrap_double_increment;
          Alcotest.test_case "incread safe version" `Quick
            test_sim_microtrap_safe_version;
          Alcotest.test_case "fuel" `Quick test_sim_fuel;
          Alcotest.test_case "store overflow" `Quick test_sim_store_overflow;
        ] );
    ]
