(* The microlint analyzer's own oracle.

   Two obligations, mirroring the translation-validation claim in
   lib/mir/lint.mli:

   - soundness of the *silence*: zero findings on every honestly
     compiled program — all examples/* on every machine they target at
     both -O0 and -O1, seeded whole-program corpora, and seeded blocks
     through all four compaction algorithms;
   - sensitivity: 100% detection of injected write-write races and
     field overflows (Workloads.inject_defect) on all four machines.

   Plus direct unit tests of each analysis on crafted inputs, and of the
   finding renderers. *)

open Msl_bitvec
open Msl_machine
open Msl_mir
module Core = Msl_core
module Toolkit = Msl_core.Toolkit
module W = Msl_core.Workloads

let show fs =
  String.concat "; " (List.map (fun f -> Fmt.str "%a" Diag.pp_finding f) fs)

(* Render the findings into the assertion so a failure names the exact
   false positive. *)
let check_clean what fs = Alcotest.(check string) what "" (show fs)

let has code fs = List.exists (fun f -> f.Diag.f_code = code) fs

let check_has what code fs =
  Alcotest.(check bool)
    (Printf.sprintf "%s reports %s [%s]" what code (show fs))
    true (has code fs)

(* -- honest compiles: no false positives -------------------------------- *)

let compile_with_mir ?(opt_level = 1) ?(poll = false) lang d src =
  (* The first observed pass is the frontend's raw MIR — the program the
     MIR-level checks should judge, before the optimizer rewrites it. *)
  let mir = ref None in
  let observe _pass p = if !mir = None then mir := Some p in
  let options = { Pipeline.default_options with opt_level; poll } in
  let c = Toolkit.compile ~options ~observe lang d src in
  (c, !mir)

let lint_full (c, mir) =
  Lint.run ?mir ~labels:c.Toolkit.c_labels c.Toolkit.c_machine
    c.Toolkit.c_insts

let example_languages =
  [ (".yll", (Toolkit.Yalll, [ Machines.hp3; Machines.v11; Machines.b17 ]));
    (".simpl", (Toolkit.Simpl, [ Machines.hp3; Machines.h1; Machines.b17 ]));
    (".empl", (Toolkit.Empl, [ Machines.hp3; Machines.b17 ])) ]

let example_sources () =
  let dir =
    if Sys.file_exists "../examples" then "../examples" else "examples"
  in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
         List.find_map
           (fun (ext, (lang, machines)) ->
             if Filename.check_suffix f ext then
               Some (f, lang, machines, Filename.concat dir f)
             else None)
           example_languages)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_honest_examples () =
  let sources = example_sources () in
  Alcotest.(check bool)
    "found the example corpus" true
    (List.length sources >= 6);
  List.iter
    (fun (name, lang, machines, path) ->
      let src = read_file path in
      List.iter
        (fun d ->
          List.iter
            (fun opt_level ->
              check_clean
                (Printf.sprintf "%s on %s at -O%d" name d.Desc.d_name
                   opt_level)
                (lint_full (compile_with_mir ~opt_level lang d src)))
            [ 0; 1 ])
        machines)
    sources

let test_honest_generated () =
  List.iter
    (fun seed ->
      let src = W.yalll_program ~seed ~len:14 in
      List.iter
        (fun d ->
          List.iter
            (fun opt_level ->
              check_clean
                (Printf.sprintf "yalll seed %d on %s at -O%d" seed
                   d.Desc.d_name opt_level)
                (lint_full (compile_with_mir ~opt_level Toolkit.Yalll d src)))
            [ 0; 1 ])
        [ Machines.hp3; Machines.v11; Machines.b17 ])
    [ 1; 2; 3; 4; 5; 6 ];
  List.iter
    (fun seed ->
      let src = W.pressure_program ~seed ~nvars:10 ~nops:16 in
      List.iter
        (fun d ->
          check_clean
            (Printf.sprintf "pressure seed %d on %s" seed d.Desc.d_name)
            (lint_full (compile_with_mir Toolkit.Empl d src)))
        [ Machines.hp3; Machines.b17 ])
    [ 1; 2; 3; 4 ]

(* Every algorithm's schedule must pass the independent race re-check —
   the translation-validation core, against a checker sharing no code
   with Compaction.check. *)
let algos =
  [ Compaction.Sequential; Compaction.Fcfs; Compaction.Critical_path;
    Compaction.Optimal ]

let block_machines = [ Machines.hp3; Machines.h1; Machines.b17 ]

let wrap_groups groups =
  List.map (fun g -> { Inst.ops = g; next = Inst.Next }) groups
  @ [ { Inst.ops = []; next = Inst.Halt } ]

let test_honest_blocks () =
  List.iter
    (fun seed ->
      let d = List.nth block_machines (seed mod 3) in
      let n = 4 + (seed * 7 mod 24) in
      let p_dep = seed * 13 mod 95 in
      let ops = W.compaction_block d ~seed ~n ~p_dep in
      List.iter
        (fun chain ->
          List.iter
            (fun algo ->
              let r = Compaction.compact ~chain ~algo d ops in
              check_clean
                (Printf.sprintf "block seed %d %s %s chain=%b" seed
                   d.Desc.d_name (Compaction.algo_name algo) chain)
                (Lint.validate_machine d (wrap_groups r.Compaction.groups)))
            algos)
        [ true; false ])
    (List.init 24 (fun i -> i + 1))

(* -- injected defects: 100% detection ------------------------------------ *)

(* A mutation corpus per machine.  The block generator has no v11
   templates, so v11 rides the YALLL whole-program corpus — which also
   keeps branchy words (not just straight-line blocks) in the mix.
   Compiled at -O0: the optimizer folds the straight-line generator
   programs down to a handful of constant loads of distinct registers,
   leaving nothing for the race injector to merge. *)
let mutation_corpus d =
  if d.Desc.d_name = Machines.v11.Desc.d_name then
    List.map
      (fun seed ->
        let src = W.yalll_program ~seed ~len:14 in
        let options = { Pipeline.default_options with opt_level = 0 } in
        let c = Toolkit.compile ~options Toolkit.Yalll d src in
        (Printf.sprintf "yalll seed %d" seed, c.Toolkit.c_insts))
      [ 1; 2; 3; 4; 5; 6 ]
  else
    List.map
      (fun seed ->
        let ops = W.compaction_block d ~seed ~n:16 ~p_dep:40 in
        let r =
          Compaction.compact ~chain:true ~algo:Compaction.Critical_path d ops
        in
        (Printf.sprintf "block seed %d" seed, wrap_groups r.Compaction.groups))
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let all_machines = [ Machines.hp3; Machines.h1; Machines.v11; Machines.b17 ]

(* Every mutant [inject_defect] produces must be caught by the named
   analysis code — detection below 100% is a test failure, and a corpus
   offering no injection site at all on some machine is too. *)
let check_detection d defect code =
  let injected = ref 0 in
  List.iter
    (fun (what, insts) ->
      List.iter
        (fun seed ->
          match W.inject_defect d ~seed defect insts with
          | None -> ()
          | Some mutant ->
              incr injected;
              let fs = Lint.validate_machine d mutant in
              check_has
                (Printf.sprintf "%s mutant of %s (seed %d) on %s"
                   (W.defect_name defect) what seed d.Desc.d_name)
                code
                (Diag.errors fs))
        [ 0; 1; 2; 3; 4 ])
    (mutation_corpus d);
  Alcotest.(check bool)
    (Printf.sprintf "%s corpus offers %s sites" d.Desc.d_name
       (W.defect_name defect))
    true (!injected > 0)

let test_detect_race () =
  List.iter (fun d -> check_detection d W.D_race_ww "race-ww") all_machines

let test_detect_overflow () =
  List.iter
    (fun d -> check_detection d W.D_field_overflow "field-overflow")
    all_machines

(* The remaining defects are not promised 100% static detection (a
   dropped dependence edge reorders computation without any intra-word
   hazard — experiment L1 measures how often each slips through); the
   analyzer must merely survive them with every analysis enabled. *)
let test_mutants_never_crash () =
  let config = { Lint.latency_budget = Some 64; pedantic = true } in
  List.iter
    (fun d ->
      List.iter
        (fun (_, insts) ->
          List.iter
            (fun defect ->
              List.iter
                (fun seed ->
                  match W.inject_defect d ~seed defect insts with
                  | None -> ()
                  | Some mutant -> ignore (Lint.run ~config d mutant))
                [ 0; 1; 2 ])
            W.all_defects)
        (mutation_corpus d))
    all_machines

(* The exact findings the machine-level race (pedantic) and encoding
   checks give each defect kind at seed 1, on the first mutation-corpus
   program offering a site: pinned so that a change to how the checks
   read the description cannot move a message, its order or its count. *)
let pinned_findings =
  [
    ( "HP3", "race-ww",
      [
        "error[race-ww] word 0: mov and shl both write R25 in phase 0: the committed value is undefined";
        "info[share-rw] word 0: mov reads R25 while shl writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 3: sub reads R4 while mov writes it in phase 0 (legal: reads sample at phase start)";
      ] );
    ( "HP3", "field-overflow",
      [
        "info[share-rw] word 3: sub reads R4 while mov writes it in phase 0 (legal: reads sample at phase start)";
        "error[field-overflow] word 0: op and: value 64 does not fit the 6-bit field alu_a";
        "error[bad-operand] word 0: and operand a: register id 64 does not exist on HP3";
      ] );
    ( "HP3", "swap-fields",
      [
        "info[share-rw] word 3: sub reads R4 while mov writes it in phase 0 (legal: reads sample at phase start)";
      ] );
    ( "HP3", "drop-dep",
      [
        "info[share-rw] word 1: inc reads R4 while sub writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 3: sub reads R4 while mov writes it in phase 0 (legal: reads sample at phase start)";
      ] );
    ( "H1", "race-ww",
      [
        "error[race-ww] word 1: or and xor both write R0 in phase 1: the committed value is undefined";
        "error[unit-clash] word 1: or and xor both occupy unit alu in phase 1";
        "info[share-rw] word 1: or reads R0 while xor writes it in phase 1 (legal: reads sample at phase start)";
        "info[share-rw] word 3: and reads ACC while shl writes it in phase 1 (legal: reads sample at phase start)";
        "error[field-clash] word 1: field alu_b needed with values 0 (op or) and 8 (op xor)";
        "error[field-clash] word 1: field alu_a needed with values 3 (op or) and 8 (op xor)";
        "error[field-clash] word 1: field alu_op needed with values 5 (op or) and 6 (op xor)";
      ] );
    ( "H1", "field-overflow",
      [
        "info[share-rw] word 3: and reads ACC while shl writes it in phase 1 (legal: reads sample at phase start)";
        "error[field-overflow] word 0: op and: value 32 does not fit the 5-bit field alu_a";
        "error[bad-operand] word 0: and operand a: register id 32 does not exist on H1";
      ] );
    ( "H1", "swap-fields",
      [
        "info[share-rw] word 3: and reads ACC while shl writes it in phase 1 (legal: reads sample at phase start)";
      ] );
    ( "H1", "drop-dep",
      [
        "info[share-rw] word 2: inc reads R9 while sub writes it in phase 1 (legal: reads sample at phase start)";
        "info[share-rw] word 3: and reads ACC while shl writes it in phase 1 (legal: reads sample at phase start)";
      ] );
    ( "V11", "race-ww",
      [
        "error[race-ww] word 0: ldc and mov both write R2 in phase 0: the committed value is undefined";
        "error[unit-clash] word 0: ldc and mov both occupy unit bus in phase 0";
        "info[share-rw] word 18: mov reads ACC while add writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 19: mov reads ACC while not writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 22: add reads R12 while ldc writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 23: mov reads ACC while not writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 24: mov reads ACC while add writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 26: mov reads ACC while add writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 29: sub reads R3 while mov writes it in phase 0 (legal: reads sample at phase start)";
        "error[field-clash] word 0: field port needed with values 2 (op ldc) and 1 (op mov)";
      ] );
    ( "V11", "field-overflow",
      [
        "info[share-rw] word 18: mov reads ACC while add writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 19: mov reads ACC while not writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 22: add reads R12 while ldc writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 23: mov reads ACC while not writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 24: mov reads ACC while add writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 26: mov reads ACC while add writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 29: sub reads R3 while mov writes it in phase 0 (legal: reads sample at phase start)";
        "error[field-overflow] word 1: op ldc: value 16 does not fit the 4-bit field port_d";
        "error[bad-operand] word 1: ldc operand dst: register id 16 does not exist on V11";
      ] );
    ( "V11", "swap-fields",
      [
        "info[share-rw] word 18: mov reads ACC while add writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 19: mov reads ACC while not writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 22: add reads R12 while ldc writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 23: mov reads ACC while not writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 24: mov reads ACC while add writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 26: mov reads ACC while add writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 29: sub reads R3 while mov writes it in phase 0 (legal: reads sample at phase start)";
        "error[field-overflow] word 1: op ldc: value 116 does not fit the 4-bit field port_d";
        "error[bad-operand] word 1: ldc operand imm: register given where an immediate is expected";
        "error[bad-operand] word 1: ldc operand dst: immediate given where a register is expected";
      ] );
    ( "V11", "drop-dep",
      [
        "error[race-ww] word 2: ldc and mov both write R5 in phase 0: the committed value is undefined";
        "error[unit-clash] word 2: ldc and mov both occupy unit bus in phase 0";
        "info[share-rw] word 2: mov reads ACC while and writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 18: mov reads ACC while add writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 19: mov reads ACC while not writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 22: add reads R12 while ldc writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 23: mov reads ACC while not writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 24: mov reads ACC while add writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 26: mov reads ACC while add writes it in phase 0 (legal: reads sample at phase start)";
        "info[share-rw] word 29: sub reads R3 while mov writes it in phase 0 (legal: reads sample at phase start)";
        "error[field-clash] word 2: field port needed with values 2 (op ldc) and 1 (op mov)";
      ] );
    ( "B17", "race-ww",
      [
        "error[vertical-packed] word 1: 2 operations packed into one word of vertical machine B17";
        "error[race-ww] word 1: and and mov both write R19 in phase 0: the committed value is undefined";
        "error[unit-clash] word 1: and and mov both occupy unit exec in phase 0";
        "info[share-rw] word 1: and reads R19 while mov writes it in phase 0 (legal: reads sample at phase start)";
        "error[field-clash] word 1: field a needed with values 2 (op and) and 0 (op mov)";
        "error[field-clash] word 1: field op needed with values 6 (op and) and 1 (op mov)";
      ] );
    ( "B17", "field-overflow",
      [
        "error[field-overflow] word 0: op and: value 32 does not fit the 5-bit field a";
        "error[bad-operand] word 0: and operand a: register id 32 does not exist on B17";
      ] );
    ( "B17", "swap-fields",
      [] );
    ( "B17", "drop-dep",
      [
        "error[vertical-packed] word 4: 2 operations packed into one word of vertical machine B17";
        "error[unit-clash] word 4: sub and inc both occupy unit exec in phase 0";
        "info[share-rw] word 4: inc reads R18 while sub writes it in phase 0 (legal: reads sample at phase start)";
        "error[field-clash] word 4: field a needed with values 19 (op sub) and 18 (op inc)";
        "error[field-clash] word 4: field d needed with values 18 (op sub) and 20 (op inc)";
        "error[field-clash] word 4: field op needed with values 5 (op sub) and 17 (op inc)";
      ] );
  ]

let test_pinned_findings () =
  List.iter
    (fun (m, defect, expect) ->
      let d = Machines.get m in
      let defect = List.find (fun k -> W.defect_name k = defect) W.all_defects in
      let got =
        List.find_map
          (fun (_, insts) -> W.inject_defect d ~seed:1 defect insts)
          (mutation_corpus d)
        |> Option.map (fun mutant ->
               List.map
                 (fun f -> Fmt.str "%a" Diag.pp_finding f)
                 (Lint.check_races ~pedantic:true d mutant
                 @ Lint.check_encoding d mutant))
      in
      Alcotest.(check (option (list string)))
        (Printf.sprintf "%s %s" m (W.defect_name defect))
        (Some expect) got)
    pinned_findings

(* Crafted words for the findings no defect kind above draws. *)
let test_pinned_words () =
  let check what d insts expect =
    Alcotest.(check (list string)) what expect
      (List.map
         (fun f -> Fmt.str "%a" Diag.pp_finding f)
         (Lint.check_races ~pedantic:true d insts @ Lint.check_encoding d insts))
  in
  check "mask branch on B17" Machines.b17
    [ { Inst.ops = []; next = Inst.Branch (Desc.C_reg_mask (1, [| Desc.Mt |]), 0) } ]
    [ "error[bad-field] word 0: sequencer sets field mask, which B17 does not have" ];
  (* ops whose template is another machine's are refused, not linted
     against facts they do not have *)
  let b17_ldc = Masm.parse_program Machines.b17 "[ ldc R1, #1 ]\n[ ldc R2, #2 ]\n" in
  let foreign =
    [ { Inst.ops = List.concat_map (fun i -> i.Inst.ops) b17_ldc; next = Inst.Halt } ]
  in
  List.iter
    (fun (what, lint) ->
      Alcotest.check_raises ("B17 ops linted against HP3: " ^ what)
        (Invalid_argument "HP3: template ldc is not this machine's")
        (fun () -> ignore (lint Machines.hp3 foreign)))
    [ ("races", fun d i -> Lint.check_races ~pedantic:true d i);
      ("encoding", fun d i -> Lint.check_encoding d i) ];
  let d = Machines.hp3 in
  let op name regs =
    Inst.make d name
      (List.map (fun n -> Inst.A_reg (Desc.get_reg d n).Desc.r_id) regs)
  in
  check "four ops in one HP3 word" d
    [ { Inst.ops =
          [ op "add" [ "R3"; "R1"; "R2" ]; op "sub" [ "R4"; "R5"; "R6" ];
            op "rdr" [ "R7"; "R8" ]; op "wrr" [ "R9"; "R10" ] ];
        next = Inst.Halt } ]
    [
      "error[unit-clash] word 0: add and sub both occupy unit alu in phase 0";
      "error[unit-clash] word 0: rdr and wrr both occupy unit mem in phase 1";
      "error[race-mem] word 0: rdr and wrr both use the single memory port";
      "error[field-clash] word 0: field mem_a needed with values 8 (op rdr) and 9 (op wrr)";
      "error[field-clash] word 0: field mem_d needed with values 7 (op rdr) and 10 (op wrr)";
      "error[field-clash] word 0: field mem needed with values 3 (op rdr) and 4 (op wrr)";
      "error[field-clash] word 0: field alu_b needed with values 2 (op add) and 6 (op sub)";
      "error[field-clash] word 0: field alu_a needed with values 1 (op add) and 5 (op sub)";
      "error[field-clash] word 0: field alu_d needed with values 3 (op add) and 4 (op sub)";
      "error[field-clash] word 0: field alu_op needed with values 1 (op add) and 3 (op sub)";
    ]

(* -- unit tests: MIR analyses -------------------------------------------- *)

let prog main =
  { Mir.main; procs = []; vreg_names = []; next_vreg = 8 }

let k16 n = Mir.R_const (Bitvec.of_int ~width:16 n)

let test_uninit () =
  let read_v0 = Mir.assign (Mir.Virt 1) (Mir.R_copy (Mir.Virt 0)) in
  let p =
    prog [ { Mir.b_label = "entry"; b_stmts = [ read_v0 ]; b_term = Mir.Halt } ]
  in
  check_has "never-assigned vreg" "uninit-read" (Lint.check_uninit p);
  (* may-analysis: assigned on one incoming path is enough *)
  let p2 =
    prog
      [ { Mir.b_label = "entry"; b_stmts = [];
          b_term = Mir.If (Mir.Int_pending, "yes", "join") };
        { Mir.b_label = "yes"; b_stmts = [ Mir.assign (Mir.Virt 0) (k16 1) ];
          b_term = Mir.Goto "join" };
        { Mir.b_label = "join"; b_stmts = [ read_v0 ]; b_term = Mir.Halt } ]
  in
  check_clean "one-path assignment (may-join)" (Lint.check_uninit p2);
  (* physical registers are console-initialized machine state *)
  let p3 =
    prog
      [ { Mir.b_label = "entry";
          b_stmts = [ Mir.assign (Mir.Virt 0) (Mir.R_copy (Mir.Phys 1)) ];
          b_term = Mir.Halt } ]
  in
  check_clean "physical registers exempt" (Lint.check_uninit p3);
  (* unreachable blocks are not checked *)
  let p4 =
    prog
      [ { Mir.b_label = "entry"; b_stmts = []; b_term = Mir.Halt };
        { Mir.b_label = "island"; b_stmts = [ read_v0 ]; b_term = Mir.Halt } ]
  in
  check_clean "unreachable blocks exempt" (Lint.check_uninit p4)

let test_bindings () =
  let d = Machines.hp3 in
  let nregs = Array.length d.Desc.d_regs in
  let p bad =
    prog
      [ { Mir.b_label = "entry";
          b_stmts = [ Mir.assign (Mir.Phys bad) (k16 0) ];
          b_term = Mir.Halt } ]
  in
  check_has "out-of-range register id" "bad-reg"
    (Lint.check_bindings d (p (nregs + 3)));
  check_clean "in-range register id" (Lint.check_bindings d (p 0))

(* -- unit tests: machine analyses ---------------------------------------- *)

let an_op d = List.hd (W.compaction_block d ~seed:1 ~n:4 ~p_dep:0)

let test_dead () =
  let d = Machines.hp3 in
  let op = an_op d in
  check_has "unreachable word with an op" "dead-code"
    (Lint.check_dead d
       [ { Inst.ops = []; next = Inst.Jump 2 };
         { Inst.ops = [ op ]; next = Inst.Next };
         { Inst.ops = []; next = Inst.Halt } ]);
  check_clean "empty padding words are inert"
    (Lint.check_dead d
       [ { Inst.ops = []; next = Inst.Jump 2 };
         { Inst.ops = []; next = Inst.Next };
         { Inst.ops = []; next = Inst.Halt } ]);
  check_has "branch target outside the program" "bad-target"
    (Lint.check_dead d
       [ { Inst.ops = []; next = Inst.Jump 9 };
         { Inst.ops = []; next = Inst.Halt } ]);
  check_has "falling off the control store" "fall-off-end"
    (Lint.check_dead d [ { Inst.ops = []; next = Inst.Next } ])

let test_latency () =
  let d = Machines.hp3 in
  let dir =
    if Sys.file_exists "../examples" then "../examples" else "examples"
  in
  let src = read_file (Filename.concat dir "sum_loop.yll") in
  let compiled ~poll =
    let c, _ = compile_with_mir ~poll Toolkit.Yalll d src in
    (c.Toolkit.c_labels, c.Toolkit.c_insts)
  in
  let labels, insts = compiled ~poll:false in
  let fs = Lint.check_latency ~labels ~budget:3 d insts in
  Alcotest.(check bool)
    (Printf.sprintf "unpolled loop breaks a 3-cycle budget [%s]" (show fs))
    true
    (has "poll-unbounded" fs || has "poll-gap" fs);
  let labels, insts = compiled ~poll:true in
  check_clean "polled loop meets a generous budget"
    (Lint.check_latency ~labels ~budget:10_000 d insts)

let test_vertical () =
  (* two distinct ops packed into one word of the vertical b17 *)
  let d = Machines.b17 in
  let ops = W.compaction_block d ~seed:3 ~n:6 ~p_dep:0 in
  let distinct =
    match ops with
    | a :: rest -> (
        match
          List.find_opt
            (fun b ->
              not
                (a.Inst.op_t.Desc.t_name = b.Inst.op_t.Desc.t_name
                && a.Inst.op_args = b.Inst.op_args))
            rest
        with
        | Some b -> [ a; b ]
        | None -> Alcotest.fail "seeded block has no two distinct ops")
    | [] -> Alcotest.fail "seeded block is empty"
  in
  check_has "multi-op word on a vertical machine" "vertical-packed"
    (Lint.check_races d
       [ { Inst.ops = distinct; next = Inst.Halt } ])

(* -- unit tests: findings and renderers ---------------------------------- *)

let test_renderers () =
  let f =
    Diag.finding ~severity:Diag.Warning
      ~loc:(Diag.L_word { addr = 4; owner = Some "loop" })
      ~code:"race-ww" "double write of %s" "x"
  in
  Alcotest.(check string) "human line"
    "warning[race-ww] word 4 (block loop): double write of x"
    (Fmt.str "%a" Diag.pp_finding f);
  Alcotest.(check string) "json"
    "{\"machine\":\"HP3\",\"errors\":0,\"warnings\":1,\"findings\":[\
     {\"code\":\"race-ww\",\"severity\":\"warning\",\"loc\":{\"kind\":\"word\",\
     \"addr\":4,\"owner\":\"loop\"},\"message\":\"double write of x\"}]}"
    (Diag.report_json ~machine:"HP3" [ f ]);
  Alcotest.(check string) "sexp"
    "(finding (code race-ww) (severity warning) (loc (word 4 \"loop\")) \
     (message \"double write of x\"))"
    (Diag.finding_to_sexp f);
  Alcotest.(check string) "empty json report"
    "{\"machine\":\"HP3\",\"errors\":0,\"warnings\":0,\"findings\":[]}"
    (Diag.report_json ~machine:"HP3" []);
  (* block findings sort before word findings *)
  let g =
    Diag.finding
      ~loc:(Diag.L_block { block = "b"; stmt = Some 1 })
      ~code:"uninit-read" "v0 read before assignment"
  in
  Alcotest.(check string) "sort: MIR provenance first"
    "error[uninit-read] block b stmt 1: v0 read before assignment"
    (Fmt.str "%a" Diag.pp_finding (List.hd (Diag.by_location [ f; g ])));
  (* escaping in both structured forms *)
  let e = Diag.finding ~code:"x" "a \"quoted\"\nline" in
  Alcotest.(check string) "json escaping"
    "{\"machine\":\"HP3\",\"errors\":1,\"warnings\":0,\"findings\":[\
     {\"code\":\"x\",\"severity\":\"error\",\"loc\":null,\"message\":\"a \
     \\\"quoted\\\"\\nline\"}]}"
    (Diag.report_json ~machine:"HP3" [ e ])

(* A word's owner is the label at the greatest address not past it; among
   labels at one address the first listed wins, whatever the list order. *)
let test_word_owner () =
  let owner labels addr =
    match Diag.word_loc labels addr with
    | Diag.L_word { addr = a; owner } ->
        Alcotest.(check int) "address kept" addr a;
        owner
    | _ -> Alcotest.fail "expected a word location"
  in
  let labels = [ ("d", 5); ("b", 3); ("a", 1); ("c", 3) ] in
  List.iter
    (fun (addr, want) ->
      Alcotest.(check (option string))
        (Printf.sprintf "owner of word %d" addr)
        want (owner labels addr))
    [ (0, None); (1, Some "a"); (2, Some "a"); (3, Some "b"); (4, Some "b");
      (5, Some "d"); (9, Some "d") ];
  Alcotest.(check (option string)) "first listed wins a tie" (Some "c")
    (owner [ ("c", 3); ("b", 3) ] 4);
  Alcotest.(check (option string)) "no labels" None (owner [] 0)

let test_compiler_error () =
  match Toolkit.compile Toolkit.Yalll Machines.hp3 "?? not yalll ??" with
  | _ -> Alcotest.fail "nonsense source compiled"
  | exception Msl_util.Diag.Error d ->
      let f = Diag.of_compiler_error d in
      Alcotest.(check bool)
        (Printf.sprintf "phase becomes the finding code (got %s)" f.Diag.f_code)
        true
        (List.mem f.Diag.f_code [ "lex"; "parse" ]);
      Alcotest.(check bool) "severity is error" true
        (f.Diag.f_severity = Diag.Error)

let () =
  Alcotest.run "lint"
    [
      ( "honest programs are clean",
        [
          Alcotest.test_case "every examples/* at -O0 and -O1" `Quick
            test_honest_examples;
          Alcotest.test_case "seeded YALLL and EMPL corpora" `Quick
            test_honest_generated;
          Alcotest.test_case "seeded blocks x 4 algos x chain on/off" `Quick
            test_honest_blocks;
        ] );
      ( "injected defects are caught",
        [
          Alcotest.test_case "write-write races: 100% on all machines" `Quick
            test_detect_race;
          Alcotest.test_case "field overflows: 100% on all machines" `Quick
            test_detect_overflow;
          Alcotest.test_case "all defects: analyzer never crashes" `Quick
            test_mutants_never_crash;
          Alcotest.test_case "each defect kind: pinned findings" `Quick
            test_pinned_findings;
          Alcotest.test_case "crafted words: pinned findings" `Quick
            test_pinned_words;
        ] );
      ( "analyses",
        [
          Alcotest.test_case "uninitialized reads" `Quick test_uninit;
          Alcotest.test_case "register bindings" `Quick test_bindings;
          Alcotest.test_case "dead code and bad targets" `Quick test_dead;
          Alcotest.test_case "interrupt-poll latency" `Quick test_latency;
          Alcotest.test_case "vertical packing" `Quick test_vertical;
        ] );
      ( "findings",
        [
          Alcotest.test_case "renderers and ordering" `Quick test_renderers;
          Alcotest.test_case "compiler errors as findings" `Quick
            test_compiler_error;
          Alcotest.test_case "word owners" `Quick test_word_owner;
        ] );
    ]
