(* Unit tests for the machine-independent MIR optimization passes: one
   group per pass, plus the regression that a Store-feeding assignment
   is never removed, and an end-to-end -O0 vs -O1 equivalence check. *)

open Msl_bitvec
open Msl_machine
open Msl_mir

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bv v = Bitvec.of_int ~width:16 v

let reg d name = Mir.Phys (Desc.get_reg d name).Desc.r_id
let vx i = Mir.Virt i

let block label stmts term =
  { Mir.b_label = label; b_stmts = stmts; b_term = term }

let prog ?(nvregs = 0) blocks =
  { Mir.main = blocks; procs = []; vreg_names = []; next_vreg = nvregs }

let main_block p label =
  match List.find_opt (fun b -> b.Mir.b_label = label) (Mir.all_blocks p) with
  | Some b -> b
  | None -> Alcotest.failf "block %s disappeared" label

let stmts_of p label = (main_block p label).Mir.b_stmts

(* -- constant folding ---------------------------------------------------- *)

let test_fold_chain () =
  let d = Machines.hp3 in
  let r = reg d in
  let p =
    prog
      [
        block "entry"
          [
            Mir.assign (r "R1") (Mir.R_const (bv 6));
            Mir.assign (r "R2") (Mir.R_inc (r "R1"));
            Mir.assign (r "R3") (Mir.R_binop (Rtl.A_add, r "R1", r "R2"));
          ]
          Mir.Halt;
      ]
  in
  let p' = Opt.constant_fold p in
  let consts =
    List.filter_map
      (function
        | Mir.Assign { rv = Mir.R_const v; _ } -> Some (Bitvec.to_int v)
        | _ -> None)
      (stmts_of p' "entry")
  in
  Alcotest.(check (list int)) "whole chain folded" [ 6; 7; 13 ] consts

let test_fold_guards () =
  let d = Machines.hp3 in
  let r = reg d in
  let zero = Mir.assign (r "R2") (Mir.R_const (bv 0)) in
  let p =
    prog
      [
        block "entry"
          [
            Mir.assign (r "R1") (Mir.R_const (bv 9));
            zero;
            (* carry-in is runtime state: must not fold *)
            Mir.assign (r "R3") (Mir.R_binop (Rtl.A_adc, r "R1", r "R2"));
            (* division by a constant zero: must not fold *)
            Mir.assign (r "R4") (Mir.R_div (r "R1", r "R2"));
            (* flag-setting op keeps its opcode (the flags are the point) *)
            Mir.assign ~set_flags:true (r "R5") (Mir.R_inc (r "R1"));
          ]
          Mir.Halt;
      ]
  in
  let p' = Opt.constant_fold p in
  List.iter
    (function
      | Mir.Assign { dst; rv = Mir.R_const _; _ } when dst <> r "R1" && dst <> r "R2"
        ->
          Alcotest.fail "a guarded operation was folded to a constant"
      | _ -> ())
    (stmts_of p' "entry")

(* -- copy propagation ----------------------------------------------------- *)

let test_copy_prop () =
  let d = Machines.hp3 in
  let r = reg d in
  let p =
    prog
      [
        block "entry"
          [
            Mir.assign (r "R2") (Mir.R_copy (r "R1"));
            Mir.assign (r "R3") (Mir.R_binop (Rtl.A_add, r "R2", r "R2"));
            (* propagating R2 := R1 into R1 := R2 exposes a self-copy *)
            Mir.assign (r "R1") (Mir.R_copy (r "R2"));
          ]
          Mir.Halt;
      ]
  in
  let p' = Opt.copy_prop p in
  let stmts = stmts_of p' "entry" in
  check_int "self-copy dropped" 2 (List.length stmts);
  match stmts with
  | [ _; Mir.Assign { rv = Mir.R_binop (Rtl.A_add, a, b); _ } ] ->
      check_bool "reads rewritten to the copy source" true
        (a = r "R1" && b = r "R1")
  | _ -> Alcotest.fail "unexpected block shape after copy-prop"

(* -- dead-assignment elimination ------------------------------------------ *)

let test_dce_overwritten () =
  let d = Machines.hp3 in
  let r = reg d in
  let p =
    prog
      [
        block "entry"
          [
            Mir.assign (r "R1") (Mir.R_const (bv 1));  (* dead: overwritten *)
            Mir.assign (r "R1") (Mir.R_const (bv 2));
          ]
          Mir.Halt;
      ]
  in
  check_int "overwritten assignment removed" 1
    (List.length (stmts_of (Opt.dce p) "entry"))

let test_dce_store_feed () =
  (* regression: an assignment whose only reader is a Store operand must
     survive — deleting it would change memory *)
  let d = Machines.hp3 in
  let r = reg d in
  let p =
    prog ~nvregs:1
      [
        block "entry"
          [
            Mir.assign (vx 0) (Mir.R_const (bv 42));
            Mir.Store { addr = r "R1"; src = vx 0 };
          ]
          Mir.Halt;
      ]
  in
  let p' = Opt.dce p in
  let stmts = stmts_of p' "entry" in
  check_int "store and its feeding assignment survive" 2 (List.length stmts);
  check_bool "the store is still a store" true
    (match stmts with [ _; Mir.Store _ ] -> true | _ -> false)

let test_dce_keeps_flags_and_loads () =
  let d = Machines.hp3 in
  let r = reg d in
  let p =
    prog ~nvregs:2
      [
        block "entry"
          [
            (* dead destination, but the flags are observable *)
            Mir.assign ~set_flags:true (vx 0) (Mir.R_inc (r "R1"));
            (* dead destination, but a load may fault under trap handling *)
            Mir.assign (vx 1) (Mir.R_mem (r "R1"));
          ]
          Mir.Halt;
      ]
  in
  check_int "flag writer and load both kept" 2
    (List.length (stmts_of (Opt.dce p) "entry"))

(* -- branch simplification ------------------------------------------------- *)

let test_branch_simplify () =
  let d = Machines.hp3 in
  let r = reg d in
  let p =
    prog
      [
        block "entry"
          [ Mir.assign (r "R1") (Mir.R_const (bv 0)) ]
          (Mir.If (Mir.Zero (r "R1"), "yes", "no"));
        block "yes" [] Mir.Halt;
        block "no" [] (Mir.Goto "yes");
        block "same" [] (Mir.If (Mir.Nonzero (r "R2"), "yes", "yes"));
      ]
  in
  let p' = Opt.branch_simplify p in
  check_bool "constant test decided" true
    ((main_block p' "entry").Mir.b_term = Mir.Goto "yes");
  check_bool "coinciding arms collapsed" true
    ((main_block p' "same").Mir.b_term = Mir.Goto "yes")

let test_jump_thread () =
  let d = Machines.hp3 in
  let r = reg d in
  let p =
    prog
      [
        block "entry"
          [ Mir.assign (r "R1") (Mir.R_const (bv 1)) ]
          (Mir.Goto "hop");
        block "hop" [] (Mir.Goto "target");  (* empty forwarder *)
        block "target" [] Mir.Halt;
        block "orphan" [ Mir.assign (r "R2") (Mir.R_const (bv 9)) ] Mir.Halt;
      ]
  in
  let p' = Opt.jump_thread p in
  check_bool "jump threaded past the forwarder" true
    ((main_block p' "entry").Mir.b_term = Mir.Goto "target");
  let labels = List.map (fun b -> b.Mir.b_label) (Mir.all_blocks p') in
  check_bool "forwarder gone" false (List.mem "hop" labels);
  check_bool "unreachable block gone" false (List.mem "orphan" labels)

let test_jump_thread_keeps_loops () =
  (* an empty self-loop is an intentional infinite loop: threading must
     not chase the cycle forever or break it *)
  let p =
    prog
      [
        block "entry" [] (Mir.Goto "spin");
        block "spin" [] (Mir.Goto "spin");
      ]
  in
  let p' = Opt.jump_thread p in
  check_bool "self-loop preserved" true
    ((main_block p' "spin").Mir.b_term = Mir.Goto "spin")

(* -- end to end ------------------------------------------------------------ *)

let test_o1_matches_o0 () =
  (* a loop the optimizer cannot fold away entirely: same final state,
     no more words *)
  let d = Machines.hp3 in
  let src =
    "begin 7 -> R1; 0 -> R2; while R1 <> 0 do begin R2 + R1 -> R2; R1 - 1 \
     -> R1; end; end"
  in
  let p = Msl_simpl.Compile.parse_compile d src in
  let run opt_level =
    let sim, _, m =
      Pipeline.load
        ~options:{ Pipeline.default_options with opt_level }
        d p
    in
    (match Sim.run sim with
    | Sim.Halted -> ()
    | Sim.Out_of_fuel -> Alcotest.fail "did not halt");
    (Bitvec.to_int (Sim.get_reg sim "R2"), m.Pipeline.m_instructions)
  in
  let v0, w0 = run 0 in
  let v1, w1 = run 1 in
  check_int "-O0 computes the sum" 28 v0;
  check_int "-O1 computes the same sum" v0 v1;
  check_bool
    (Printf.sprintf "-O1 words (%d) <= -O0 words (%d)" w1 w0)
    true (w1 <= w0)

let () =
  Alcotest.run "opt"
    [
      ( "fold",
        [
          Alcotest.test_case "chain" `Quick test_fold_chain;
          Alcotest.test_case "guards" `Quick test_fold_guards;
        ] );
      ("copy-prop", [ Alcotest.test_case "basic" `Quick test_copy_prop ]);
      ( "dce",
        [
          Alcotest.test_case "overwritten" `Quick test_dce_overwritten;
          Alcotest.test_case "store feed kept" `Quick test_dce_store_feed;
          Alcotest.test_case "flags and loads kept" `Quick
            test_dce_keeps_flags_and_loads;
        ] );
      ( "branches",
        [
          Alcotest.test_case "simplify" `Quick test_branch_simplify;
          Alcotest.test_case "thread" `Quick test_jump_thread;
          Alcotest.test_case "keeps loops" `Quick test_jump_thread_keeps_loops;
        ] );
      ( "pipeline",
        [ Alcotest.test_case "-O1 matches -O0" `Quick test_o1_matches_o0 ] );
    ]
