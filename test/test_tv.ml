(* Tests for the translation validator: the Symexec term and decision
   layers (normalizer soundness against concrete simulation, exhaustive
   proof, sampled refutation, budget exhaustion) and the Tv validation
   passes (honest blocks validate; every injected miscompile kind is
   refuted and its witness store replays, through [Tv.replay], to
   divergent architectural state). *)

open Msl_bitvec
open Msl_machine
module Core = Msl_core
module Tv = Msl_mir.Tv
module Select = Msl_mir.Select
module Compaction = Msl_mir.Compaction

let check_bool = Alcotest.(check bool)
let hp3 = Machines.hp3
let h1 = Machines.h1

(* A concrete environment over a seeded assignment; memory starts zero,
   matching a freshly created simulator. *)
let env_of a =
  {
    Symexec.e_var =
      (fun n ->
        match List.assoc_opt n a with
        | Some v -> v
        | None -> Alcotest.failf "unbound symbolic variable %s" n);
    e_mem = (fun _ -> 0L);
  }

(* -- the decision layer -------------------------------------------------- *)

(* x - y and x + (lnot y) + 1 build different terms; 16 live bits fit the
   default exhaustive budget, so the equality is proved, not sampled. *)
let test_decide_proved () =
  let ctx = Symexec.create_ctx () in
  let x = Symexec.var ctx "x" 8 and y = Symexec.var ctx "y" 8 in
  let lhs = Symexec.sub ctx x y in
  let rhs =
    Symexec.add ctx
      (Symexec.add ctx x (Symexec.lognot ctx y))
      (Symexec.const ctx (Bitvec.of_int ~width:8 1))
  in
  check_bool "terms differ structurally" true (lhs.Symexec.id <> rhs.Symexec.id);
  match Symexec.decide [ (lhs, rhs) ] with
  | Symexec.Proved -> ()
  | Symexec.Refuted _ -> Alcotest.fail "refuted a true equality"
  | Symexec.Unknown -> Alcotest.fail "budget should cover 16 live bits"

(* The same goal under a starved budget (no enumeration, no samples) is
   the honest answer: Unknown. *)
let test_decide_unknown () =
  let ctx = Symexec.create_ctx () in
  let x = Symexec.var ctx "x" 8 and y = Symexec.var ctx "y" 8 in
  let lhs = Symexec.sub ctx x y in
  let rhs =
    Symexec.add ctx
      (Symexec.add ctx x (Symexec.lognot ctx y))
      (Symexec.const ctx (Bitvec.of_int ~width:8 1))
  in
  match Symexec.decide ~budget_bits:0 ~samples:0 [ (lhs, rhs) ] with
  | Symexec.Unknown -> ()
  | _ -> Alcotest.fail "a starved budget must answer Unknown"

(* x + 1 vs x + 2: refuted, and the counterexample actually separates the
   two terms under concrete evaluation. *)
let test_decide_refuted () =
  let ctx = Symexec.create_ctx () in
  let x = Symexec.var ctx "x" 8 in
  let lhs = Symexec.add ctx x (Symexec.const ctx (Bitvec.of_int ~width:8 1)) in
  let rhs = Symexec.add ctx x (Symexec.const ctx (Bitvec.of_int ~width:8 2)) in
  match Symexec.decide [ (lhs, rhs) ] with
  | Symexec.Refuted cx ->
      let env = env_of cx in
      check_bool "counterexample separates the terms" false
        (Symexec.equal_under env lhs rhs)
  | _ -> Alcotest.fail "expected a refutation"

(* -- normalizer soundness: symbolic execution vs the interpreter --------- *)

(* Compact a generated block, execute the words symbolically, then check
   that every register and flag term evaluates — under seeded concrete
   stores — to exactly what the interpreter computes.  This holds every
   smart-constructor rewrite (constant folding, ALU lowering, flag
   reduction, slice/zext normalization) to Sim's concrete semantics, on
   the 16-bit 2-phase HP3, the 64-bit 3-phase H1, the single-phase B17,
   and V11, whose generated blocks are moves and accumulator ALU ops. *)
let block_words ?(p_dep = 40) d ~seed ~n =
  let ops = Core.Workloads.compaction_block d ~seed ~n ~p_dep in
  let r =
    Compaction.compact ~chain:true ~algo:Compaction.Critical_path d ops
  in
  List.map (fun g -> { Inst.ops = g; next = Inst.Next }) r.Compaction.groups
  @ [ { Inst.ops = []; next = Inst.Halt } ]

let test_symexec_matches_sim () =
  List.iter
    (fun (d : Desc.t) ->
      List.iter
        (fun seed ->
          let words = block_words d ~seed ~n:10 in
          let ctx = Symexec.create_ctx () in
          let store = Symexec.init_store ctx d in
          List.iter
            (fun (w : Inst.t) -> Symexec.exec_word ctx d store w.Inst.ops)
            words;
          List.iter
            (fun a ->
              let env = env_of a in
              let sim = Sim.create d in
              Sim.load_store sim words;
              Tv.apply_assignment d sim a;
              (match Sim.run ~fuel:256 sim with
              | Sim.Halted -> ()
              | Sim.Out_of_fuel -> Alcotest.fail "block did not halt");
              Array.iteri
                (fun i (r : Desc.reg) ->
                  let want = Sim.get_reg sim r.Desc.r_name in
                  let got = Symexec.eval env (Symexec.reg ctx d store i) in
                  if not (Bitvec.equal want got) then
                    Alcotest.failf "%s seed %d, %s: sim %s vs symexec %s"
                      d.Desc.d_name seed r.Desc.r_name (Bitvec.to_string want)
                      (Bitvec.to_string got))
                d.Desc.d_regs;
              List.iter
                (fun fl ->
                  let t = Symexec.flag ctx store fl in
                  let want = Sim.get_flag sim fl in
                  let got = not (Bitvec.is_zero (Symexec.eval env t)) in
                  if want <> got then
                    Alcotest.failf "%s seed %d, flag %s: sim %b vs symexec %b"
                      d.Desc.d_name seed (Rtl.flag_name fl) want got)
                Rtl.all_flags)
            (Tv.seeded_assignments d ~seed ~n:3))
        [ 1; 2; 3; 4; 5; 6; 7; 8 ])
    [ hp3; h1; Machines.b17; Machines.v11 ]

(* -- hash-consing normalizations ----------------------------------------- *)

let test_normalizer_identities () =
  let ctx = Symexec.create_ctx () in
  let x = Symexec.var ctx "x" 8 and y = Symexec.var ctx "y" 8 in
  check_bool "add commutes to one term" true
    ((Symexec.add ctx x y).Symexec.id = (Symexec.add ctx y x).Symexec.id);
  check_bool "x - x folds to zero" true
    (match (Symexec.sub ctx x x).Symexec.node with
    | Symexec.Const v -> Bitvec.is_zero v
    | _ -> false);
  check_bool "double negation cancels" true
    ((Symexec.lognot ctx (Symexec.lognot ctx x)).Symexec.id = x.Symexec.id);
  check_bool "slice of zext re-canonicalizes" true
    ((Symexec.slice ctx (Symexec.zext ctx 16 x) ~hi:7 ~lo:0).Symexec.id
    = x.Symexec.id)

(* -- block-level validation: the layered verdicts ------------------------ *)

let to_words insts =
  List.map
    (fun (w : Inst.t) ->
      ( w.Inst.ops,
        match w.Inst.next with
        | Inst.Halt -> Select.L_halt
        | _ -> Select.L_next ))
    insts

let parse_words d src = to_words (Masm.parse_program d src)

(* R1 + R1 vs R1 shl 1: equal on every input but structurally different
   (shifts stay opaque), so the verdict walks the layers: on HP3's 16-bit
   registers the default budget enumerates every input and proves it; on
   H1's 64-bit registers no budget covers the input space and sampling
   finds no counterexample, so the answer is Unknown — never a
   validation. *)
let test_validate_words_layers () =
  let add = "[ add R0, R1, R1 ] -> halt\n" in
  let shl1 = "[ shl R0, R1, #1 ] -> halt\n" in
  let reference = parse_words hp3 add in
  (match Tv.validate_words hp3 ~reference ~candidate:(parse_words hp3 shl1) with
  | Tv.Validated -> ()
  | _ -> Alcotest.fail "expected an exhaustive proof");
  let h1_reference = parse_words h1 add in
  (match
     Tv.validate_words h1 ~reference:h1_reference
       ~candidate:(parse_words h1 shl1)
   with
  | Tv.Unknown -> ()
  | _ -> Alcotest.fail "64 live input bits must answer Unknown");
  (* R1 shl 2 computes something else: refuted with a counterexample on
     both machines, so H1's Unknown above is the budget's answer *)
  let shl2 = "[ shl R0, R1, #2 ] -> halt\n" in
  List.iter
    (fun (d, reference) ->
      match
        Tv.validate_words d ~reference ~candidate:(parse_words d shl2)
      with
      | Tv.Refuted (Some _) -> ()
      | _ -> Alcotest.failf "%s: expected a counterexample refutation" d.Desc.d_name)
    [ (hp3, reference); (h1, h1_reference) ]

let test_validate_honest_block () =
  List.iter
    (fun seed ->
      let ops = Core.Workloads.compaction_block hp3 ~seed ~n:12 ~p_dep:50 in
      let reference =
        List.map (fun o -> ([ o ], Select.L_next)) ops @ [ ([], Select.L_halt) ]
      in
      let candidate = to_words (block_words ~p_dep:50 hp3 ~seed ~n:12) in
      (* same n/p_dep: candidate is the compaction of the same op list *)
      match Tv.validate_words hp3 ~reference ~candidate with
      | Tv.Validated -> ()
      | Tv.Refuted _ -> Alcotest.failf "honest compaction refuted (seed %d)" seed
      | Tv.Unknown -> Alcotest.failf "honest compaction unknown (seed %d)" seed)
    [ 1; 2; 3; 4; 5 ]

(* Different p_dep: a genuinely different op list must not validate. *)
let test_validate_different_blocks () =
  let ops = Core.Workloads.compaction_block hp3 ~seed:1 ~n:12 ~p_dep:50 in
  let reference =
    List.map (fun o -> ([ o ], Select.L_next)) ops @ [ ([], Select.L_halt) ]
  in
  let candidate = to_words (block_words hp3 ~seed:2 ~n:12) in
  match Tv.validate_words hp3 ~reference ~candidate with
  | Tv.Refuted _ -> ()
  | Tv.Validated -> Alcotest.fail "validated two different blocks"
  | Tv.Unknown -> Alcotest.fail "expected a refutation, got Unknown"

(* -- the lazy store: a slot neither side touched needs no goal ----------- *)

let word d src =
  match Masm.parse_program d (Printf.sprintf "[ %s ] -> halt\n" src) with
  | [ w ] -> w.Inst.ops
  | _ -> Alcotest.failf "expected one word: %s" src

let check_refuted_naming what reg = function
  | Tv.Refuted (Some cx) ->
      check_bool
        (what ^ ": counterexample names " ^ reg)
        true
        (List.mem_assoc (Symexec.reg_var_name reg) cx)
  | _ -> Alcotest.failf "%s: expected a counterexample refutation" what

(* R6 is written on one side only, so its slot is unset on the other: the
   goal must still be made, whichever side wrote it. *)
let test_lazy_one_sided_write () =
  let plain = [ (word hp3 "mov R0, R1", Select.L_halt) ] in
  let extra =
    [
      (word hp3 "mov R0, R1", Select.L_next);
      (word hp3 "mov R6, R2", Select.L_halt);
    ]
  in
  check_refuted_naming "write in the candidate" "R6"
    (Tv.validate_words hp3 ~reference:plain ~candidate:extra);
  check_refuted_naming "write in the reference" "R6"
    (Tv.validate_words hp3 ~reference:extra ~candidate:plain)

(* Reading a register makes its input on that side alone; the other side's
   unset slot is the same input, so reads never cost a validation. *)
let test_lazy_reads_validate () =
  let check what reference candidate =
    match Tv.validate_words hp3 ~reference ~candidate with
    | Tv.Validated -> ()
    | _ -> Alcotest.failf "%s: expected a validation" what
  in
  (* R2 is read only by the reference, R4 only by the candidate *)
  check "read on one side"
    [
      (word hp3 "mov R0, R1", Select.L_next);
      (word hp3 "xor R3, R2, R2", Select.L_halt);
    ]
    [
      (word hp3 "mov R0, R1", Select.L_next);
      (word hp3 "xor R3, R4, R4", Select.L_halt);
    ];
  check "read on both sides"
    [ (word hp3 "add R0, R1, R2", Select.L_halt) ]
    [ (word hp3 "add R0, R2, R1", Select.L_halt) ]

(* A call havocs both stores under one prefix: slots untouched since are
   equal on both sides, and a write before the call on one side only is
   refuted at the call's exit (after it, both sides are havocked). *)
let test_lazy_across_call () =
  let call = Select.L_call "f" in
  let after = (word hp3 "add R3, R4, R5", Select.L_halt) in
  let reference = [ (word hp3 "mov R0, R1", call); after ] in
  (match
     Tv.validate_words hp3 ~reference
       ~candidate:
         [
           (word hp3 "mov R0, R1", call);
           (word hp3 "add R3, R5, R4", Select.L_halt);
         ]
   with
  | Tv.Validated -> ()
  | _ -> Alcotest.fail "equal blocks across a call must validate");
  check_refuted_naming "write before the call" "R6"
    (Tv.validate_words hp3 ~reference
       ~candidate:
         [
           (word hp3 "mov R0, R1", Select.L_next);
           (word hp3 "mov R6, R2", call);
           after;
         ])

(* -- program-level validation: miscompiles refuted and replayed ---------- *)

let read_example name =
  let dir = if Sys.file_exists "../examples" then "../examples" else "examples" in
  let ic = open_in_bin (Filename.concat dir name) in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_miscompiles_refuted () =
  let d = hp3 in
  let c = Core.Toolkit.compile Core.Toolkit.Yalll d (read_example "gcd.yll") in
  let insts = c.Core.Toolkit.c_insts in
  List.iter
    (fun kind ->
      let name = Core.Workloads.miscompile_name kind in
      let found = ref false in
      List.iter
        (fun seed ->
          match Core.Workloads.inject_miscompile d ~seed kind insts with
          | None -> ()
          | Some (mutant, witness) ->
              found := true;
              let r =
                Tv.validate_program d ~labels:c.Core.Toolkit.c_labels
                  ~reference:insts ~candidate:mutant
              in
              check_bool (name ^ " refuted") true (r.Tv.v_refuted > 0);
              check_bool
                (name ^ " witness replays to divergent state")
                true
                (Tv.replay d insts witness <> Tv.replay d mutant witness))
        [ 0; 1; 2; 3; 4 ];
      check_bool (name ^ " found an injectable site") true !found)
    Core.Workloads.all_miscompiles

(* An honest program validates against itself at the program level — the
   trivial but load-bearing false-alarm floor. *)
let test_program_self_validates () =
  let d = hp3 in
  let c = Core.Toolkit.compile Core.Toolkit.Yalll d (read_example "gcd.yll") in
  let insts = c.Core.Toolkit.c_insts in
  let r = Tv.validate_program d ~reference:insts ~candidate:insts in
  check_bool "no refutations" true (r.Tv.v_refuted = 0);
  check_bool "no unknowns" true (r.Tv.v_unknown = 0);
  check_bool "all validated" true (r.Tv.v_validated = r.Tv.v_total)

(* Every examples/ source on every machine at -O0/-O1/-O2, compiled for
   proof and proved: 84 jobs and 272 block artifacts, each one Validated,
   and every superoptimizer rewrite replays Validated.  The counts pin
   the corpus, so a validator that drops a block or a goal fails here. *)
let test_corpus_proves () =
  let dir = if Sys.file_exists "../examples" then "../examples" else "examples" in
  let language f =
    List.find_map
      (fun (ext, l) -> if Filename.check_suffix f ext then Some (f, l) else None)
      [ (".yll", Core.Toolkit.Yalll); (".simpl", Core.Toolkit.Simpl);
        (".empl", Core.Toolkit.Empl) ]
  in
  let sources =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter_map language
  in
  let jobs = ref 0 and blocks = ref 0 in
  List.iter
    (fun (f, lang) ->
      let src = read_example f in
      List.iter
        (fun d ->
          List.iter
            (fun o ->
              let options = { Msl_mir.Pipeline.default_options with opt_level = o } in
              let _, inputs = Core.Toolkit.compile_for_proof ~options lang d src in
              let r, unproved = Core.Toolkit.prove d inputs in
              let what = Printf.sprintf "%s on %s -O%d" f d.Desc.d_name o in
              incr jobs;
              blocks := !blocks + r.Tv.v_total;
              Alcotest.(check int)
                (what ^ ": one verdict per artifact")
                (List.length inputs.Core.Toolkit.p_artifacts)
                r.Tv.v_total;
              Alcotest.(check int) (what ^ ": validated") r.Tv.v_total
                r.Tv.v_validated;
              check_bool (what ^ ": rewrites replay Validated") true
                (unproved = []))
            [ 0; 1; 2 ])
        [ hp3; h1; Machines.v11; Machines.b17 ])
    sources;
  Alcotest.(check int) "jobs" 84 !jobs;
  Alcotest.(check int) "artifacts" 272 !blocks

let () =
  Alcotest.run "tv"
    [
      ( "decide",
        [
          Alcotest.test_case "proved within budget" `Quick test_decide_proved;
          Alcotest.test_case "unknown when starved" `Quick test_decide_unknown;
          Alcotest.test_case "refuted with counterexample" `Quick
            test_decide_refuted;
        ] );
      ( "symexec",
        [
          Alcotest.test_case "matches the interpreter" `Quick
            test_symexec_matches_sim;
          Alcotest.test_case "normalizer identities" `Quick
            test_normalizer_identities;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "verdict layers (add vs shl)" `Quick
            test_validate_words_layers;
          Alcotest.test_case "honest compaction validates" `Quick
            test_validate_honest_block;
          Alcotest.test_case "different blocks refuted" `Quick
            test_validate_different_blocks;
        ] );
      ( "lazy store",
        [
          Alcotest.test_case "one-sided write refuted" `Quick
            test_lazy_one_sided_write;
          Alcotest.test_case "reads validate" `Quick test_lazy_reads_validate;
          Alcotest.test_case "across a call" `Quick test_lazy_across_call;
        ] );
      ( "programs",
        [
          Alcotest.test_case "miscompiles refuted and replayed" `Quick
            test_miscompiles_refuted;
          Alcotest.test_case "honest program self-validates" `Quick
            test_program_self_validates;
          Alcotest.test_case "examples corpus proves" `Quick test_corpus_proves;
        ] );
    ]
