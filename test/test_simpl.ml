(* Tests for the SIMPL frontend (survey §2.2.1), including the paper's
   64-bit floating-point multiplication example on H1. *)

open Msl_bitvec
open Msl_machine
open Msl_mir
module Simpl = Msl_simpl
module Diag = Msl_util.Diag

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let compile_run ?options ?(setup = fun _ -> ()) d src =
  let p = Simpl.Compile.parse_compile d src in
  let sim, _, metrics = Pipeline.load ?options d p in
  setup sim;
  (match Sim.run sim with
  | Sim.Halted -> ()
  | Sim.Out_of_fuel -> Alcotest.fail "program did not halt");
  (sim, metrics)

let reg64 sim name = Bitvec.to_int64 (Sim.get_reg sim name)

(* The survey's example: multiplication of two 64-bit floating point
   numbers (sign 1 bit, exponent 13 bits, mantissa 50 bits), multiplicand
   in R1, multiplier in R2, product to R3.  M3 extracts the exponent, M4
   the mantissa; they are aliases for mask registers preset by the host. *)
let fpmul_src =
  "program fpmul;\n\
   alias M3 = R8;\n\
   alias M4 = R9;\n\
   begin\n\
   comment extract and determine exponent for product;\n\
  \  R1 & M3 -> ACC;\n\
  \  R2 & M3 -> R4;\n\
  \  R4 + ACC -> ACC;\n\
  \  R3 | ACC -> R3;\n\
   comment extract mantissas and clear ACC;\n\
  \  R1 & M4 -> R1;\n\
  \  R2 & M4 -> R2;\n\
  \  R0 -> ACC;\n\
   comment multiplication proper by shift and add;\n\
  \  while R2 <> 0 do\n\
  \  begin\n\
  \    ACC ^-1 -> ACC;\n\
  \    R2 ^-1 -> R2;\n\
  \    if UF = 1 then R1 + ACC -> ACC;\n\
  \  end;\n\
   comment pack exponent and mantissa into fp format;\n\
  \  R3 | ACC -> R3;\n\
   end\n"

let exp_mask = Int64.shift_left 0x1FFFL 50  (* bits 62..50 *)
let man_mask = Int64.sub (Int64.shift_left 1L 50) 1L

let make_fp ~exp ~man =
  Int64.logor (Int64.shift_left (Int64.of_int exp) 50) man

(* Reference interpretation of the paper's algorithm, in OCaml. *)
let reference_fpmul a b =
  let ea = Int64.logand a exp_mask and eb = Int64.logand b exp_mask in
  let ma = Int64.logand a man_mask in
  let mb = ref (Int64.logand b man_mask) in
  let acc = ref 0L in
  while !mb <> 0L do
    acc := Int64.shift_right_logical !acc 1;
    let uf = Int64.logand !mb 1L = 1L in
    mb := Int64.shift_right_logical !mb 1;
    if uf then acc := Int64.add !acc ma
  done;
  Int64.logor (Int64.add ea eb) !acc

let run_fpmul a b =
  let d = Machines.h1 in
  let sim, _ =
    compile_run d fpmul_src ~setup:(fun sim ->
        Sim.set_reg sim "R1" (Bitvec.of_int64 ~width:64 a);
        Sim.set_reg sim "R2" (Bitvec.of_int64 ~width:64 b);
        Sim.set_reg sim "R8" (Bitvec.of_int64 ~width:64 exp_mask);
        Sim.set_reg sim "R9" (Bitvec.of_int64 ~width:64 man_mask))
  in
  reg64 sim "R3"

let test_fpmul () =
  let cases =
    [
      (make_fp ~exp:3 ~man:0x2000000000000L, make_fp ~exp:4 ~man:0x2000000000000L);
      (make_fp ~exp:100 ~man:12345L, make_fp ~exp:7 ~man:98765L);
      (make_fp ~exp:1 ~man:man_mask, make_fp ~exp:1 ~man:3L);
      (make_fp ~exp:0 ~man:0L, make_fp ~exp:5 ~man:77L);
    ]
  in
  List.iter
    (fun (a, b) ->
      let got = run_fpmul a b in
      let want = reference_fpmul a b in
      Alcotest.(check int64)
        (Printf.sprintf "fpmul %Lx * %Lx" a b)
        want got)
    cases

let test_fpmul_compacts () =
  (* the whole point of SIMPL: sequential source, horizontal object code —
     compaction must beat one-op-per-word sequential code *)
  let d = Machines.h1 in
  let p = Simpl.Compile.parse_compile d fpmul_src in
  let words algo =
    let _, _, m =
      Pipeline.compile ~options:{ Pipeline.default_options with algo } d p
    in
    m.Pipeline.m_instructions
  in
  let seq = words Compaction.Sequential in
  let cp = words Compaction.Critical_path in
  check_bool
    (Printf.sprintf "compacted (%d) < sequential (%d)" cp seq)
    true (cp < seq)

(* -- language features ------------------------------------------------------ *)

let test_while_sum () =
  List.iter
    (fun d ->
      let src =
        "begin\n\
        \  10 -> R1;\n\
        \  0 -> R2;\n\
        \  while R1 <> 0 do\n\
        \  begin\n\
        \    R2 + R1 -> R2;\n\
        \    R1 - 1 -> R1;\n\
        \  end;\n\
         end\n"
      in
      let sim, _ = compile_run d src in
      check_int (d.Desc.d_name ^ " while sum") 55
        (Bitvec.to_int (Sim.get_reg sim "R2")))
    Machines.all

let test_if_else_relations () =
  let d = Machines.hp3 in
  let run a b rel =
    let src =
      Printf.sprintf
        "begin\n  %d -> R1;\n  %d -> R2;\n  if R1 %s R2 then 1 -> R3 else 0 -> R3;\nend\n"
        a b rel
    in
    let sim, _ = compile_run d src in
    Bitvec.to_int (Sim.get_reg sim "R3")
  in
  check_int "3 < 5" 1 (run 3 5 "<");
  check_int "5 < 3" 0 (run 5 3 "<");
  check_int "5 <= 5" 1 (run 5 5 "<=");
  check_int "5 > 3" 1 (run 5 3 ">");
  check_int "3 >= 5" 0 (run 3 5 ">=");
  check_int "4 = 4" 1 (run 4 4 "=");
  check_int "4 <> 4" 0 (run 4 4 "<>");
  check_int "4 <> 5" 1 (run 4 5 "<>")

let test_for_loop () =
  let d = Machines.hp3 in
  let src =
    "begin\n\
    \  0 -> R2;\n\
    \  for R1 := 1 to 10 do R2 + R1 -> R2;\n\
     end\n"
  in
  let sim, _ = compile_run d src in
  check_int "for sum" 55 (Bitvec.to_int (Sim.get_reg sim "R2"))

let test_case () =
  (* a case (multiway branch) with 4 alternatives, on all machines *)
  List.iter
    (fun d ->
      let src =
        "begin\n\
        \  2 -> R1;\n\
        \  case R1 of\n\
        \  begin\n\
        \    100 -> R2;\n\
        \    101 -> R2;\n\
        \    102 -> R2;\n\
        \    103 -> R2\n\
        \  end;\n\
         end\n"
      in
      let sim, _ = compile_run d src in
      check_int (d.Desc.d_name ^ " case") 102
        (Bitvec.to_int (Sim.get_reg sim "R2")))
    Machines.all

let test_procedures () =
  let d = Machines.hp3 in
  let src =
    "program p;\n\
     procedure double; R1 + R1 -> R1;\n\
     begin\n\
    \  5 -> R1;\n\
    \  call double;\n\
    \  call double;\n\
     end\n"
  in
  let sim, _ = compile_run d src in
  check_int "procedure calls" 20 (Bitvec.to_int (Sim.get_reg sim "R1"))

let test_memory_read_write () =
  let d = Machines.h1 in
  let src =
    "begin\n\
    \  200 -> R1;\n\
    \  read R1 -> R2;\n\
    \  R2 + R2 -> R2;\n\
    \  201 -> R3;\n\
    \  write R2 -> R3;\n\
     end\n"
  in
  let sim, _ =
    compile_run d src ~setup:(fun sim ->
        Memory.poke (Sim.memory sim) 200 (Bitvec.of_int ~width:64 33))
  in
  check_int "read/double/write" 66
    (Bitvec.to_int (Memory.peek (Sim.memory sim) 201))

let test_aliases () =
  let d = Machines.hp3 in
  let src =
    "alias counter = R5;\n\
     alias total = R6;\n\
     begin\n\
    \  3 -> counter;\n\
    \  0 -> total;\n\
    \  while counter <> 0 do\n\
    \  begin total + counter -> total; counter - 1 -> counter; end;\n\
     end\n"
  in
  let sim, _ = compile_run d src in
  check_int "aliases denote registers" 6 (Bitvec.to_int (Sim.get_reg sim "R6"))

let test_rotate () =
  let d = Machines.hp3 in
  let src = "begin\n  32769 -> R1;\n  R1 ^^ 1 -> R1;\nend\n" in
  (* 0x8001 rotated left once on 16 bits = 0x0003 *)
  let sim, _ = compile_run d src in
  check_int "rotate" 3 (Bitvec.to_int (Sim.get_reg sim "R1"))

let expect_diag phase f =
  match f () with
  | exception Diag.Error dg when dg.Diag.phase = phase -> ()
  | exception Diag.Error dg ->
      Alcotest.failf "wrong phase: %s" (Diag.to_string dg)
  | _ -> Alcotest.fail "expected a diagnostic"

let test_errors () =
  let d = Machines.hp3 in
  (* expressions may contain only one operator *)
  expect_diag Diag.Parsing (fun () ->
      Simpl.Compile.parse_compile d "begin R1 + R2 + R3 -> R4; end");
  (* variables are machine registers *)
  expect_diag Diag.Semantic (fun () ->
      Simpl.Compile.parse_compile d "begin 1 -> nosuchreg; end");
  expect_diag Diag.Semantic (fun () ->
      Simpl.Compile.parse_compile d "alias x = nosuchreg;\nbegin 1 -> x; end");
  (* case alternatives must be a power of two *)
  expect_diag Diag.Semantic (fun () ->
      Simpl.Compile.parse_compile d
        "begin case R1 of begin 1 -> R2; 2 -> R2; 3 -> R2 end; end");
  expect_diag Diag.Parsing (fun () ->
      Simpl.Compile.parse_compile d "begin R1 -> 5; end")

let test_parallelism_profile () =
  let d = Machines.h1 in
  let p = Simpl.Compile.parse_compile d fpmul_src in
  let blocks = List.filter (fun b -> b.Mir.b_stmts <> []) (Mir.all_blocks p) in
  check_bool "profile nonempty" true (blocks <> []);
  (* the exponent-extraction block has independent statements: its depth
     must be strictly smaller than its statement count *)
  check_bool "some block has parallelism" true
    (List.exists (fun b -> Dataflow.parallelism b.Mir.b_stmts > 1.0) blocks)

let () =
  Alcotest.run "simpl"
    [
      ( "paper example",
        [
          Alcotest.test_case "floating point multiply" `Quick test_fpmul;
          Alcotest.test_case "fpmul compacts" `Quick test_fpmul_compacts;
        ] );
      ( "language",
        [
          Alcotest.test_case "while" `Quick test_while_sum;
          Alcotest.test_case "relations" `Quick test_if_else_relations;
          Alcotest.test_case "for" `Quick test_for_loop;
          Alcotest.test_case "case" `Quick test_case;
          Alcotest.test_case "procedures" `Quick test_procedures;
          Alcotest.test_case "memory" `Quick test_memory_read_write;
          Alcotest.test_case "aliases" `Quick test_aliases;
          Alcotest.test_case "rotate" `Quick test_rotate;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "parallelism profile" `Quick
            test_parallelism_profile;
        ] );
    ]
