(* The differential compaction oracle.

   Every compaction algorithm × transport-chaining setting must be
   observationally equivalent: same final register file, same final
   memory, same halt-vs-divergence behaviour — on seeded microoperation
   blocks, on seeded whole programs through the allocator, and on every
   example program shipped in examples/.  Additionally every schedule
   must satisfy the conflict model (Compaction.check), and the
   branch-and-bound algorithm must never be beaten by its own
   list-scheduling fallback (Optimal <= Critical_path in words). *)

open Msl_bitvec
open Msl_machine
open Msl_mir
module Core = Msl_core
module Toolkit = Msl_core.Toolkit

let algos =
  [ Compaction.Sequential; Compaction.Fcfs; Compaction.Critical_path;
    Compaction.Optimal ]

let chains = [ true; false ]

(* -- observational state ------------------------------------------------------ *)

(* Registers plus the memory regions programs touch (the low pages and
   the spill scratchpad), rendered so Alcotest can diff them. *)
let observe d sim =
  let regs =
    Desc.regs d
    |> List.map (fun (r : Desc.reg) ->
           Printf.sprintf "%s=%Ld" r.Desc.r_name
             (Bitvec.to_int64 (Sim.get_reg_id sim r.Desc.r_id)))
  in
  let mem_region base len =
    List.init len (fun i ->
        let a = base + i in
        let v = Bitvec.to_int64 (Memory.peek (Sim.memory sim) a) in
        if v = 0L then "" else Printf.sprintf "m[%d]=%Ld" a v)
    |> List.filter (fun s -> s <> "")
  in
  let scratch = max 0 (d.Desc.d_scratch_base - 256) in
  let scratch_len = max 0 (min 320 (Memory.size (Sim.memory sim) - scratch)) in
  String.concat " "
    (regs @ mem_region 0 512 @ mem_region scratch scratch_len)

(* -- seeded microoperation blocks --------------------------------------------- *)

let run_block d groups =
  let insts =
    List.map (fun g -> { Inst.ops = g; next = Inst.Next }) groups
    @ [ { Inst.ops = []; next = Inst.Halt } ]
  in
  let sim = Sim.create d in
  Sim.load_store sim insts;
  (* deterministic nonzero initial state so moves are visible *)
  Array.iteri
    (fun i (r : Desc.reg) ->
      Sim.set_reg sim r.Desc.r_name
        (Bitvec.of_int ~width:r.Desc.r_width (i * 7919 + 13)))
    (Desc.regs d |> Array.of_list);
  (match Sim.run sim with
  | Sim.Halted -> ()
  | Sim.Out_of_fuel -> Alcotest.fail "block did not halt");
  observe d sim

let block_machines = [ Machines.hp3; Machines.h1; Machines.b17 ]

(* 60 seeded block workloads: machine, size and dependence density all
   driven off the seed. *)
let block_cases =
  List.init 60 (fun seed ->
      let d = List.nth block_machines (seed mod 3) in
      let n = 4 + (seed * 7 mod 24) in
      let p_dep = seed * 13 mod 95 in
      (seed + 1, d, n, p_dep))

(* V11's accumulator datapath gets its own seeded blocks: moves and
   two-operand ALU ops into ACC. *)
let v11_block_cases =
  List.init 12 (fun i ->
      let seed = 101 + i in
      (seed, Machines.v11, 4 + (seed * 7 mod 24), seed * 13 mod 95))

let check_blocks cases =
  List.iter
    (fun (seed, d, n, p_dep) ->
      let ops = Core.Workloads.compaction_block d ~seed ~n ~p_dep in
      let reference = run_block d (List.map (fun o -> [ o ]) ops) in
      List.iter
        (fun chain ->
          let words = Hashtbl.create 4 in
          List.iter
            (fun algo ->
              let r = Compaction.compact ~chain ~algo d ops in
              Hashtbl.replace words algo (List.length r.Compaction.groups);
              Alcotest.(check bool)
                (Printf.sprintf "seed %d %s %s chain=%b passes check" seed
                   d.Desc.d_name (Compaction.algo_name algo) chain)
                true
                (Compaction.check ~chain d ops r.Compaction.groups);
              Alcotest.(check string)
                (Printf.sprintf "seed %d %s %s chain=%b state" seed
                   d.Desc.d_name (Compaction.algo_name algo) chain)
                reference
                (run_block d r.Compaction.groups))
            algos;
          Alcotest.(check bool)
            (Printf.sprintf "seed %d %s chain=%b: optimal <= critical-path"
               seed d.Desc.d_name chain)
            true
            (Hashtbl.find words Compaction.Optimal
            <= Hashtbl.find words Compaction.Critical_path))
        chains)
    cases

(* -- whole programs through the full pipeline --------------------------------- *)

let compile_and_observe lang d options src =
  let c = Toolkit.compile ~options lang d src in
  let sim = Toolkit.run ~fuel:500_000 c in
  (observe d sim, c.Toolkit.c_words)

let check_program what lang d src =
  let reference =
    compile_and_observe lang d Pipeline.default_options src |> fst
  in
  let words = Hashtbl.create 4 in
  List.iter
    (fun chain ->
      List.iter
        (fun algo ->
          let options = { Pipeline.default_options with algo; chain } in
          let state, nwords = compile_and_observe lang d options src in
          if chain then Hashtbl.replace words algo nwords;
          Alcotest.(check string)
            (Printf.sprintf "%s on %s: %s chain=%b" what d.Desc.d_name
               (Compaction.algo_name algo) chain)
            reference state)
        algos)
    chains;
  Alcotest.(check bool)
    (Printf.sprintf "%s on %s: optimal <= critical-path words" what
       d.Desc.d_name)
    true
    (Hashtbl.find words Compaction.Optimal
    <= Hashtbl.find words Compaction.Critical_path)

(* seeded EMPL pressure programs: compaction choices downstream of the
   register allocator (spill code included) must not change results *)
let test_pressure_programs () =
  List.iter
    (fun seed ->
      let src =
        Core.Workloads.pressure_program ~seed ~nvars:10 ~nops:16
      in
      check_program
        (Printf.sprintf "pressure seed %d" seed)
        Toolkit.Empl Machines.hp3 src)
    [ 1; 2; 3; 4; 5; 6 ]

(* seeded YALLL corpus programs across all three 16-bit machines *)
let test_yalll_programs () =
  List.iter
    (fun seed ->
      let src = Core.Workloads.yalll_program ~seed ~len:14 in
      List.iter
        (fun d ->
          check_program
            (Printf.sprintf "yalll seed %d" seed)
            Toolkit.Yalll d src)
        [ Machines.hp3; Machines.v11; Machines.b17 ])
    [ 1; 2; 3; 4 ]

(* -- every example program ------------------------------------------------------ *)

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

let test_examples () =
  let sources = example_sources () in
  Alcotest.(check bool)
    "found the example corpus" true
    (List.length sources >= 6);
  List.iter
    (fun (name, lang, machines, path) ->
      let src = read_file path in
      List.iter (fun d -> check_program name lang d src) machines)
    sources

(* -- -O1 vs -O0 ----------------------------------------------------------------- *)

(* The optimizer's observability contract: source-visible physical
   registers and program memory at exit are preserved exactly.  The
   machine's reserved scratch registers (classes "at"/"at2"/"acc") and
   the spill pad above [d_scratch_base] are compiler-internal — which
   registers the backend scratches through legitimately changes with the
   program the optimizer hands it — so the oracle compares everything
   but those.  -O1 must also never emit more words than -O0. *)

let scratch_classes = [ "at"; "at2"; "acc" ]

let program_phys_regs (p : Mir.program) =
  let add acc = function Mir.Phys i -> i :: acc | Mir.Virt _ -> acc in
  let of_block acc (b : Mir.block) =
    let acc =
      List.fold_left
        (fun acc s ->
          List.fold_left add acc (Mir.stmt_reads s @ Mir.stmt_writes s))
        acc b.Mir.b_stmts
    in
    List.fold_left add acc (Mir.term_reads b.Mir.b_term)
  in
  List.fold_left of_block [] (Mir.all_blocks p) |> List.sort_uniq compare

let observe_visible d regs sim =
  let visible =
    Desc.regs d
    |> List.filter (fun (r : Desc.reg) ->
           List.mem r.Desc.r_id regs
           && not (List.exists (Desc.reg_in_class r) scratch_classes))
  in
  let reg_part =
    List.map
      (fun (r : Desc.reg) ->
        Printf.sprintf "%s=%Ld" r.Desc.r_name
          (Bitvec.to_int64 (Sim.get_reg_id sim r.Desc.r_id)))
      visible
  in
  let mem_region base len =
    List.init len (fun i ->
        let a = base + i in
        let v = Bitvec.to_int64 (Memory.peek (Sim.memory sim) a) in
        if v = 0L then "" else Printf.sprintf "m[%d]=%Ld" a v)
    |> List.filter (fun s -> s <> "")
  in
  let data = max 0 (d.Desc.d_scratch_base - 256) in
  String.concat " "
    (reg_part @ mem_region 0 512
    @ mem_region data (d.Desc.d_scratch_base - data))

let check_opt_levels what d (p : Mir.program) =
  let regs = program_phys_regs p in
  let run opt_level =
    let sim, _, m =
      Pipeline.load ~options:{ Pipeline.default_options with opt_level } d p
    in
    (match Sim.run ~fuel:500_000 sim with
    | Sim.Halted -> ()
    | Sim.Out_of_fuel ->
        Alcotest.failf "%s at -O%d did not halt" what opt_level);
    (observe_visible d regs sim, m.Pipeline.m_instructions)
  in
  let s0, w0 = run 0 in
  let s1, w1 = run 1 in
  Alcotest.(check string)
    (Printf.sprintf "%s on %s: -O1 state = -O0 state" what d.Desc.d_name)
    s0 s1;
  Alcotest.(check bool)
    (Printf.sprintf "%s on %s: -O1 words (%d) <= -O0 words (%d)" what
       d.Desc.d_name w1 w0)
    true (w1 <= w0)

let test_opt_blocks () =
  (* seeded straight-line blocks wrapped as one-block programs *)
  List.iter
    (fun seed ->
      let d = List.nth block_machines (seed mod 3) in
      let n = 6 + (seed * 5 mod 20) in
      let stmts = Core.Workloads.simpl_block d ~seed ~n ~p_dep:40 in
      let p =
        { Mir.main =
            [ { Mir.b_label = "b"; b_stmts = stmts; b_term = Mir.Halt } ];
          procs = []; vreg_names = []; next_vreg = 0 }
      in
      check_opt_levels (Printf.sprintf "opt block seed %d" seed) d p)
    (List.init 12 (fun i -> i + 1))

let test_opt_generated () =
  List.iter
    (fun seed ->
      let src = Core.Workloads.pressure_program ~seed ~nvars:10 ~nops:16 in
      check_opt_levels
        (Printf.sprintf "opt pressure seed %d" seed)
        Machines.hp3
        (Msl_empl.Compile.parse_compile Machines.hp3 src))
    [ 1; 2; 3; 4; 5; 6 ];
  List.iter
    (fun seed ->
      let src = Core.Workloads.yalll_program ~seed ~len:14 in
      List.iter
        (fun d ->
          check_opt_levels
            (Printf.sprintf "opt yalll seed %d" seed)
            d
            (Msl_yalll.Compile.parse_compile d src))
        [ Machines.hp3; Machines.v11; Machines.b17 ])
    [ 1; 2; 3; 4 ]

let test_opt_examples () =
  List.iter
    (fun (name, lang, machines, path) ->
      let src = read_file path in
      let parse d =
        match lang with
        | Toolkit.Simpl -> Msl_simpl.Compile.parse_compile d src
        | Toolkit.Empl -> Msl_empl.Compile.parse_compile d src
        | Toolkit.Yalll -> Msl_yalll.Compile.parse_compile d src
        | Toolkit.Sstar -> assert false  (* no MIR; not in this corpus *)
      in
      List.iter (fun d -> check_opt_levels name d (parse d)) machines)
    (example_sources ())

let () =
  Alcotest.run "differential"
    [
      ( "oracle",
        [
          Alcotest.test_case "60 seeded blocks x 4 algos x chain on/off"
            `Quick (fun () -> check_blocks block_cases);
          Alcotest.test_case "seeded V11 blocks x 4 algos x chain on/off"
            `Quick (fun () -> check_blocks v11_block_cases);
          Alcotest.test_case "EMPL pressure programs" `Quick
            test_pressure_programs;
          Alcotest.test_case "YALLL corpus programs" `Quick
            test_yalll_programs;
          Alcotest.test_case "every examples/* program" `Quick test_examples;
        ] );
      ( "opt oracle",
        [
          Alcotest.test_case "-O1 vs -O0 on seeded blocks" `Quick
            test_opt_blocks;
          Alcotest.test_case "-O1 vs -O0 on generated programs" `Quick
            test_opt_generated;
          Alcotest.test_case "-O1 vs -O0 on every example" `Quick
            test_opt_examples;
        ] );
    ]
