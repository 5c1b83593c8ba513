(* Tests for the middle end: dataflow, compaction, selection, allocation,
   lowering, poll points, and the full pipeline on all four machines. *)

open Msl_bitvec
open Msl_machine
open Msl_mir
module Diag = Msl_util.Diag

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bv w v = Bitvec.of_int ~width:w v

let reg d name = Mir.Phys (Desc.get_reg d name).Desc.r_id

let block label stmts term = { Mir.b_label = label; b_stmts = stmts; b_term = term }

let prog ?(procs = []) ?(nvregs = 0) blocks =
  { Mir.main = blocks; procs; vreg_names = []; next_vreg = nvregs }

let run_mir ?options ?setup d p =
  let sim, _labels, metrics = Pipeline.load ?options d p in
  (match setup with Some f -> f sim | None -> ());
  (match Sim.run sim with
  | Sim.Halted -> ()
  | Sim.Out_of_fuel -> Alcotest.fail "program did not halt");
  (sim, metrics)

(* -- dataflow ------------------------------------------------------------- *)

let test_stmt_levels () =
  let d = Machines.hp3 in
  let r n = reg d n in
  (* four independent assignments: all level 0 *)
  let independent =
    [
      Mir.assign (r "R1") (Mir.R_const (bv 16 1));
      Mir.assign (r "R2") (Mir.R_const (bv 16 2));
      Mir.assign (r "R3") (Mir.R_const (bv 16 3));
      Mir.assign (r "R4") (Mir.R_const (bv 16 4));
    ]
  in
  Alcotest.(check (list int)) "independent" [ 0; 0; 0; 0 ]
    (Dataflow.stmt_levels independent);
  (* a chain: each level one deeper *)
  let chain =
    [
      Mir.assign (r "R1") (Mir.R_const (bv 16 1));
      Mir.assign (r "R2") (Mir.R_inc (r "R1"));
      Mir.assign (r "R3") (Mir.R_inc (r "R2"));
    ]
  in
  Alcotest.(check (list int)) "chain" [ 0; 1; 2 ] (Dataflow.stmt_levels chain);
  check_bool "parallelism of chain is 1" true
    (abs_float (Dataflow.parallelism chain -. 1.0) < 1e-9);
  check_bool "parallelism of independent is 4" true
    (abs_float (Dataflow.parallelism independent -. 4.0) < 1e-9)

let test_single_identity_war () =
  let d = Machines.hp3 in
  let r n = reg d n in
  (* x used then redefined: use must precede redefinition (WAR), but they
     may share a level — the single identity principle *)
  let stmts =
    [
      Mir.assign (r "R2") (Mir.R_inc (r "R1"));  (* use of R1 *)
      Mir.assign (r "R1") (Mir.R_const (bv 16 9));  (* redefinition *)
    ]
  in
  Alcotest.(check (list int)) "war same level" [ 0; 0 ]
    (Dataflow.stmt_levels stmts)

(* -- compaction ------------------------------------------------------------ *)

let ops_hp3 src =
  let d = Machines.hp3 in
  let prog = Masm.parse_program d src in
  List.concat_map (fun i -> i.Inst.ops) prog

(* a block with real parallelism: loads and ALU ops on disjoint registers *)
let parallel_src =
  "[ ldc R1, #1 ]\n[ ldc R2, #2 ]\n[ add R3, R1, R2 ]\n[ inc R4, R5 ]\n\
   [ shl R6, R7, #2 ]\n[ mov R8, R9 ]\n"

let test_compaction_algorithms () =
  let d = Machines.hp3 in
  let ops = ops_hp3 parallel_src in
  let count algo =
    List.length (Compaction.compact ~algo d ops).Compaction.groups
  in
  let seq = count Compaction.Sequential in
  let fcfs = count Compaction.Fcfs in
  let cp = count Compaction.Critical_path in
  let opt = count Compaction.Optimal in
  check_int "sequential = one per op" 6 seq;
  check_bool "fcfs <= sequential" true (fcfs <= seq);
  check_bool "cp <= fcfs" true (cp <= fcfs);
  check_bool "optimal <= cp" true (opt <= cp);
  check_bool "some packing happened" true (opt < seq)

let test_compaction_respects_deps () =
  let d = Machines.hp3 in
  (* chain through R1: no packing possible despite free units *)
  let ops =
    ops_hp3 "[ ldc R1, #1 ]\n[ inc R1, R1 ]\n[ add R2, R1, R1 ]\n"
  in
  List.iter
    (fun algo ->
      let r = Compaction.compact ~algo d ops in
      check_int
        (Compaction.algo_name algo ^ " chain length")
        3
        (List.length r.Compaction.groups))
    [ Compaction.Fcfs; Compaction.Critical_path; Compaction.Optimal ]

let test_compaction_vertical_forced () =
  let d = Machines.b17 in
  let prog = Masm.parse_program d "[ ldc R1, #1 ]\n[ ldc R2, #2 ]\n" in
  let ops = List.concat_map (fun i -> i.Inst.ops) prog in
  let r = Compaction.compact ~algo:Compaction.Optimal d ops in
  check_int "vertical: one op per word" 2 (List.length r.Compaction.groups);
  (* regression: the result reports the *requested* algorithm, with the
     override recorded in [forced_sequential] — T4 rows must not relabel
     vertical rows as "sequential" *)
  check_bool "r_algo is the requested algo" true
    (r.Compaction.r_algo = Compaction.Optimal);
  check_bool "forced_sequential set" true r.Compaction.forced_sequential;
  let hp3 = Machines.hp3 in
  let hp3_ops =
    List.concat_map (fun i -> i.Inst.ops)
      (Masm.parse_program hp3 "[ ldc R1, #1 ]\n[ ldc R2, #2 ]\n")
  in
  let h = Compaction.compact ~algo:Compaction.Optimal hp3 hp3_ops in
  check_bool "horizontal: not forced" false h.Compaction.forced_sequential;
  (* another machine's ops are refused, never scheduled on facts they lack *)
  Alcotest.check_raises "B17 ops on HP3"
    (Invalid_argument "HP3: template ldc is not this machine's") (fun () ->
      ignore (Compaction.compact ~algo:Compaction.Optimal hp3 ops));
  let v_seq = Compaction.compact ~algo:Compaction.Sequential d ops in
  check_bool "vertical + sequential requested: not forced" false
    v_seq.Compaction.forced_sequential

(* regression for the fcfs rewrite (reversed accumulators + doubling
   array): schedules must be structurally identical to the original
   quadratic formulation, reimplemented here as the reference. *)
let naive_fcfs ~chain d ops =
  let arr = Array.of_list ops in
  let n = Array.length arr in
  let preds = (Dataflow.graph ~chain d arr).Dataflow.g_preds in
  let place = Array.make n (-1) in
  let mis : Inst.op list array ref = ref (Array.make 0 []) in
  let count = ref 0 in
  let mi_add k op = !mis.(k) <- !mis.(k) @ [ op ] in
  let new_mi () =
    let a = Array.make (!count + 1) [] in
    Array.blit !mis 0 a 0 !count;
    mis := a;
    incr count;
    !count - 1
  in
  for j = 0 to n - 1 do
    let earliest =
      List.fold_left
        (fun acc e ->
          max acc (place.(e.Dataflow.e_src) + e.Dataflow.e_delta))
        0 preds.(j)
    in
    let fits k =
      List.for_all
        (fun e -> place.(e.Dataflow.e_src) <> k || e.Dataflow.e_delta = 0)
        preds.(j)
      && Conflict.fits d !mis.(k) arr.(j) = Ok ()
    in
    let rec scan k =
      if k >= !count then new_mi () else if fits k then k else scan (k + 1)
    in
    let k = scan earliest in
    mi_add k arr.(j);
    place.(j) <- k
  done;
  Array.to_list (Array.sub !mis 0 !count)

(* the critical-path list scheduler as it was first written: after each
   placed op, recompute every ready op, sort by descending priority then
   source order, take the first that fits.  The scheduler sorts once and
   scans; it must pick the same schedule. *)
let naive_critical_path ~chain d ops =
  let arr = Array.of_list ops in
  let n = Array.length arr in
  let g = Dataflow.graph ~chain d arr in
  let prio = g.Dataflow.g_paths in
  let place = Array.make n (-1) in
  let scheduled = ref 0 in
  let groups = ref [] in
  let k = ref 0 in
  while !scheduled < n do
    let current = ref [] in
    let progress = ref true in
    while !progress do
      progress := false;
      let candidates =
        List.init n Fun.id
        |> List.filter (fun j ->
               place.(j) = -1
               && List.for_all
                    (fun e ->
                      let p = place.(e.Dataflow.e_src) in
                      p <> -1
                      && p + e.Dataflow.e_delta <= !k
                      && (p <> !k || e.Dataflow.e_delta = 0))
                    g.Dataflow.g_preds.(j))
        |> List.sort (fun a b ->
               match compare prio.(b) prio.(a) with 0 -> compare a b | c -> c)
      in
      match
        List.find_opt (fun j -> Conflict.fits d !current arr.(j) = Ok ()) candidates
      with
      | Some j ->
          current := !current @ [ arr.(j) ];
          place.(j) <- !k;
          incr scheduled;
          progress := true
      | None -> ()
    done;
    if !current = [] then Alcotest.fail "reference list scheduler wedged";
    groups := !current :: !groups;
    incr k
  done;
  List.rev !groups

(* seeded blocks over three [machines], chaining on and off: [algo]'s
   schedule is structurally identical to [reference]'s *)
let matches_reference machines algo reference () =
  List.iter
    (fun seed ->
      let d = List.nth machines (seed mod 3) in
      let n = 4 + (seed * 7 mod 24) in
      let p_dep = seed * 13 mod 95 in
      let ops = Msl_core.Workloads.compaction_block d ~seed ~n ~p_dep in
      List.iter
        (fun chain ->
          let fast = (Compaction.compact ~chain ~algo d ops).Compaction.groups in
          let naive = reference ~chain d ops |> List.filter (fun g -> g <> []) in
          check_bool
            (Printf.sprintf "seed %d %s chain=%b identical schedule" seed
               d.Desc.d_name chain)
            true (fast = naive))
        [ true; false ])
    (List.init 40 (fun i -> i + 1))

let test_fcfs_matches_naive_reference =
  matches_reference
    [ Machines.hp3; Machines.h1; Machines.b17 ]
    Compaction.Fcfs naive_fcfs

(* B17 is vertical, so [compact] packs it sequentially whatever the
   algorithm; V11 is the third horizontal machine *)
let test_critical_path_matches_naive_reference =
  matches_reference
    [ Machines.hp3; Machines.h1; Machines.v11 ]
    Compaction.Critical_path naive_critical_path

(* regression for the branch-and-bound node accounting: the reported
   node count can never exceed the budget, even when exhausted. *)
let test_optimal_budget_accounting () =
  let d = Machines.hp3 in
  let ops = ops_hp3 parallel_src in
  let r = Compaction.compact ~algo:Compaction.Optimal ~node_budget:1 d ops in
  check_bool "exhausted" false r.Compaction.exact;
  check_bool "nodes <= budget" true (r.Compaction.nodes <= 1);
  let full = Compaction.compact ~algo:Compaction.Optimal d ops in
  check_bool "full search exact" true full.Compaction.exact;
  check_bool "full search nodes within default budget" true
    (full.Compaction.nodes <= Compaction.default_node_budget)

let test_compaction_chaining () =
  (* on 3-phase H1, a mov (phase 0) can chain into an alu op (phase 1) *)
  let d = Machines.h1 in
  let prog =
    Masm.parse_program d "[ mov R2, R1 ]\n[ add R3, R2, R2 ]\n"
  in
  let ops = List.concat_map (fun i -> i.Inst.ops) prog in
  let chained =
    Compaction.compact ~chain:true ~algo:Compaction.Critical_path d ops
  in
  let unchained =
    Compaction.compact ~chain:false ~algo:Compaction.Critical_path d ops
  in
  check_int "chained packs into one word" 1 (List.length chained.Compaction.groups);
  check_int "unchained needs two" 2 (List.length unchained.Compaction.groups)

let test_compaction_empty () =
  let d = Machines.hp3 in
  let r = Compaction.compact ~algo:Compaction.Optimal d [] in
  check_int "empty block" 0 (List.length r.Compaction.groups)

(* -- pipeline end-to-end ----------------------------------------------------- *)

(* sum 1..n as a MIR loop, runnable on every machine *)
let sum_prog d n =
  let r1 = reg d "R1" and r2 = reg d "R2" in
  prog
    [
      block "entry"
        [
          Mir.assign r1 (Mir.R_const (bv d.Desc.d_word n));
          Mir.assign r2 (Mir.R_const (bv d.Desc.d_word 0));
        ]
        (Mir.Goto "loop");
      block "loop" [] (Mir.If (Mir.Nonzero r1, "body", "out"));
      block "body"
        [
          Mir.assign r2 (Mir.R_binop (Rtl.A_add, r2, r1));
          Mir.assign r1 (Mir.R_dec r1);
        ]
        (Mir.Goto "loop");
      block "out" [] Mir.Halt;
    ]

let test_pipeline_sum_all_machines () =
  List.iter
    (fun d ->
      let sim, _ = run_mir d (sum_prog d 10) in
      check_int (d.Desc.d_name ^ " sum") 55 (Bitvec.to_int (Sim.get_reg sim "R2")))
    Machines.all

let test_pipeline_memory () =
  List.iter
    (fun d ->
      let r1 = reg d "R1" and r2 = reg d "R2" and r3 = reg d "R3" in
      let p =
        prog
          [
            block "entry"
              [
                Mir.assign r1 (Mir.R_const (bv d.Desc.d_word 100));
                Mir.assign r2 (Mir.R_mem r1);
                Mir.assign r2 (Mir.R_binop (Rtl.A_add, r2, r2));
                Mir.assign r3 (Mir.R_const (bv d.Desc.d_word 101));
                Mir.Store { addr = r3; src = r2 };
              ]
              Mir.Halt;
          ]
      in
      let sim, _ =
        run_mir d p ~setup:(fun sim ->
            Memory.poke (Sim.memory sim) 100 (bv d.Desc.d_word 21))
      in
      check_int
        (d.Desc.d_name ^ " store")
        42
        (Bitvec.to_int (Memory.peek (Sim.memory sim) 101)))
    Machines.all

let test_pipeline_switch () =
  (* 4-way switch on low 2 bits; dispatch on H1/HP3, chain on V11/B17 *)
  List.iter
    (fun d ->
      let r1 = reg d "R1" and r2 = reg d "R2" in
      let case l v =
        block l [ Mir.assign r2 (Mir.R_const (bv d.Desc.d_word v)) ] Mir.Halt
      in
      let p =
        prog
          [
            block "entry"
              [ Mir.assign r1 (Mir.R_const (bv d.Desc.d_word 6)) ]
              (Mir.Switch
                 { sel = r1; hi = 1; lo = 0; targets = [ "c0"; "c1"; "c2"; "c3" ] });
            case "c0" 100;
            case "c1" 101;
            case "c2" 102;
            case "c3" 103;
          ]
      in
      let sim, _ = run_mir d p in
      (* 6 = 0b110, low two bits = 2 *)
      check_int (d.Desc.d_name ^ " switch") 102
        (Bitvec.to_int (Sim.get_reg sim "R2")))
    Machines.all

let test_pipeline_call () =
  List.iter
    (fun d ->
      let r1 = reg d "R1" in
      let p =
        prog
          ~procs:
            [
              {
                Mir.p_name = "double";
                p_blocks =
                  [
                    block "double$entry"
                      [ Mir.assign r1 (Mir.R_binop (Rtl.A_add, r1, r1)) ]
                      Mir.Ret;
                  ];
              };
            ]
          [
            block "entry"
              [ Mir.assign r1 (Mir.R_const (bv d.Desc.d_word 5)) ]
              (Mir.Call { proc = "double"; cont = "next" });
            block "next" [] (Mir.Call { proc = "double"; cont = "out" });
            block "out" [] Mir.Halt;
          ]
      in
      let sim, _ = run_mir d p in
      check_int (d.Desc.d_name ^ " calls") 20
        (Bitvec.to_int (Sim.get_reg sim "R1")))
    Machines.all

let test_pipeline_unop_expansions () =
  (* inc/dec/neg/not everywhere, including V11 which synthesises them *)
  List.iter
    (fun d ->
      let r1 = reg d "R1" and r2 = reg d "R2" in
      let w = d.Desc.d_word in
      let p =
        prog
          [
            block "entry"
              [
                Mir.assign r1 (Mir.R_const (bv w 10));
                Mir.assign r1 (Mir.R_inc r1);  (* 11 *)
                Mir.assign r1 (Mir.R_dec r1);  (* 10 *)
                Mir.assign r2 (Mir.R_neg r1);  (* -10 *)
                Mir.assign r2 (Mir.R_binop (Rtl.A_add, r2, r1));  (* 0 *)
                Mir.assign r2 (Mir.R_not r2);  (* all ones *)
              ]
              Mir.Halt;
          ]
      in
      let sim, _ = run_mir d p in
      check_bool
        (d.Desc.d_name ^ " not(0) = ones")
        true
        (Bitvec.equal (Sim.get_reg sim "R2") (Bitvec.ones w)))
    Machines.all

let test_pipeline_shifts () =
  List.iter
    (fun d ->
      let r1 = reg d "R1" in
      let w = d.Desc.d_word in
      let p =
        prog
          [
            block "entry"
              [
                Mir.assign r1 (Mir.R_const (bv w 3));
                Mir.assign r1 (Mir.R_shift_imm (Rtl.A_shl, r1, 4));  (* 48 *)
                Mir.assign r1 (Mir.R_shift_imm (Rtl.A_shr, r1, 2));  (* 12 *)
              ]
              Mir.Halt;
          ]
      in
      let sim, _ = run_mir d p in
      check_int (d.Desc.d_name ^ " shifts") 12
        (Bitvec.to_int (Sim.get_reg sim "R1")))
    Machines.all

let test_pipeline_flag_branch_after_shift () =
  (* SIMPL's UF: shift right, branch on the shifted-out bit *)
  List.iter
    (fun d ->
      let r1 = reg d "R1" and r2 = reg d "R2" in
      let w = d.Desc.d_word in
      let p =
        prog
          [
            block "entry"
              [
                Mir.assign r1 (Mir.R_const (bv w 5));
                Mir.Assign
                  {
                    dst = r1;
                    rv = Mir.R_shift_imm (Rtl.A_shr, r1, 1);
                    set_flags = true;
                  };
              ]
              (Mir.If (Mir.Flag_set Rtl.U, "odd", "even"));
            block "odd"
              [ Mir.assign r2 (Mir.R_const (bv w 1)) ]
              Mir.Halt;
            block "even"
              [ Mir.assign r2 (Mir.R_const (bv w 0)) ]
              Mir.Halt;
          ]
      in
      let sim, _ = run_mir d p in
      check_int (d.Desc.d_name ^ " UF of 5>>1") 1
        (Bitvec.to_int (Sim.get_reg sim "R2")))
    Machines.all

(* -- mul/div expansion -------------------------------------------------------- *)

let vx i = Mir.Virt i

let test_mul_native_and_expanded () =
  List.iter
    (fun d ->
      let w = d.Desc.d_word in
      let p =
        {
          Mir.main =
            [
              block "entry"
                [
                  Mir.assign (vx 0) (Mir.R_const (bv w 7));
                  Mir.assign (vx 1) (Mir.R_const (bv w 13));
                  Mir.assign (vx 2) (Mir.R_binop (Rtl.A_mul, vx 0, vx 1));
                  Mir.assign (reg d "R1") (Mir.R_copy (vx 2));
                ]
                Mir.Halt;
            ];
          procs = [];
          vreg_names = [];
          next_vreg = 3;
        }
      in
      let sim, _ = run_mir d p in
      check_int (d.Desc.d_name ^ " 7*13") 91
        (Bitvec.to_int (Sim.get_reg sim "R1")))
    Machines.all

let test_div_expansion () =
  List.iter
    (fun d ->
      let w = d.Desc.d_word in
      let p =
        {
          Mir.main =
            [
              block "entry"
                [
                  Mir.assign (vx 0) (Mir.R_const (bv w 1000));
                  Mir.assign (vx 1) (Mir.R_const (bv w 31));
                  Mir.assign (vx 2) (Mir.R_div (vx 0, vx 1));
                  Mir.assign (vx 3) (Mir.R_rem (vx 0, vx 1));
                  Mir.assign (reg d "R1") (Mir.R_copy (vx 2));
                  Mir.assign (reg d "R2") (Mir.R_copy (vx 3));
                ]
                Mir.Halt;
            ];
          procs = [];
          vreg_names = [];
          next_vreg = 4;
        }
      in
      let sim, _ = run_mir d p in
      check_int (d.Desc.d_name ^ " 1000/31") 32
        (Bitvec.to_int (Sim.get_reg sim "R1"));
      check_int (d.Desc.d_name ^ " 1000 mod 31") 8
        (Bitvec.to_int (Sim.get_reg sim "R2")))
    [ Machines.h1; Machines.hp3; Machines.b17 ]

(* -- register allocation -------------------------------------------------------- *)

(* a program with [n] simultaneously-live virtual registers, summed at the
   end; correct under any allocation *)
let many_vars_prog d n =
  let w = d.Desc.d_word in
  let defs =
    List.init n (fun i -> Mir.assign (vx i) (Mir.R_const (bv w (i + 1))))
  in
  let sums =
    List.init n (fun i ->
        if i = 0 then Mir.assign (vx n) (Mir.R_copy (vx 0))
        else Mir.assign (vx n) (Mir.R_binop (Rtl.A_add, vx n, vx i)))
  in
  {
    Mir.main =
      [
        block "entry"
          (defs @ sums @ [ Mir.assign (reg d "R0") (Mir.R_copy (vx n)) ])
          Mir.Halt;
      ];
    procs = [];
    vreg_names = [];
    next_vreg = n + 1;
  }

(* The allocator tests pin -O0: their constant-seeded workloads are exactly
   what the optimizer folds away, and the point here is the allocator. *)
let alloc_opts = { Pipeline.default_options with Pipeline.opt_level = 0 }

let test_regalloc_no_spills () =
  let d = Machines.hp3 in
  let sim, m = run_mir d ~options:alloc_opts (many_vars_prog d 8) in
  check_int "sum correct" 36 (Bitvec.to_int (Sim.get_reg sim "R0"));
  match m.Pipeline.m_alloc with
  | Some s ->
      check_int "no spills with 8 vars" 0 s.Regalloc.spilled
  | None -> Alcotest.fail "allocator did not run"

let test_regalloc_spills_correct () =
  let d = Machines.hp3 in
  let n = 40 in
  let sim, m =
    run_mir d
      ~options:{ alloc_opts with Pipeline.pool_limit = Some 6 }
      (many_vars_prog d n)
  in
  check_int "sum correct despite spills" (n * (n + 1) / 2)
    (Bitvec.to_int (Sim.get_reg sim "R0"));
  match m.Pipeline.m_alloc with
  | Some s ->
      check_bool "spills occurred" true (s.Regalloc.spilled > 0);
      check_bool "loads counted" true (s.Regalloc.spill_loads > 0);
      check_bool "stores counted" true (s.Regalloc.spill_stores > 0)
  | None -> Alcotest.fail "allocator did not run"

let test_regalloc_priority_beats_first_fit () =
  (* a hot variable used many times plus cold ones: with a tiny pool the
     priority allocator must spill less traffic than first-fit *)
  let d = Machines.hp3 in
  let w = d.Desc.d_word in
  let hot = vx 0 in
  let n_cold = 8 in
  let cold i = vx (1 + i) in
  let defs =
    Mir.assign hot (Mir.R_const (bv w 1))
    :: List.init n_cold (fun i -> Mir.assign (cold i) (Mir.R_const (bv w i)))
  in
  let uses =
    List.concat
      (List.init 20 (fun _ -> [ Mir.assign hot (Mir.R_inc hot) ]))
    @ List.init n_cold (fun i ->
          Mir.assign (cold i) (Mir.R_inc (cold i)))
  in
  let p =
    {
      Mir.main =
        [
          block "entry"
            (defs @ uses
            @ [ Mir.assign (reg d "R0") (Mir.R_copy hot) ])
            Mir.Halt;
        ];
      procs = [];
      vreg_names = [];
      next_vreg = n_cold + 1;
    }
  in
  let traffic strategy =
    let _, m =
      run_mir d
        ~options:{ alloc_opts with Pipeline.strategy; pool_limit = Some 2 }
        p
    in
    match m.Pipeline.m_alloc with
    | Some s -> s.Regalloc.spill_loads + s.Regalloc.spill_stores
    | None -> Alcotest.fail "allocator did not run"
  in
  let ff = traffic Regalloc.First_fit in
  let pr = traffic Regalloc.Priority in
  check_bool
    (Printf.sprintf "priority (%d) <= first-fit (%d)" pr ff)
    true (pr <= ff)

(* -- poll points ------------------------------------------------------------------ *)

let test_pollpoints () =
  let d = Machines.hp3 in
  let p = sum_prog d 200 in
  let sim, _, _ =
    Pipeline.load ~options:{ Pipeline.default_options with poll = true } d p
  in
  Sim.schedule_interrupts sim [ 50; 150; 250 ];
  (match Sim.run sim with
  | Sim.Halted -> ()
  | Sim.Out_of_fuel -> Alcotest.fail "did not halt");
  check_int "all interrupts serviced" 3 (Sim.interrupts_serviced sim);
  check_int "result still correct" (200 * 201 / 2)
    (Bitvec.to_int (Sim.get_reg sim "R2"));
  (* without poll points, interrupts are never acknowledged *)
  let sim2, _, _ = Pipeline.load d p in
  Sim.schedule_interrupts sim2 [ 50 ];
  (match Sim.run sim2 with
  | Sim.Halted -> ()
  | Sim.Out_of_fuel -> Alcotest.fail "did not halt");
  check_int "no poll, no service" 0 (Sim.interrupts_serviced sim2)

(* -- trap-safe recompilation (survey §2.1.5) ------------------------------------ *)

(* The survey's incread program, as MIR: increment a register, use it as a
   memory address.  Under a page-fault restart the literal translation
   double-increments; the trap-safe recompilation does not. *)
let test_trapsafe_incread () =
  let d = Machines.hp3 in
  let r1 = reg d "R1" and r2 = reg d "R2" in
  let p =
    prog
      [
        block "entry"
          [
            Mir.assign r1 (Mir.R_inc r1);
            Mir.assign r2 (Mir.R_mem r1);
          ]
          Mir.Halt;
      ]
  in
  let run trap_safe =
    let sim, _, _ =
      Pipeline.load
        ~options:{ Pipeline.default_options with trap_safe }
        ~trap_mode:Sim.Restart d p
    in
    Sim.set_reg_int sim "R1" 299;
    Memory.mark_absent (Sim.memory sim) ~page:1;
    (match Sim.run sim with
    | Sim.Halted -> ()
    | Sim.Out_of_fuel -> Alcotest.fail "did not halt");
    (Bitvec.to_int (Sim.get_reg sim "R1"), Sim.traps_taken sim)
  in
  let buggy, t1 = run false in
  let safe, t2 = run true in
  check_int "one trap each" 1 t1;
  check_int "one trap each" 1 t2;
  check_int "literal translation double-increments" 301 buggy;
  check_int "trap-safe recompilation is idempotent" 300 safe

(* trap_safe must not change results in the absence of faults *)
let test_trapsafe_preserves_semantics () =
  List.iter
    (fun d ->
      let sim_plain, _ = run_mir d (sum_prog d 10) in
      let sim_safe, _ =
        run_mir d
          ~options:{ Pipeline.default_options with trap_safe = true }
          (sum_prog d 10)
      in
      check_int
        (d.Desc.d_name ^ " same result")
        (Bitvec.to_int (Sim.get_reg sim_plain "R2"))
        (Bitvec.to_int (Sim.get_reg sim_safe "R2")))
    Machines.all;
  (* and with memory traffic in the block *)
  let d = Machines.hp3 in
  let r1 = reg d "R1" and r2 = reg d "R2" and r3 = reg d "R3" in
  let p =
    prog
      [
        block "entry"
          [
            Mir.assign r1 (Mir.R_const (bv 16 100));
            Mir.assign r2 (Mir.R_mem r1);
            Mir.assign r2 (Mir.R_binop (Rtl.A_add, r2, r2));
            Mir.assign r3 (Mir.R_inc r1);
            Mir.Store { addr = r3; src = r2 };
            Mir.assign r1 (Mir.R_inc r3);
          ]
          Mir.Halt;
      ]
  in
  let run trap_safe =
    let sim, _ =
      run_mir d
        ~options:{ Pipeline.default_options with trap_safe }
        ~setup:(fun sim -> Memory.poke (Sim.memory sim) 100 (bv 16 21))
        p
    in
    ( Bitvec.to_int (Sim.get_reg sim "R1"),
      Bitvec.to_int (Memory.peek (Sim.memory sim) 101) )
  in
  Alcotest.(check (pair int int)) "trap-safe agrees" (run false) (run true)

(* -- compile metrics ---------------------------------------------------------------- *)

let test_metrics () =
  let d = Machines.hp3 in
  let _, _, m = Pipeline.compile d (sum_prog d 10) in
  check_bool "instructions > 0" true (m.Pipeline.m_instructions > 0);
  check_bool "ops >= instructions - branches" true (m.Pipeline.m_ops > 0);
  check_int "bits = words * width" (m.Pipeline.m_instructions * d.Desc.d_word_bits)
    m.Pipeline.m_bits

let () =
  Alcotest.run "mir"
    [
      ( "dataflow",
        [
          Alcotest.test_case "levels" `Quick test_stmt_levels;
          Alcotest.test_case "single identity WAR" `Quick
            test_single_identity_war;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "algorithm ordering" `Quick
            test_compaction_algorithms;
          Alcotest.test_case "dependences respected" `Quick
            test_compaction_respects_deps;
          Alcotest.test_case "vertical forced sequential" `Quick
            test_compaction_vertical_forced;
          Alcotest.test_case "fcfs matches naive reference" `Quick
            test_fcfs_matches_naive_reference;
          Alcotest.test_case "critical-path matches naive reference" `Quick
            test_critical_path_matches_naive_reference;
          Alcotest.test_case "bb node accounting" `Quick
            test_optimal_budget_accounting;
          Alcotest.test_case "transport chaining" `Quick
            test_compaction_chaining;
          Alcotest.test_case "empty block" `Quick test_compaction_empty;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "sum on all machines" `Quick
            test_pipeline_sum_all_machines;
          Alcotest.test_case "memory" `Quick test_pipeline_memory;
          Alcotest.test_case "switch" `Quick test_pipeline_switch;
          Alcotest.test_case "call" `Quick test_pipeline_call;
          Alcotest.test_case "unary expansions" `Quick
            test_pipeline_unop_expansions;
          Alcotest.test_case "shifts" `Quick test_pipeline_shifts;
          Alcotest.test_case "UF branch" `Quick
            test_pipeline_flag_branch_after_shift;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "multiply" `Quick test_mul_native_and_expanded;
          Alcotest.test_case "division" `Quick test_div_expansion;
        ] );
      ( "regalloc",
        [
          Alcotest.test_case "no spills" `Quick test_regalloc_no_spills;
          Alcotest.test_case "spills correct" `Quick
            test_regalloc_spills_correct;
          Alcotest.test_case "priority vs first-fit" `Quick
            test_regalloc_priority_beats_first_fit;
        ] );
      ("pollpoints", [ Alcotest.test_case "latency" `Quick test_pollpoints ]);
      ( "trapsafe",
        [
          Alcotest.test_case "incread repaired" `Quick test_trapsafe_incread;
          Alcotest.test_case "semantics preserved" `Quick
            test_trapsafe_preserves_semantics;
        ] );
      ("metrics", [ Alcotest.test_case "basic" `Quick test_metrics ]);
    ]
