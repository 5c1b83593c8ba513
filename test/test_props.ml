(* Cross-cutting property and differential tests.

   The single strongest correctness argument this repository can make is
   differential: many independently-built paths must agree —
   - every compaction algorithm must produce a schedule that *executes*
     identically to the sequential one;
   - the same source program compiled to different machines must compute
     the same values;
   - register allocation under pressure (with spill code) must compute the
     same values as allocation without pressure;
   - the control-word encoder must encode what the conflict model allowed.

   All generators are seeded through qcheck so failures reproduce. *)

open Msl_bitvec
open Msl_machine
open Msl_mir
module Core = Msl_core

(* -- compaction preserves semantics ---------------------------------------- *)

(* Run a straight-line block of machine ops (grouped into MIs) and return
   the final register file. *)
let run_groups d groups =
  let insts =
    List.map (fun g -> { Inst.ops = g; next = Inst.Next }) groups
    @ [ { Inst.ops = []; next = Inst.Halt } ]
  in
  let sim = Sim.create d in
  Sim.load_store sim insts;
  (* deterministic nonzero initial state *)
  Array.iteri
    (fun i (r : Desc.reg) ->
      Sim.set_reg sim r.Desc.r_name
        (Bitvec.of_int ~width:r.Desc.r_width (i * 7919 + 13)))
    d.Desc.d_regs;
  for a = 0 to 63 do
    Memory.poke (Sim.memory sim) a (Bitvec.of_int ~width:d.Desc.d_word (a * 31))
  done;
  (match Sim.run sim with
  | Sim.Halted -> ()
  | Sim.Out_of_fuel -> failwith "block did not halt");
  Array.map (fun (r : Desc.reg) -> Sim.get_reg_id sim r.Desc.r_id) d.Desc.d_regs

let machines_for_blocks = [ Machines.hp3; Machines.h1; Machines.b17 ]

let compaction_equivalence =
  QCheck.Test.make ~count:120 ~name:"compaction preserves block semantics"
    QCheck.(triple (int_bound 2) (int_range 2 24) (int_bound 90))
    (fun (mi, n, p_dep) ->
      let d = List.nth machines_for_blocks mi in
      let ops = Core.Workloads.compaction_block d ~seed:(n * 100 + p_dep) ~n ~p_dep in
      let reference = run_groups d (List.map (fun o -> [ o ]) ops) in
      List.for_all
        (fun algo ->
          let r = Compaction.compact ~algo d ops in
          let got = run_groups d r.Compaction.groups in
          Array.for_all2 Bitvec.equal reference got)
        [ Compaction.Fcfs; Compaction.Critical_path; Compaction.Optimal ])

let compaction_chain_equivalence =
  QCheck.Test.make ~count:60
    ~name:"chained and unchained schedules agree (H1)"
    QCheck.(pair (int_range 2 20) (int_bound 90))
    (fun (n, p_dep) ->
      let d = Machines.h1 in
      let ops = Core.Workloads.compaction_block d ~seed:(n * 7 + p_dep) ~n ~p_dep in
      let run chain =
        let r = Compaction.compact ~chain ~algo:Compaction.Critical_path d ops in
        run_groups d r.Compaction.groups
      in
      Array.for_all2 Bitvec.equal (run true) (run false))

(* -- retargeting: same source, same answers --------------------------------- *)

(* A random straight-line YALLL program over five bound registers.
   All three 16-bit machines must agree on every register. *)
let gen_yalll_line rng =
  let r () = Printf.sprintf "r%d" (1 + Random.State.int rng 5) in
  match Random.State.int rng 10 with
  | 0 -> Printf.sprintf "set %s, %d" (r ()) (Random.State.int rng 1000)
  | 1 -> Printf.sprintf "move %s, %s" (r ()) (r ())
  | 2 -> Printf.sprintf "inc %s, %s" (r ()) (r ())
  | 3 -> Printf.sprintf "dec %s, %s" (r ()) (r ())
  | 4 -> Printf.sprintf "not %s, %s" (r ()) (r ())
  | 5 -> Printf.sprintf "neg %s, %s" (r ()) (r ())
  | 6 ->
      Printf.sprintf "%s %s, %s, %d"
        (List.nth [ "lsl"; "lsr"; "asr"; "rol"; "ror" ] (Random.State.int rng 5))
        (r ()) (r ())
        (1 + Random.State.int rng 7)
  | _ ->
      Printf.sprintf "%s %s, %s, %s"
        (List.nth [ "add"; "sub"; "and"; "or"; "xor" ] (Random.State.int rng 5))
        (r ()) (r ()) (r ())

let gen_yalll_program seed len =
  let rng = Random.State.make [| seed |] in
  let decls = List.init 5 (fun i -> Printf.sprintf "reg r%d = r%d" (i + 1) (i + 1)) in
  let setup = List.init 5 (fun i -> Printf.sprintf "set r%d, %d" (i + 1) ((i * 37) + 5)) in
  let body = List.init len (fun _ -> gen_yalll_line rng) in
  String.concat "\n" (decls @ setup @ body @ [ "exit" ]) ^ "\n"

let yalll_retarget_agreement =
  QCheck.Test.make ~count:100 ~name:"YALLL agrees across 16-bit machines"
    QCheck.(pair (int_bound 10_000) (int_range 1 40))
    (fun (seed, len) ->
      let src = gen_yalll_program seed len in
      let final d =
        let c = Core.Toolkit.compile Core.Toolkit.Yalll d src in
        let sim = Core.Toolkit.run c in
        List.init 5 (fun i ->
            Bitvec.to_int (Sim.get_reg sim (Printf.sprintf "R%d" (i + 1))))
      in
      let hp3 = final Machines.hp3 in
      let b17 = final Machines.b17 in
      let v11 = final Machines.v11 in
      hp3 = b17 && hp3 = v11)

(* compaction choice never changes YALLL program results *)
let yalll_algo_agreement =
  QCheck.Test.make ~count:60 ~name:"YALLL agrees across compaction algorithms"
    QCheck.(pair (int_bound 10_000) (int_range 1 30))
    (fun (seed, len) ->
      let src = gen_yalll_program seed len in
      let final algo =
        let c =
          Core.Toolkit.compile
            ~options:{ Pipeline.default_options with algo }
            Core.Toolkit.Yalll Machines.hp3 src
        in
        let sim = Core.Toolkit.run c in
        List.init 5 (fun i ->
            Bitvec.to_int (Sim.get_reg sim (Printf.sprintf "R%d" (i + 1))))
      in
      let seq = final Compaction.Sequential in
      List.for_all
        (fun a -> final a = seq)
        [ Compaction.Fcfs; Compaction.Critical_path ])

(* -- register pressure never changes results --------------------------------- *)

let data_region d sim =
  let base = d.Desc.d_scratch_base - 256 in
  List.init 256 (fun i ->
      Bitvec.to_int (Memory.peek (Sim.memory sim) (base + i)))

let pressure_agreement =
  QCheck.Test.make ~count:25 ~name:"spilling preserves EMPL semantics"
    QCheck.(triple (int_bound 1000) (int_range 4 20) (int_range 4 10))
    (fun (seed, nvars, pool) ->
      let d = Machines.hp3 in
      let src = Core.Workloads.pressure_program ~seed ~nvars ~nops:40 in
      let run pool_limit =
        let c =
          Core.Toolkit.compile
            ~options:{ Pipeline.default_options with pool_limit }
            Core.Toolkit.Empl d src
        in
        let sim = Core.Toolkit.run c in
        data_region d sim
      in
      run (Some pool) = run None)

let allocator_agreement =
  QCheck.Test.make ~count:25 ~name:"allocation strategy preserves semantics"
    QCheck.(pair (int_bound 1000) (int_range 4 16))
    (fun (seed, pool) ->
      let d = Machines.hp3 in
      let src = Core.Workloads.pressure_program ~seed ~nvars:16 ~nops:40 in
      let run strategy =
        let c =
          Core.Toolkit.compile
            ~options:
              { Pipeline.default_options with strategy; pool_limit = Some pool }
            Core.Toolkit.Empl d src
        in
        let sim = Core.Toolkit.run c in
        data_region d sim
      in
      run Regalloc.First_fit = run Regalloc.Priority)

(* -- encoding ------------------------------------------------------------------ *)

(* Every field of a control word as (name, value), through the
   disassembler's field reader. *)
let decode_fields (d : Desc.t) w =
  List.map
    (fun (f : Desc.field) -> (f.f_name, Encode.read_field w f))
    (Array.to_list d.Desc.d_fields)

(* The settings an op's template asks for, read straight off its
   [t_fields]: (field name, value), register operands as their id. *)
let op_field_values (op : Inst.op) =
  List.map
    (fun (fs : Desc.field_setting) ->
      let v =
        match fs.fs_value with
        | Desc.Fv_const c -> c
        | Desc.Fv_opnd i -> (
            match op.Inst.op_args.(i) with
            | Inst.A_reg r -> r
            | Inst.A_imm b -> Int64.to_int (Bitvec.to_int64 b))
      in
      (fs.fs_field, v))
    op.Inst.op_t.Desc.t_fields

let encode_consistent =
  QCheck.Test.make ~count:200 ~name:"encoder agrees with op field values"
    QCheck.(pair (int_bound 2) (int_bound 10_000))
    (fun (mi, seed) ->
      let d = List.nth machines_for_blocks mi in
      let ops = Core.Workloads.compaction_block d ~seed ~n:1 ~p_dep:0 in
      match ops with
      | [ op ] ->
          let w = Encode.encode_inst d { Inst.ops = [ op ]; next = Inst.Halt } in
          let fields = decode_fields d w in
          List.for_all
            (fun (f, v) -> List.assoc f fields = v)
            (op_field_values op)
          && List.assoc "seq" fields = Encode.seq_halt
      | _ -> false)

let encode_deterministic =
  QCheck.Test.make ~count:100 ~name:"encoding is deterministic"
    QCheck.(pair (int_bound 2) (int_bound 10_000))
    (fun (mi, seed) ->
      let d = List.nth machines_for_blocks mi in
      let ops = Core.Workloads.compaction_block d ~seed ~n:4 ~p_dep:20 in
      let r = Compaction.compact ~algo:Compaction.Fcfs d ops in
      let insts =
        List.map (fun g -> { Inst.ops = g; next = Inst.Next }) r.Compaction.groups
      in
      List.map (Encode.encode_inst d) insts
      = List.map (Encode.encode_inst d) insts)

(* encode/decode round trip: the disassembler recovers exactly what the
   encoder wrote *)
let op_key op = (op.Inst.op_t.Msl_machine.Desc.t_name, op_field_values op)

let encode_roundtrip =
  QCheck.Test.make ~count:150 ~name:"control words decode back to their ops"
    QCheck.(triple (int_bound 2) (int_bound 10_000) (int_range 1 10))
    (fun (mi, seed, n) ->
      let d = List.nth machines_for_blocks mi in
      let ops = Core.Workloads.compaction_block d ~seed ~n ~p_dep:30 in
      let r = Compaction.compact ~algo:Compaction.Fcfs d ops in
      List.for_all
        (fun group ->
          let inst = { Inst.ops = group; next = Inst.Jump 7 } in
          let w = Encode.encode_inst d inst in
          let back = Encode.decode_inst d w in
          back.Inst.next = Inst.Jump 7
          && List.sort compare (List.map op_key back.Inst.ops)
             = List.sort compare (List.map op_key group))
        r.Compaction.groups)

let decode_sequencing =
  QCheck.Test.make ~count:100 ~name:"sequencing decodes back"
    QCheck.(pair (int_bound 3) (int_bound 200))
    (fun (kind, a) ->
      let d = Machines.hp3 in
      let next =
        match kind with
        | 0 -> Inst.Halt
        | 1 -> Inst.Jump a
        | 2 -> Inst.Branch (Msl_machine.Desc.C_reg_zero (3, true), a)
        | _ ->
            Inst.Branch
              ( Msl_machine.Desc.C_reg_mask
                  (5, [| Msl_machine.Desc.Mt; Msl_machine.Desc.Mx;
                         Msl_machine.Desc.Mf |]),
                a )
      in
      let w = Encode.encode_inst d { Inst.ops = []; next } in
      let got = (Encode.decode_inst d w).Inst.next in
      match (next, got) with
      | Inst.Branch (Msl_machine.Desc.C_reg_mask (r, m), a1),
        Inst.Branch (Msl_machine.Desc.C_reg_mask (r', m'), a2) ->
          (* the decoded mask is padded with don't-cares to the field width *)
          r = r' && a1 = a2
          && Array.to_list m
             = Array.to_list (Array.sub m' 0 (Array.length m))
          && Array.for_all (fun b -> b = Msl_machine.Desc.Mx)
               (Array.sub m' (Array.length m) (Array.length m' - Array.length m))
      | n1, n2 -> n1 = n2)

(* -- SIMPL/YALLL differential: same algorithm, two languages ------------------- *)

let simpl_yalll_differential =
  QCheck.Test.make ~count:80 ~name:"SIMPL and YALLL gcd agree"
    QCheck.(pair (int_range 1 4000) (int_range 1 4000))
    (fun (a, b) ->
      let d = Machines.hp3 in
      (* subtraction-based gcd in both languages *)
      let simpl_src =
        "begin\n\
         while R1 <> R2 do\n\
         begin\n\
        \  if R1 > R2 then R1 - R2 -> R1 else R2 - R1 -> R2;\n\
         end;\n\
         end"
      in
      let yalll_src =
        "reg a = r1\n\
         reg b = r2\n\
         reg t = r3\n\
         loop:\n\
        \  move t, a\n\
        \  sub t, t, b\n\
        \  jump done if t = 0\n\
        \  jump aleb if t mask 1xxxxxxxxxxxxxxx\n\
        \  move a, t\n\
        \  jump loop\n\
         aleb:\n\
        \  sub t, b, a\n\
        \  move b, t\n\
        \  jump loop\n\
         done: exit a\n"
      in
      let run lang src out =
        let c = Core.Toolkit.compile lang d src in
        let sim =
          Core.Toolkit.run c ~setup:(fun sim ->
              Sim.set_reg_int sim "R1" a;
              Sim.set_reg_int sim "R2" b)
        in
        Bitvec.to_int (Sim.get_reg sim out)
      in
      let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
      let expected = gcd a b in
      run Core.Toolkit.Simpl simpl_src "R1" = expected
      && run Core.Toolkit.Yalll yalll_src "R0" = expected)

(* -- verifier differential ------------------------------------------------------ *)

(* Random straight-line S* programs over two 8-bit variables: the weakest
   precondition machinery must prove the exact postcondition computed by a
   reference interpreter, and must refute a perturbed one. *)
let gen_sstar_line rng =
  let v () = if Random.State.bool rng then "a" else "b" in
  match Random.State.int rng 8 with
  | 0 -> Printf.sprintf "%s := %d" (v ()) (Random.State.int rng 256)
  | 1 -> Printf.sprintf "%s := %s" (v ()) (v ())
  | 2 -> Printf.sprintf "%s := ~%s" (v ()) (v ())
  | 3 -> Printf.sprintf "%s := %s ^ %d" (v ()) (v ()) (1 + Random.State.int rng 3)
  | 4 -> Printf.sprintf "%s := %s ^ -%d" (v ()) (v ()) (1 + Random.State.int rng 3)
  | _ ->
      Printf.sprintf "%s := %s %s %s" (v ()) (v ())
        (List.nth [ "+"; "-"; "&"; "|"; "xor" ] (Random.State.int rng 5))
        (v ())

let interp_sstar_line line (a, b) =
  (* reference semantics at width 8 *)
  let m x = x land 0xFF in
  let value s =
    match s with "a" -> a | "b" -> b | n -> m (int_of_string n)
  in
  match String.split_on_char ' ' line with
  | dst :: ":=" :: rest ->
      let v =
        match rest with
        | [ x ] when String.length x > 0 && x.[0] = '~' ->
            m (lnot (value (String.sub x 1 (String.length x - 1))))
        | [ x ] -> value x
        | [ x; "^"; n ] ->
            let n = int_of_string n in
            if n >= 0 then m (value x lsl n) else m (value x lsr -n)
        | [ x; "+"; y ] -> m (value x + value y)
        | [ x; "-"; y ] -> m (value x - value y)
        | [ x; "&"; y ] -> value x land value y
        | [ x; "|"; y ] -> value x lor value y
        | [ x; "xor"; y ] -> value x lxor value y
        | _ -> failwith ("bad line " ^ line)
      in
      if dst = "a" then (v, b) else (a, v)
  | _ -> failwith ("bad line " ^ line)

let verifier_differential =
  QCheck.Test.make ~count:40 ~name:"wp agrees with reference interpreter"
    QCheck.(pair (int_bound 100_000) (int_range 1 8))
    (fun (seed, len) ->
      let rng = Random.State.make [| seed |] in
      let lines = List.init len (fun _ -> gen_sstar_line rng) in
      let a0 = Random.State.int rng 256 and b0 = Random.State.int rng 256 in
      let af, bf =
        List.fold_left (fun st l -> interp_sstar_line l st) (a0, b0) lines
      in
      let src post_a =
        Printf.sprintf
          "program P;\nvar a : seq [7..0] bit at R1;\nvar b : seq [7..0] bit \
           at R2;\npre { a = %d and b = %d };\npost { a = %d and b = %d };\n\
           begin\n%s\nend\n"
          a0 b0 post_a bf
          (String.concat ";\n" lines)
      in
      let verify post_a =
        Msl_sstar.Verify.verify Machines.hp3 (Msl_sstar.Parser.parse (src post_a))
      in
      Msl_sstar.Verify.ok (verify af)
      && not (Msl_sstar.Verify.ok (verify ((af + 1) land 0xFF))))

let () =
  Alcotest.run "properties"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            compaction_equivalence;
            compaction_chain_equivalence;
            yalll_retarget_agreement;
            yalll_algo_agreement;
            pressure_agreement;
            allocator_agreement;
            encode_consistent;
            encode_deterministic;
            simpl_yalll_differential;
            verifier_differential;
            encode_roundtrip;
            decode_sequencing;
          ] );
    ]
