(* Deterministic workload generators for the experiments.

   All generators are seeded so that every run of the benchmark harness
   regenerates identical workloads. *)

open Msl_machine
module Mir = Msl_mir.Mir
module Rtl = Msl_machine.Rtl

(* A tiny deterministic PRNG (xorshift), independent of Stdlib.Random
   state. *)
type rng = { mutable s : int64 }

let rng seed = { s = Int64.of_int (0x9E3779B9 lxor seed) }

let next r =
  let x = r.s in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  r.s <- x;
  Int64.to_int (Int64.logand x 0x3FFFFFFFL)

let pick r n = next r mod n

(* -- source mutators (robustness fuzzing, engine oracle) ----------------------- *)

(* Shared by test_fuzz (crash-freedom) and test_engine_diff (the
   compiled-vs-interpreted oracle): the same mutation corpus should
   exercise both properties.  These take a [Random.State.t] rather than
   the xorshift above so QCheck-driven tests can feed their own seeds. *)

let printable rng =
  let chars =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 \n\t\
     ()[]{};:,.#&|^~<>=+-*/!@'\"\\_"
  in
  chars.[Random.State.int rng (String.length chars)]

let noise rng n = String.init n (fun _ -> printable rng)

let mutate rng src =
  let b = Bytes.of_string src in
  let n = Bytes.length b in
  if n = 0 then src
  else begin
    for _ = 0 to Random.State.int rng 6 do
      let i = Random.State.int rng n in
      match Random.State.int rng 3 with
      | 0 -> Bytes.set b i (printable rng)
      | 1 -> Bytes.set b i ' '
      | _ -> Bytes.set b i (Bytes.get b (Random.State.int rng n))
    done;
    Bytes.to_string b
  end

(* -- interrupt schedules (engine oracle, F2) ------------------------------------ *)

(* [n] strictly increasing arrival cycles in [0, max_cycle], clustered
   enough that some arrive while one is already pending (the
   one-pending-at-a-time queueing path). *)
let interrupt_schedule ~seed ~n ~max_cycle =
  let r = rng seed in
  let step = max 1 (max_cycle / max 1 n) in
  let rec go cycle acc k =
    if k = 0 || cycle > max_cycle then List.rev acc
    else
      let cycle = cycle + 1 + pick r step in
      go cycle (cycle :: acc) (k - 1)
  in
  go 0 [] n

(* -- straight-line microoperation blocks (T4 compaction) ---------------------- *)

(* Generate a block of [n] microoperations for machine [d] with a
   controllable dependence density: with probability [p_dep]/100 an
   operand is the destination of an earlier op (creating RAW chains),
   otherwise a fresh register.  A machine without [shl] (V11's
   accumulator datapath) gets its own forms: moves, and two-operand ALU
   ops into ACC, whose result later operands may read. *)
let compaction_block d ~seed ~n ~p_dep =
  let r = rng seed in
  let gprs =
    Desc.regs_of_class d "alloc" |> List.map (fun rg -> rg.Desc.r_id)
  in
  let gprs = Array.of_list gprs in
  let written = ref [] in
  let src () =
    if !written <> [] && pick r 100 < p_dep then
      List.nth !written (pick r (List.length !written))
    else gprs.(pick r (Array.length gprs))
  in
  let dst () = gprs.(pick r (Array.length gprs)) in
  let alu_ops = [| "add"; "sub"; "and"; "or"; "xor" |] in
  let mov () =
    let dreg = dst () in
    written := dreg :: !written;
    Inst.make d "mov" [ Inst.A_reg dreg; Inst.A_reg (src ()) ]
  in
  if Desc.find_template d "shl" = None then
    let acc = (Desc.get_reg d "ACC").Desc.r_id in
    List.init n (fun _ ->
        if pick r 2 = 0 then mov ()
        else
          let a = src () and b = src () in
          written := acc :: !written;
          Inst.make d alu_ops.(pick r (Array.length alu_ops))
            [ Inst.A_reg a; Inst.A_reg b ])
  else
  (* the shift-amount immediate width differs per machine *)
  let shl_amt_width =
    match (Desc.get_template d "shl").Desc.t_operands.(2).Desc.o_kind with
    | Desc.O_imm w -> w
    | Desc.O_reg _ -> 4
  in
  List.init n (fun _ ->
      let op =
        match pick r 10 with
        | 0 | 1 -> mov ()
        | 2 ->
            let dreg = dst () in
            written := dreg :: !written;
            Inst.make d "inc" [ Inst.A_reg dreg; Inst.A_reg (src ()) ]
        | 3 ->
            let dreg = dst () in
            written := dreg :: !written;
            Inst.make d "shl"
              [ Inst.A_reg dreg; Inst.A_reg (src ());
                Inst.A_imm (Msl_bitvec.Bitvec.of_int ~width:shl_amt_width (1 + pick r 3)) ]
        | _ ->
            let dreg = dst () in
            let a = src () and b = src () in
            written := dreg :: !written;
            Inst.make d alu_ops.(pick r (Array.length alu_ops))
              [ Inst.A_reg dreg; Inst.A_reg a; Inst.A_reg b ]
      in
      op)

(* -- EMPL-style register-pressure programs (T5) --------------------------------- *)

(* A program over [nvars] symbolic variables with [nops] operations whose
   operands favour recently-defined variables (a working set), summing
   everything into variable 0 at the end.  Returns EMPL source text. *)
let pressure_program ~seed ~nvars ~nops =
  let r = rng seed in
  let buf = Buffer.create 1024 in
  for i = 0 to nvars - 1 do
    Buffer.add_string buf (Printf.sprintf "DECLARE V%d FIXED;\n" i)
  done;
  Buffer.add_string buf "DECLARE OUT(1) FIXED;\n";
  for i = 0 to nvars - 1 do
    Buffer.add_string buf (Printf.sprintf "V%d = %d;\n" i (i + 1))
  done;
  for _ = 1 to nops do
    let d = pick r nvars in
    let a = pick r nvars and b = pick r nvars in
    match pick r 4 with
    | 0 -> Buffer.add_string buf (Printf.sprintf "V%d = V%d + V%d;\n" d a b)
    | 1 -> Buffer.add_string buf (Printf.sprintf "V%d = V%d XOR V%d;\n" d a b)
    | 2 -> Buffer.add_string buf (Printf.sprintf "V%d = V%d & V%d;\n" d a b)
    | _ -> Buffer.add_string buf (Printf.sprintf "V%d = V%d | V%d;\n" d a b)
  done;
  (* fold everything into V0 so no assignment is dead *)
  for i = 1 to nvars - 1 do
    Buffer.add_string buf (Printf.sprintf "V0 = V0 XOR V%d;\n" i)
  done;
  Buffer.add_string buf "OUT(0) = V0;\n";
  Buffer.contents buf

(* -- YALLL corpus programs (batch service) ------------------------------------------ *)

(* Straight-line YALLL over five bound registers, compilable on every
   16-bit machine: the batch-compilation corpus.  Distinct seeds give
   distinct sources, so a corpus of N programs exercises N cache keys. *)
let yalll_program ~seed ~len =
  let r = rng seed in
  let reg () = Printf.sprintf "r%d" (1 + pick r 5) in
  let line () =
    match pick r 10 with
    | 0 -> Printf.sprintf "set %s, %d" (reg ()) (pick r 1000)
    | 1 -> Printf.sprintf "move %s, %s" (reg ()) (reg ())
    | 2 -> Printf.sprintf "inc %s, %s" (reg ()) (reg ())
    | 3 -> Printf.sprintf "dec %s, %s" (reg ()) (reg ())
    | 4 -> Printf.sprintf "not %s, %s" (reg ()) (reg ())
    | 5 -> Printf.sprintf "neg %s, %s" (reg ()) (reg ())
    | 6 ->
        Printf.sprintf "%s %s, %s, %d"
          (List.nth [ "lsl"; "lsr"; "asr"; "rol"; "ror" ] (pick r 5))
          (reg ()) (reg ())
          (1 + pick r 7)
    | _ ->
        Printf.sprintf "%s %s, %s, %s"
          (List.nth [ "add"; "sub"; "and"; "or"; "xor" ] (pick r 5))
          (reg ()) (reg ()) (reg ())
  in
  let decls = List.init 5 (fun i -> Printf.sprintf "reg r%d = r%d" (i + 1) (i + 1)) in
  let setup = List.init 5 (fun i -> Printf.sprintf "set r%d, %d" (i + 1) ((i * 37) + 5)) in
  let body = List.init len (fun _ -> line ()) in
  String.concat "\n" (decls @ setup @ body @ [ "exit" ]) ^ "\n"

(* -- machine-space generator (M1) ---------------------------------------------- *)

(* A random-but-valid 16-bit machine as .mdesc source text.  The
   inventory is the fixed contract instruction selection needs to
   compile the YALLL corpus (R1..R5 plus scratch, a constant load whose
   immediate holds the corpus constants, moves, ALU, shifts, test, nop,
   intack, memory); everything around that contract is sampled — the
   datapath style (three-operand vs V11-like fixed-ACC with a
   single-bit shifter), vertical vs horizontal, phase and unit
   assignments, register-file size, control-word field order and
   padding gaps, opcode values, immediate width, control-store size and
   memory timing.  The same seed always regenerates the same text. *)
let gen_machine ~seed =
  let r = rng seed in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let bits n =
    let rec go b = if 1 lsl b > n then b else go (b + 1) in
    go 1
  in
  let shuffle l =
    let a = Array.of_list l in
    for i = Array.length a - 1 downto 1 do
      let j = pick r (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  let acc_style = pick r 3 = 0 in
  let vertical = (not acc_style) && pick r 3 = 0 in
  let phases = if vertical then 1 else 1 + pick r 2 in
  let ngpr = 6 + pick r 11 in
  let nmacro = min ngpr (4 + pick r 5) in
  (* R0..R(ngpr-1), AT, [AT2], ACC, MAR, MBR in a sampled order below *)
  let has_at2 = (not acc_style) && pick r 2 = 0 in
  let nregs = ngpr + (if has_at2 then 1 else 0) + 4 in
  let rw = bits (nregs - 1) in
  (* full word width: the optimizer folds constants (e.g. a negated
     register value) into arbitrary 16-bit immediates *)
  let iw = 16 in
  let amtw = 3 + pick r 2 in
  let aw = 8 + pick r 4 in
  let store = 1 lsl aw in
  let mem_extra = pick r 5 in
  let flag_variants = pick r 2 = 0 in
  let alu_phase = if phases > 1 then 1 else 0 in
  let bus_unit = if vertical then "exec" else "bus" in
  let alu_unit = if vertical then "exec" else "alu" in
  add "# Generated machine (seed %d): one point of the M1 machine space.\n"
    seed;
  add "machine GEN%d {\n" seed;
  add "  note \"Seeded machine-space sample for the M1 sweep.\"\n";
  add "  word 16\n  addr %d\n  phases %d\n  mem_extra %d\n" aw phases mem_extra;
  add "  store %d\n  scratch %d\n" store (store * 7 / 8);
  add "  %s\n" (if vertical then "vertical" else "horizontal");
  add "  caps [flag%s int]\n" (if pick r 2 = 0 then " reg_zero" else "");
  add "  units [%s]\n"
    (if vertical then "exec" else "bus alu");
  (* control-word fields, in a sampled order with sampled padding gaps *)
  let op_fields =
    if acc_style then
      [ ("port", 3); ("port_d", rw); ("port_s", rw); ("alu_op", 4);
        ("alu_a", rw); ("alu_b", rw); ("imm", iw); ("misc", 2) ]
    else [ ("op", 6); ("d", rw); ("a", rw); ("b", rw); ("imm", iw) ]
  in
  let fields =
    shuffle ([ ("seq", 3); ("cond", 4); ("addr", aw); ("breg", rw) ] @ op_fields)
  in
  let lo = ref 0 in
  List.iter
    (fun (name, width) ->
      add "  field %-8s %2d %3d\n" name width !lo;
      lo := !lo + width + pick r 3)
    fields;
  (* registers; declaration order fixes ids, so sample where the
     special registers sit relative to the file *)
  let specials_first = pick r 2 = 0 in
  let specials () =
    add "  reg AT   16 [gpr at]\n";
    if has_at2 then add "  reg AT2  16 [gpr at2]\n";
    add "  reg ACC  16 [gpr acc%s]\n" (if acc_style then "" else " alloc");
    add "  reg MAR  16 [gpr addr]\n";
    add "  reg MBR  16 [gpr mbr]\n"
  in
  if specials_first then specials ();
  for i = 0 to ngpr - 1 do
    add "  reg R%-3d 16 [gpr alloc]%s\n" i (if i < nmacro then " macro" else "")
  done;
  if not specials_first then specials ();
  (* opcode values, sampled without repetition *)
  let opcodes = ref (shuffle (List.init 62 (fun i -> i + 1))) in
  let opcode () =
    match !opcodes with
    | [] -> invalid_arg "gen_machine: opcode space exhausted"
    | v :: rest ->
        opcodes := rest;
        v
  in
  let ports = ref (shuffle (List.init 7 (fun i -> i + 1))) in
  let port () =
    match !ports with
    | [] -> invalid_arg "gen_machine: port space exhausted"
    | v :: rest ->
        ports := rest;
        v
  in
  let alu_codes = ref (shuffle (List.init 15 (fun i -> i + 1))) in
  let alu_code () =
    match !alu_codes with
    | [] -> invalid_arg "gen_machine: ALU code space exhausted"
    | v :: rest ->
        alu_codes := rest;
        v
  in
  if acc_style then begin
    (* V11-like: bus transfers, a fixed-ACC two-operand ALU, single-bit
       shifters, MAR/MBR memory *)
    add "  tmpl mov { sem move phase 0 units [%s]\n" bus_unit;
    add "    op dst reg gpr write op src reg gpr read result operands\n";
    add "    enc port %d enc port_d @dst enc port_s @src\n" (port ());
    add "    act assign @dst, @src }\n";
    add "  tmpl ldc { sem const phase 0 units [%s]\n" bus_unit;
    add "    op dst reg gpr write op imm lit %d read result operands\n" iw;
    add "    enc port %d enc port_d @dst enc imm @imm\n" (port ());
    add "    act assign @dst, zext(64, @imm) }\n";
    List.iter
      (fun name ->
        add "  tmpl %s { sem binop %s phase %d units [%s]\n" name name
          alu_phase alu_unit;
        add "    op a reg gpr read op b reg gpr read result $ACC\n";
        add "    enc alu_op %d enc alu_a @a enc alu_b @b\n" (alu_code ());
        add "    act arith %s $ACC, @a, @b }\n" name)
      [ "add"; "adc"; "sub"; "and"; "or"; "xor" ];
    add "  tmpl not { sem not phase %d units [%s]\n" alu_phase alu_unit;
    add "    op a reg gpr read result $ACC\n";
    add "    enc alu_op %d enc alu_a @a\n" (alu_code ());
    add "    act assign $ACC, ~@a }\n";
    List.iter
      (fun name ->
        add "  tmpl %s1 { sem special %s1 phase %d units [%s] result $ACC\n"
          name name alu_phase alu_unit;
        add "    enc alu_op %d\n" (alu_code ());
        add "    act arith %s $ACC, $ACC, 0x1:16 }\n" name)
      [ "shl"; "shr"; "sra"; "rol"; "ror" ];
    add "  tmpl tst { sem test phase %d units [%s]\n" alu_phase alu_unit;
    add "    op a reg gpr read result none\n";
    add "    enc alu_op %d enc alu_a @a\n" (alu_code ());
    add "    act flags or @a, 0x0:16 }\n";
    add "  tmpl rd { sem mem_read phase 0 extra %d units [%s] result $MBR\n"
      mem_extra bus_unit;
    add "    enc port %d act read $MBR, $MAR }\n" (port ());
    add "  tmpl wr { sem mem_write phase 0 extra %d units [%s] result none\n"
      mem_extra bus_unit;
    add "    enc port %d act write $MAR, $MBR }\n" (port ())
  end
  else begin
    (* B17/HP3-like: three-operand ALU over a general register file *)
    let three name sem act_kind act_op code =
      add "  tmpl %s { sem %s phase %d units [%s]\n" name sem alu_phase
        alu_unit;
      add "    op dst reg gpr write op a reg gpr read op b reg gpr read \
           result operands\n";
      add "    enc op %d enc d @dst enc a @a enc b @b\n" code;
      add "    act %s %s @dst, @a, @b }\n" act_kind act_op
    in
    add "  tmpl mov { sem move phase 0 units [%s]\n" bus_unit;
    add "    op dst reg gpr write op src reg gpr read result operands\n";
    add "    enc op %d enc d @dst enc a @src\n" (opcode ());
    add "    act assign @dst, @src }\n";
    add "  tmpl ldc { sem const phase 0 units [%s]\n" bus_unit;
    add "    op dst reg gpr write op imm lit %d read result operands\n" iw;
    add "    enc op %d enc d @dst enc imm @imm\n" (opcode ());
    add "    act assign @dst, zext(64, @imm) }\n";
    List.iter
      (fun name -> three name ("binop " ^ name) "arithq" name (opcode ()))
      [ "add"; "sub"; "and"; "or"; "xor" ];
    three "adc" "binop adc" "arith" "adc" (opcode ());
    if flag_variants then
      List.iter
        (fun name ->
          three (name ^ "f") ("special " ^ name ^ "f") "arith" name
            (opcode ()))
        [ "add"; "sub" ];
    let two name sem act code =
      add "  tmpl %s { sem %s phase %d units [%s]\n" name sem alu_phase
        alu_unit;
      add "    op dst reg gpr write op src reg gpr read result operands\n";
      add "    enc op %d enc d @dst enc a @src\n" code;
      add "    act %s }\n" act
    in
    two "not" "not" "arithq xor @dst, ~@src, 0x0:64" (opcode ());
    two "neg" "neg" "arithq sub @dst, 0x0:64, @src" (opcode ());
    two "inc" "inc" "arithq add @dst, @src, 0x1:64" (opcode ());
    two "dec" "dec" "arithq sub @dst, @src, 0x1:64" (opcode ());
    let shift name set_flags code =
      let tname = if set_flags then name ^ "f" else name in
      let sem =
        if set_flags then "special f" ^ name ^ "f" else "binop " ^ name
      in
      add "  tmpl %s { sem %s phase %d units [%s]\n" tname sem alu_phase
        alu_unit;
      add "    op dst reg gpr write op src reg gpr read op amount lit %d \
           read result operands\n"
        amtw;
      add "    enc op %d enc d @dst enc a @src enc imm @amount\n" code;
      add "    act %s %s @dst, @src, @amount }\n"
        (if set_flags then "arith" else "arithq")
        name
    in
    List.iter
      (fun name -> shift name false (opcode ()))
      [ "shl"; "shr"; "sra"; "rol"; "ror" ];
    if flag_variants then begin
      shift "shl" true (opcode ());
      shift "shr" true (opcode ())
    end;
    add "  tmpl test { sem test phase %d units [%s]\n" alu_phase alu_unit;
    add "    op src reg gpr read result none\n";
    add "    enc op %d enc a @src\n" (opcode ());
    add "    act flags or @src, 0x0:64 }\n";
    add "  tmpl rdr { sem mem_read phase 0 extra %d units [%s]\n" mem_extra
      bus_unit;
    add "    op dst reg gpr write op addr reg gpr read result operands\n";
    add "    enc op %d enc d @dst enc a @addr\n" (opcode ());
    add "    act read @dst, @addr }\n";
    add "  tmpl wrr { sem mem_write phase 0 extra %d units [%s]\n" mem_extra
      bus_unit;
    add "    op addr reg gpr read op src reg gpr read result none\n";
    add "    enc op %d enc a @addr enc b @src\n" (opcode ());
    add "    act write @addr, @src }\n"
  end;
  add "  tmpl nop { sem nop phase 0 units [] result none }\n";
  add "  tmpl intack { sem special intack phase 0 units [] result none\n";
  add "    enc %s %d act intack }\n"
    (if acc_style then "misc" else "op")
    (if acc_style then 1 else opcode ());
  add "}\n";
  Buffer.contents buf

(* -- SIMPL-style straight-line blocks (F1) ---------------------------------------- *)

(* MIR statement blocks with tunable independence, for the single-identity
   parallelism profile. *)
let simpl_block d ~seed ~n ~p_dep =
  let r = rng seed in
  let gprs =
    Desc.regs_of_class d "alloc" |> List.map (fun rg -> Mir.Phys rg.Desc.r_id)
  in
  let gprs = Array.of_list gprs in
  let written = ref [] in
  let src () =
    if !written <> [] && pick r 100 < p_dep then
      List.nth !written (pick r (List.length !written))
    else gprs.(pick r (Array.length gprs))
  in
  let ops = [| Rtl.A_add; Rtl.A_sub; Rtl.A_and; Rtl.A_or; Rtl.A_xor |] in
  List.init n (fun _ ->
      let d0 = gprs.(pick r (Array.length gprs)) in
      written := d0 :: !written;
      (* mixed statement kinds, like a real SIMPL block: transfers and
         shifts spread across the machine's buses and units *)
      match pick r 8 with
      | 0 | 1 -> Mir.assign d0 (Mir.R_copy (src ()))
      | 2 -> Mir.assign d0 (Mir.R_shift_imm (Rtl.A_shl, src (), 1 + pick r 3))
      | 3 -> Mir.assign d0 (Mir.R_inc (src ()))
      | _ ->
          Mir.assign d0
            (Mir.R_binop (ops.(pick r (Array.length ops)), src (), src ())))

(* -- defect injection (L1) ------------------------------------------------------ *)

type defect = D_race_ww | D_field_overflow | D_swap_fields | D_drop_dep

let all_defects = [ D_race_ww; D_field_overflow; D_swap_fields; D_drop_dep ]

let defect_name = function
  | D_race_ww -> "race-ww"
  | D_field_overflow -> "field-overflow"
  | D_swap_fields -> "swap-fields"
  | D_drop_dep -> "drop-dep"

(* Replace the ops of word [i]. *)
let with_ops insts i ops =
  List.mapi
    (fun j (inst : Inst.t) -> if j = i then { inst with Inst.ops } else inst)
    insts

(* Every (word, op) pair of the program, with word indices. *)
let indexed_ops insts =
  List.concat
    (List.mapi
       (fun i (inst : Inst.t) ->
         List.map (fun op -> (i, op)) inst.Inst.ops)
       insts)

(* A compacted program never holds a same-phase double write inside one
   word, but plenty exist *across* words; merging such a pair recreates
   exactly the defect the conflict model exists to prevent. *)
let race_ww_sites d insts =
  let ops = indexed_ops insts in
  List.concat_map
    (fun (i, o1) ->
      List.filter_map
        (fun (j, o2) ->
          if i < j && not (Inst.identical o1 o2)
             && Inst.op_phase o1 = Inst.op_phase o2
             && Inst.first_common (Inst.op_writes d o1) (Inst.op_writes d o2) >= 0
          then Some (i, o2)
          else None)
        ops)
    ops

(* Register-operand field settings whose width a too-large value can
   overflow: (word, op, operand index, field width). *)
let overflow_sites insts =
  indexed_ops insts
  |> List.concat_map (fun (i, (op : Inst.op)) ->
         List.filter_map
           (fun (fs : Desc.field_setting) ->
             match fs.fs_value with
             | Desc.Fv_opnd k -> (
                 match op.Inst.op_args.(k) with
                 | Inst.A_reg _ -> Some (i, op, k)
                 | Inst.A_imm _ -> None)
             | Desc.Fv_const _ -> None)
           op.Inst.op_t.Desc.t_fields)

let swap_sites insts =
  indexed_ops insts
  |> List.filter_map (fun (i, (op : Inst.op)) ->
         if
           Array.length op.Inst.op_args >= 2
           && op.Inst.op_args.(0) <> op.Inst.op_args.(1)
         then Some (i, op)
         else None)

(* RAW pairs in adjacent fallthrough words: (producer word, consumer op). *)
let drop_dep_sites d insts =
  let arr = Array.of_list insts in
  List.concat
    (List.init
       (max 0 (Array.length arr - 1))
       (fun i ->
         if arr.(i).Inst.next <> Inst.Next then []
         else
           List.concat_map
             (fun o1 ->
               List.filter_map
                 (fun o2 ->
                   if
                     List.exists
                       (fun w -> List.mem w (Inst.op_reads d o2))
                       (Inst.op_writes d o1)
                   then Some (i, o2)
                   else None)
                 arr.(i + 1).Inst.ops)
             arr.(i).Inst.ops))

let nth_site sites seed =
  match sites with
  | [] -> None
  | _ -> Some (List.nth sites (seed mod List.length sites))

let inject_defect d ~seed defect insts =
  match defect with
  | D_race_ww ->
      nth_site (race_ww_sites d insts) seed
      |> Option.map (fun (i, o2) ->
             let w = List.nth insts i in
             with_ops insts i (w.Inst.ops @ [ o2 ]))
  | D_field_overflow ->
      nth_site (overflow_sites insts) seed
      |> Option.map (fun (i, (op : Inst.op), k) ->
             (* an id with a bit beyond every field the operand feeds *)
             let x = Desc.facts d op.Inst.op_t in
             let w = ref 1 in
             Array.iteri
               (fun j v ->
                 if v = -1 - k then
                   w := max !w d.Desc.d_fields.(x.Desc.x_slots.(j)).Desc.f_width)
               x.Desc.x_values;
             let w = !w in
             let args = Array.copy op.Inst.op_args in
             args.(k) <- Inst.A_reg (1 lsl w);
             let mutant = { op with Inst.op_args = args } in
             let word = List.nth insts i in
             with_ops insts i
               (List.map
                  (fun o -> if o == op then mutant else o)
                  word.Inst.ops))
  | D_swap_fields ->
      nth_site (swap_sites insts) seed
      |> Option.map (fun (i, (op : Inst.op)) ->
             let args = Array.copy op.Inst.op_args in
             let t = args.(0) in
             args.(0) <- args.(1);
             args.(1) <- t;
             let mutant = { op with Inst.op_args = args } in
             let word = List.nth insts i in
             with_ops insts i
               (List.map
                  (fun o -> if o == op then mutant else o)
                  word.Inst.ops))
  | D_drop_dep ->
      nth_site (drop_dep_sites d insts) seed
      |> Option.map (fun (i, o2) ->
             let wi = List.nth insts i and wj = List.nth insts (i + 1) in
             let insts = with_ops insts i (wi.Inst.ops @ [ o2 ]) in
             with_ops insts (i + 1)
               (List.filter (fun o -> not (o == o2)) wj.Inst.ops))

(* -- miscompile injection (V1) ------------------------------------------------- *)

(* Where defect injection above models scheduler bugs the *resource*
   checker (Microlint) catches, miscompile injection models the ones only
   a *semantic* checker can: the word stream stays resource-clean and
   encodable, but computes something else.  Every returned mutant is
   probe-confirmed — a seeded differential run against the original
   diverges in architectural state — so V1 can assert that its witness
   store replays to divergent digests, and that a refutation is never
   asked for where none exists (a swapped pair may commute; a dropped
   word may be dead). *)

module Tv = Msl_mir.Tv

type miscompile = M_swap_dep | M_drop_word | M_retarget | M_perturb_operand

let all_miscompiles = [ M_swap_dep; M_drop_word; M_retarget; M_perturb_operand ]

let miscompile_name = function
  | M_swap_dep -> "swap-dep"
  | M_drop_word -> "drop-word"
  | M_retarget -> "retarget"
  | M_perturb_operand -> "perturb-operand"

let with_next insts i next =
  List.mapi
    (fun j (inst : Inst.t) -> if j = i then { inst with Inst.next } else inst)
    insts

(* Swap the op payloads of adjacent fallthrough words joined by a RAW
   dependence — the order violation a compactor that lost the edge could
   commit (sequencing stays put). *)
let swap_dep_mutants d insts =
  let arr = Array.of_list insts in
  List.filter_map
    (fun i ->
      if
        arr.(i).Inst.next = Inst.Next
        && arr.(i).Inst.ops <> []
        && arr.(i + 1).Inst.ops <> []
        && arr.(i).Inst.ops <> arr.(i + 1).Inst.ops
        && List.exists
             (fun o1 ->
               List.exists
                 (fun o2 ->
                   List.exists
                     (fun w -> List.mem w (Inst.op_reads d o2))
                     (Inst.op_writes d o1))
                 arr.(i + 1).Inst.ops)
             arr.(i).Inst.ops
      then
        Some
          (with_ops (with_ops insts i arr.(i + 1).Inst.ops) (i + 1)
             arr.(i).Inst.ops)
      else None)
    (List.init (max 0 (Array.length arr - 1)) Fun.id)

(* Empty one word's op list, keeping its sequencing — a lost word. *)
let drop_word_mutants insts =
  List.concat
    (List.mapi
       (fun i (inst : Inst.t) ->
         if inst.Inst.ops <> [] then [ with_ops insts i [] ] else [])
       insts)

(* Redirect one control transfer, or turn a fallthrough into a jump. *)
let retarget_mutants ~seed insts =
  let n = List.length insts in
  if n < 2 then []
  else
    let other a = (a + 1 + (seed mod (n - 1))) mod n in
    List.concat
      (List.mapi
         (fun i (inst : Inst.t) ->
           match inst.Inst.next with
           | Inst.Jump a -> [ with_next insts i (Inst.Jump (other a)) ]
           | Inst.Branch (c, a) ->
               [ with_next insts i (Inst.Branch (c, other a)) ]
           | Inst.Next when i < n - 1 ->
               let t = other (i + 1) in
               if t <> i + 1 then [ with_next insts i (Inst.Jump t) ] else []
           | _ -> [])
         insts)

(* Replace one operand field: another same-width register of a shared
   class, or a flipped immediate bit. *)
let perturb_mutants (d : Desc.t) insts =
  let alt_reg r =
    match
      if r < 0 || r >= Array.length d.Desc.d_regs then None
      else Some (Desc.reg d r)
    with
    | None -> None
    | Some reg ->
        List.concat_map (fun c -> Desc.regs_of_class d c) reg.Desc.r_classes
        |> List.find_opt (fun (r2 : Desc.reg) ->
               r2.Desc.r_id <> r && r2.Desc.r_width = reg.Desc.r_width)
        |> Option.map (fun (r2 : Desc.reg) -> r2.Desc.r_id)
  in
  indexed_ops insts
  |> List.concat_map (fun (i, (op : Inst.op)) ->
         List.concat
           (List.init (Array.length op.Inst.op_args) (fun k ->
                let arg' =
                  match op.Inst.op_args.(k) with
                  | Inst.A_reg r ->
                      Option.map (fun r2 -> Inst.A_reg r2) (alt_reg r)
                  | Inst.A_imm v ->
                      Some
                        (Inst.A_imm
                           (Msl_bitvec.Bitvec.logxor v
                              (Msl_bitvec.Bitvec.of_int
                                 ~width:(Msl_bitvec.Bitvec.width v) 1)))
                in
                match arg' with
                | None -> []
                | Some a ->
                    let args = Array.copy op.Inst.op_args in
                    args.(k) <- a;
                    let mutant = { op with Inst.op_args = args } in
                    let word = List.nth insts i in
                    [
                      with_ops insts i
                        (List.map
                           (fun o -> if o == op then mutant else o)
                           word.Inst.ops);
                    ])))

(* Differential probe: does the mutant observably diverge from the
   original on some seeded input store?  Returns that store. *)
let miscompile_probe (d : Desc.t) ~seed original mutant =
  Tv.seeded_assignments d ~seed ~n:4
  |> List.find_opt (fun a -> Tv.replay d original a <> Tv.replay d mutant a)

let inject_miscompile (d : Desc.t) ~seed kind insts =
  let mutants =
    match kind with
    | M_swap_dep -> swap_dep_mutants d insts
    | M_drop_word -> drop_word_mutants insts
    | M_retarget -> retarget_mutants ~seed insts
    | M_perturb_operand -> perturb_mutants d insts
  in
  match mutants with
  | [] -> None
  | _ ->
      let n = List.length mutants in
      let arr = Array.of_list mutants in
      List.init n (fun k -> arr.((seed + k) mod n))
      |> List.find_map (fun mutant ->
             Option.map
               (fun witness -> (mutant, witness))
               (miscompile_probe d ~seed insts mutant))
