(* Parametric machine descriptions for the register-pressure sweep (T5).

   The survey (§2.1.3): "The number of registers exclusively accessible
   to the microprogram is limited.  It may vary from 16 (e.g. on the DEC
   VAX-11) to 256 (e.g on the Control Data 480)."  [machine ~nregs]
   builds an HP3-like horizontal machine with [nregs] allocatable
   registers, so the allocators can be swept across exactly that range. *)

open Msl_machine
open Desc

let bits_for n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  max 1 (go 1)

let machine ~nregs =
  if nregs < 2 then invalid_arg "Sweeper.machine: need at least 2 registers";
  let total = nregs + 4 in
  (* AT, SP-less: AT, MAR, MBR + one spare id *)
  let rb = bits_for total in
  (* control-word fields sized to the register count *)
  let fields =
    let pos = ref 0 in
    let f name width =
      let lo = !pos in
      pos := !pos + width;
      { f_name = name; f_lo = lo; f_width = width }
    in
    [
      f "seq" 3; f "cond" 4; f "addr" 12; f "breg" rb; f "dspec" 12;
      f "ab_d" rb; f "ab_s" rb; f "ab_en" 2;
      f "alu_op" 4; f "alu_a" rb; f "alu_b" rb; f "alu_d" rb;
      f "sh_op" 3; f "sh_s" rb; f "sh_amt" 4; f "sh_d" rb;
      f "ctr_op" 2; f "ctr_s" rb; f "ctr_d" rb;
      f "mem" 3; f "mem_a" rb; f "mem_d" rb;
      f "imm" 16; f "misc" 2;
    ]
  in
  let regs =
    List.init nregs (fun i ->
        mkreg ~classes:[ "gpr"; "alloc" ] i (Printf.sprintf "R%d" i) 16)
    @ [
        mkreg ~classes:[ "gpr"; "at" ] nregs "AT" 16;
        mkreg ~classes:[ "gpr"; "at2" ] (nregs + 1) "AT2" 16;
        mkreg ~classes:[ "gpr"; "addr" ] (nregs + 2) "MAR" 16;
        mkreg ~classes:[ "gpr"; "mbr" ] (nregs + 3) "MBR" 16;
      ]
  in
  (* HP3's own templates, a subset of them and in this order: [rd]/[rdr]
     and [wr]/[wrr] share a sem, so the order decides which one
     instruction selection finds first *)
  let templates =
    List.map
      (get_template Machines.hp3)
      [
        "mov"; "ldc"; "add"; "adc"; "addf"; "subf"; "sub"; "and"; "or"; "xor";
        "not"; "neg"; "shl"; "shr"; "shrf"; "inc"; "dec"; "test"; "rd"; "wr";
        "rdr"; "wrr"; "nop"; "intack";
      ]
  in
  make
    ~name:(Printf.sprintf "SWP%d" nregs)
    ~word:16 ~addr:12 ~phases:2 ~regs
    ~units:[ "abus"; "alu"; "sh"; "ctr"; "mem" ]
    ~fields ~templates
    ~cond_caps:[ Cap_flag; Cap_reg_zero; Cap_dispatch; Cap_int ]
    ~mem_extra_cycles:1 ~store_words:4096 ~vertical:false ~scratch_base:3072
    ~note:
      (Printf.sprintf
         "Parametric horizontal machine with %d allocatable registers (T5 \
          register-pressure sweep)" nregs)
    ()
