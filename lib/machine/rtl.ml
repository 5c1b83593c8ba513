(* Register-transfer semantics for microoperation templates.

   A machine description (Desc) gives every microoperation template a list
   of RTL [action]s instead of an opaque OCaml function.  This follows the
   MPGL idea from the survey (§2.2.5): "A complete machine specification is
   part of the program and the compiler uses this specification to generate
   code."  Because the semantics is data, the same description drives the
   simulator, the assembler, the conflict model and the S* instantiation. *)

open Msl_bitvec

type flag = C | V | Z | N | U
(* carry, overflow, zero, negative, shifted-out ("UF" in the survey's SIMPL
   example) *)

let all_flags = [ C; V; Z; N; U ]

let flag_name = function C -> "C" | V -> "V" | Z -> "Z" | N -> "N" | U -> "U"

(* A flag's position in [all_flags]: its bit in a flag mask. *)
let flag_index = function C -> 0 | V -> 1 | Z -> 2 | N -> 3 | U -> 4

(* Flag-setting binary operators.  These are the operators a real ALU/shifter
   implements; pure expression operators live in [expr]. *)
type abinop =
  | A_add
  | A_adc  (* add with carry-in *)
  | A_sub
  | A_and
  | A_or
  | A_xor
  | A_mul
  | A_shl  (* shift left by amount operand *)
  | A_shr  (* logical right *)
  | A_sra  (* arithmetic right *)
  | A_rol
  | A_ror

type expr =
  | Opnd of int  (* value of the i-th operand of the instance *)
  | Reg of string  (* named (non-operand) register, sampled at phase start *)
  | Const of Bitvec.t
  | Flag of flag  (* 1-bit *)
  | Add of expr * expr
  | Sub of expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Xor of expr * expr
  | Not of expr
  | Slice of expr * int * int  (* bits hi..lo *)
  | Concat of expr * expr
  | Zext of int * expr  (* zero-extend / truncate to width *)
  | Mux of expr * expr * expr  (* if e1 <> 0 then e2 else e3 *)

type dest =
  | D_opnd of int  (* write the i-th operand (must be a register operand) *)
  | D_reg of string

type action =
  | Assign of dest * expr  (* plain transfer, flags untouched *)
  | Arith of dest * abinop * expr * expr  (* ALU/shifter op, updates flags *)
  | Arith_nf of dest * abinop * expr * expr  (* same but flags preserved *)
  | Arith_flags of abinop * expr * expr  (* compute flags only, no write *)
  | Mem_read of dest * expr  (* dest := memory[addr]; may microtrap *)
  | Mem_write of expr * expr  (* memory[addr] := value; may microtrap *)
  | Set_flag of flag * expr  (* explicit flag write (lsb of expr) *)
  | Int_ack  (* acknowledge the pending interrupt line *)

let subexprs = function
  | Opnd _ | Reg _ | Const _ | Flag _ -> []
  | Add (a, b) | Sub (a, b) | And (a, b) | Or (a, b) | Xor (a, b)
  | Concat (a, b) ->
      [ a; b ]
  | Not e | Slice (e, _, _) | Zext (_, e) -> [ e ]
  | Mux (a, b, c) -> [ a; b; c ]

(* Free register names read by an expression; used by the hazard model. *)
let rec expr_regs = function
  | Reg r -> [ r ]
  | e -> List.concat_map expr_regs (subexprs e)

let rec expr_opnds = function
  | Opnd i -> [ i ]
  | e -> List.concat_map expr_opnds (subexprs e)

let rec expr_flags = function
  | Flag f -> [ f ]
  | e -> List.concat_map expr_flags (subexprs e)

let action_reads = function
  | Assign (_, e) | Mem_read (_, e) | Set_flag (_, e) -> expr_regs e
  | Arith (_, _, a, b) | Arith_nf (_, _, a, b) | Arith_flags (_, a, b)
  | Mem_write (a, b) ->
      expr_regs a @ expr_regs b
  | Int_ack -> []

let action_read_opnds = function
  | Assign (_, e) | Mem_read (_, e) | Set_flag (_, e) -> expr_opnds e
  | Arith (_, _, a, b) | Arith_nf (_, _, a, b) | Arith_flags (_, a, b)
  | Mem_write (a, b) ->
      expr_opnds a @ expr_opnds b
  | Int_ack -> []

let action_writes = function
  | Assign (d, _) | Arith (d, _, _, _) | Arith_nf (d, _, _, _)
  | Mem_read (d, _) -> (
      match d with D_reg r -> ([ r ], []) | D_opnd i -> ([], [ i ]))
  | Mem_write _ | Set_flag _ | Arith_flags _ | Int_ack -> ([], [])

let action_sets_flags = function
  | Arith _ | Arith_flags _ -> all_flags
  | Set_flag (f, _) -> [ f ]
  | Assign _ | Arith_nf _ | Mem_read _ | Mem_write _ | Int_ack -> []

let action_reads_flags = function
  | Assign (_, e) | Mem_read (_, e) | Set_flag (_, e) -> expr_flags e
  | Arith (_, op, a, b) | Arith_nf (_, op, a, b) | Arith_flags (op, a, b) ->
      (if op = A_adc then [ C ] else []) @ expr_flags a @ expr_flags b
  | Mem_write (a, b) -> expr_flags a @ expr_flags b
  | Int_ack -> []

let action_touches_memory = function
  | Mem_read _ | Mem_write _ -> true
  | Assign _ | Arith _ | Arith_nf _ | Arith_flags _ | Set_flag _ | Int_ack ->
      false

(* The shift amount for shift ops is the low 6 bits of the right
   operand. *)
let amount b = Int64.to_int (Int64.logand (Bitvec.to_int64 b) 0x3FL)

(* [fst (eval_abinop op a b ~carry_in)] without the flags record and the
   tuple: what the flag-preserving forms need. *)
let eval_abinop_result op a b ~carry_in =
  match op with
  | A_add -> Bitvec.add a b
  | A_adc -> fst (Bitvec.adc a b carry_in)
  | A_sub -> Bitvec.sub a b
  | A_and -> Bitvec.logand a b
  | A_or -> Bitvec.logor a b
  | A_xor -> Bitvec.logxor a b
  | A_mul -> Bitvec.mul a b
  | A_shl -> Bitvec.shift_left a (amount b)
  | A_shr -> Bitvec.shift_right a (amount b)
  | A_sra -> Bitvec.shift_right_arith a (amount b)
  | A_rol -> Bitvec.rotate_left a (amount b)
  | A_ror -> Bitvec.rotate_right a (amount b)

(* Evaluate an ALU operation, returning the result and the new flags.  The
   logical ops and the shifter family other than shl/shr set only Z and N. *)
let eval_abinop op a b ~carry_in =
  match op with
  | A_add -> Bitvec.add_f a b
  | A_adc -> Bitvec.adc a b carry_in
  | A_sub -> Bitvec.sub_f a b
  | A_mul -> Bitvec.mul_f a b
  | A_shl -> Bitvec.shift_left_f a (amount b)
  | A_shr -> Bitvec.shift_right_f a (amount b)
  | A_and | A_or | A_xor | A_sra | A_rol | A_ror ->
      let r = eval_abinop_result op a b ~carry_in in
      ( r,
        { Bitvec.no_flags with zero = Bitvec.is_zero r; negative = Bitvec.msb r } )

let abinop_name = function
  | A_add -> "add"
  | A_adc -> "adc"
  | A_sub -> "sub"
  | A_and -> "and"
  | A_or -> "or"
  | A_xor -> "xor"
  | A_mul -> "mul"
  | A_shl -> "shl"
  | A_shr -> "shr"
  | A_sra -> "sra"
  | A_rol -> "rol"
  | A_ror -> "ror"
