(* Microoperation instances and microinstructions.

   An [op] is a machine microoperation template applied to concrete
   arguments.  A microinstruction ([t]) is a set of such ops executed in one
   microcycle (spread over the machine's phases) plus a sequencing action.
   This is the horizontal microinstruction of the survey's introduction. *)

open Msl_bitvec

type arg = A_reg of int | A_imm of Bitvec.t

type op = { op_t : Desc.template; op_args : arg array }

(* Sequencing part of a microinstruction; targets are control-store
   addresses (labels are resolved by the assembler). *)
type next =
  | Next
  | Jump of int
  | Branch of Desc.cond * int  (* taken -> target, else fall through *)
  | Dispatch of { dreg : int; hi : int; lo : int; base : int }
      (* goto base + reg<hi..lo>: the multiway branch of SIMPL's case and
         YALLL's sophisticated branch facility *)
  | Call of int
  | Return
  | Halt

type t = { ops : op list; next : next }

(* -- construction ------------------------------------------------------- *)

let arg_matches d (spec : Desc.operand_spec) = function
  | A_reg r -> (
      match spec.o_kind with
      | Desc.O_reg cls -> Desc.reg_in_class (Desc.reg d r) cls
      | Desc.O_imm _ -> false)
  | A_imm v -> (
      match spec.o_kind with
      | Desc.O_imm w -> Bitvec.width v = w
      | Desc.O_reg _ -> false)

let make d tname args =
  let tm = Desc.get_template d tname in
  let args = Array.of_list args in
  if Array.length args <> Array.length tm.Desc.t_operands then
    invalid_arg
      (Printf.sprintf "%s.%s: expected %d operands, got %d" d.Desc.d_name tname
         (Array.length tm.Desc.t_operands) (Array.length args));
  Array.iteri
    (fun i a ->
      if not (arg_matches d tm.Desc.t_operands.(i) a) then
        invalid_arg
          (Printf.sprintf "%s.%s: operand %d (%s) mismatch" d.Desc.d_name tname
             i tm.Desc.t_operands.(i).o_name))
    args;
  { op_t = tm; op_args = args }

(* -- static accessors used by hazard/conflict analysis ------------------ *)

(* Register ids, sorted and without duplicates: [named] plus the register
   arguments at the operand positions [opnds]. *)
let rec insert (r : int) = function
  | [] -> [ r ]
  | x :: rest as l ->
      if r < x then r :: l else if r = x then l else x :: insert r rest

(* The first id that sorted lists [a] and [b] share, or -1. *)
let rec first_common (a : int list) b =
  match (a, b) with
  | x :: a', y :: b' ->
      if x = y then x else if x < y then first_common a' b else first_common a b'
  | [], _ | _, [] -> -1

let regs opnds named args =
  Array.fold_left
    (fun acc i ->
      if i >= Array.length args then acc
      else match args.(i) with A_reg r -> insert r acc | A_imm _ -> acc)
    named opnds

(* Registers read by the op: read-role operands plus named registers in the
   RTL actions. *)
let op_reads d op =
  let x = Desc.facts d op.op_t in
  regs x.Desc.x_read_opnds x.Desc.x_read_regs op.op_args

let op_writes d op =
  let x = Desc.facts d op.op_t in
  regs x.Desc.x_write_opnds x.Desc.x_write_regs op.op_args

(* Literally identical instances: the same template with the same
   arguments.  A machine holds each of its templates once. *)
let identical o1 o2 = o1.op_t == o2.op_t && o1.op_args = o2.op_args

(* What the [k]th field setting of the op's template (facts [x]) puts in
   its field: register operands encode as their id, immediates as their
   value. *)
let setting_value (x : Desc.facts) op k =
  let v = x.Desc.x_values.(k) in
  if v >= 0 then v
  else
    match op.op_args.(-1 - v) with
    | A_reg r -> r
    | A_imm b -> Int64.to_int (Bitvec.to_int64 b)

let op_phase op = op.op_t.Desc.t_phase

let op_extra_cycles op = op.op_t.Desc.t_extra_cycles

(* -- microinstruction-level accessors ------------------------------------ *)

let inst_extra_cycles inst =
  List.fold_left (fun acc op -> max acc (op_extra_cycles op)) 0 inst.ops

let ops_by_phase (d : Desc.t) ops =
  Array.init d.Desc.d_phases (fun p ->
      List.filter (fun op -> op_phase op = p) ops)

(* -- printing ------------------------------------------------------------ *)

(* The one printer: a Buffer writer, so a listing costs no formatter per
   word.  [pp] wraps it for Format users. *)
let add_inst d buf inst =
  let add = Buffer.add_string buf in
  let add_op i op =
    if i > 0 then add " | ";
    add op.op_t.Desc.t_name;
    Array.iteri
      (fun j a ->
        add (if j = 0 then " " else ", ");
        match a with
        | A_reg r -> add (Desc.reg_name d r)
        | A_imm v when Bitvec.width v <= 16 ->
            add ("#" ^ Int64.to_string (Bitvec.to_int64 v))
        | A_imm v -> add ("#" ^ Bitvec.to_string ~base:16 v))
      op.op_args
  in
  add "[";
  List.iteri add_op
    (List.stable_sort (fun a b -> compare (op_phase a) (op_phase b)) inst.ops);
  add "]";
  match inst.next with
  | Next -> ()
  | Jump a -> Printf.bprintf buf " -> goto %d" a
  | Branch (c, a) -> Printf.bprintf buf " -> if %a goto %d" (Desc.add_cond d) c a
  | Dispatch { dreg; hi; lo; base } ->
      Printf.bprintf buf " -> dispatch %s<%d..%d> + %d" (Desc.reg_name d dreg)
        hi lo base
  | Call a -> Printf.bprintf buf " -> call %d" a
  | Return -> add " -> return"
  | Halt -> add " -> halt"

let pp d ppf inst =
  let buf = Buffer.create 64 in
  add_inst d buf inst; Fmt.string ppf (Buffer.contents buf)
