(* Machine-driven instruction selection.

   Lowers MIR statements and terminators to microoperation instances of a
   concrete machine, using only the machine description: templates are
   found by semantic class, and when a machine lacks one (the survey's
   §2.1.2 mismatch between language primitives and microoperations) the
   selector synthesises an equivalent sequence:

   - missing inc/dec      -> constant + add/sub
   - missing neg          -> not + inc
   - fixed-ACC ALUs       -> op + move out of ACC           (V11)
   - shift-by-one only    -> unrolled single-bit shifts     (V11)
   - narrow constants     -> low-load + high-deposit        (H1's orh)
   - untestable reg-zero  -> flag-setting test + Z branch   (V11)
   - no mask-match branch -> xor/and/test synthesis
   - no dispatch          -> compare-and-branch chain       (V11, B17)

   All synthesised sequences use only the reserved scratch registers
   (classes "at"/"at2") and the machine's fixed ACC/MAR/MBR, never
   allocatable registers. *)

open Msl_bitvec
open Msl_machine
module Diag = Msl_util.Diag

type label = string

(* Sequencing with unresolved labels; the pipeline assigns addresses. *)
type lnext =
  | L_next
  | L_goto of label
  | L_branch of Desc.cond * label  (* else fall through *)
  | L_dispatch of { dreg : int; hi : int; lo : int; table : label list }
  | L_call of label
  | L_return
  | L_halt

type tail_inst = { t_ops : Inst.op list; t_next : lnext }

type lowered_block = {
  lb_label : label;
  lb_body : Inst.op list;  (* to be compacted *)
  lb_tail : tail_inst list;  (* sequencing epilogue, one MI each *)
}

type ctx = {
  d : Desc.t;
  at : int;  (* primary scratch *)
  at2 : int option;  (* secondary scratch, where defined *)
  acc : int option;  (* fixed ALU result register, where the machine has one *)
  mar : int option;
  mbr : int option;
}

let class_reg d cls =
  match Desc.regs_of_class d cls with
  | r :: _ -> Some r.Desc.r_id
  | [] -> None

let make_ctx d =
  let at =
    match class_reg d "at" with
    | Some r -> r
    | None ->
        Diag.error Diag.Codegen "machine %s reserves no scratch register"
          d.Desc.d_name
  in
  {
    d;
    at;
    at2 = class_reg d "at2";
    acc = class_reg d "acc";
    mar = class_reg d "addr";
    mbr = class_reg d "mbr";
  }

let err ctx fmt =
  Format.kasprintf
    (fun m -> Diag.error Diag.Codegen "%s: %s" ctx.d.Desc.d_name m)
    fmt

let phys ctx = function
  | Mir.Phys r -> r
  | Mir.Virt v ->
      err ctx "virtual register v%d survived to code generation (run the \
               allocator first)" v

let op ctx name args = Inst.make ctx.d name args

(* Pick the first template of the given sem whose shape we understand. *)
let find_sem ctx sem = Desc.templates_with_sem ctx.d sem


(* -- constants ------------------------------------------------------------ *)

let const_template ctx =
  match find_sem ctx Desc.S_const with
  | tm :: _ -> tm
  | [] -> err ctx "no constant-load microoperation"

let imm_width (tm : Desc.template) =
  match tm.Desc.t_operands.(1).o_kind with
  | Desc.O_imm w -> w
  | Desc.O_reg _ -> invalid_arg "const template shape"

(* Load constant [c] into register [dst].  If the value does not fit the
   immediate field, use the machine's high-deposit special (H1's orh);
   otherwise fail — a real encoding limit the programmer must respect. *)
let emit_const ctx dst c =
  let tm = const_template ctx in
  let w = imm_width tm in
  let v = Bitvec.to_int64 (Bitvec.resize ~width:ctx.d.Desc.d_word c) in
  let fits x =
    w >= 64 || Int64.unsigned_compare x (Int64.sub (Int64.shift_left 1L w) 1L) <= 0
  in
  if fits v then
    [ op ctx tm.Desc.t_name
        [ Inst.A_reg dst; Inst.A_imm (Bitvec.of_int64 ~width:w v) ] ]
  else
    match Desc.find_template ctx.d "orh" with
    | Some orh ->
        let low = Int64.logand v 0xFFFFFFFFL in
        let high = Int64.shift_right_logical v 32 in
        [
          op ctx tm.Desc.t_name
            [ Inst.A_reg dst; Inst.A_imm (Bitvec.of_int64 ~width:w low) ];
          op ctx orh.Desc.t_name
            [ Inst.A_reg dst; Inst.A_imm (Bitvec.of_int64 ~width:32 high) ];
        ]
    | None -> err ctx "constant %Ld does not fit the %d-bit immediate field" v w

let emit_const_int ctx dst n =
  emit_const ctx dst (Bitvec.of_int ~width:ctx.d.Desc.d_word n)

(* -- moves ----------------------------------------------------------------- *)

let emit_move ctx dst src =
  if dst = src then []
  else
    match find_sem ctx Desc.S_move with
    | tm :: _ -> [ op ctx tm.Desc.t_name [ Inst.A_reg dst; Inst.A_reg src ] ]
    | [] -> err ctx "no register-transfer microoperation"

(* -- binary operations ----------------------------------------------------- *)

(* Emit [dst := a op b] using whatever template shape the machine offers.
   With [~set_flags:true], prefer the machine's flag-setting variant
   (named with an "f" suffix by convention); machines whose base operation
   already sets flags (V11) need no variant, and machines with neither get
   a trailing test to materialise Z/N. *)
let rec emit_binop ?(set_flags = false) ctx dst bop a b =
  (if set_flags then
     match Desc.find_template ctx.d (Rtl.abinop_name bop ^ "f") with
     | Some tm when Array.length tm.Desc.t_operands = 3 ->
         Some [ op ctx tm.Desc.t_name [ Inst.A_reg dst; Inst.A_reg a; Inst.A_reg b ] ]
     | Some _ | None -> None
   else None)
  |> function
  | Some ops -> ops
  | None -> emit_binop_plain ctx ~set_flags dst bop a b

and emit_binop_plain ctx ~set_flags dst bop a b =
  let candidates = find_sem ctx (Desc.S_binop bop) in
  let three_op =
    List.find_opt
      (fun (tm : Desc.template) ->
        Array.length tm.Desc.t_operands = 3 && tm.Desc.t_result = Desc.R_operands
        && (match tm.Desc.t_operands.(2).o_kind with
           | Desc.O_reg _ -> true
           | Desc.O_imm _ -> false))
      candidates
  in
  let base =
    match three_op with
    | Some tm ->
        Some
          [ op ctx tm.Desc.t_name [ Inst.A_reg dst; Inst.A_reg a; Inst.A_reg b ] ]
    | None -> None
  in
  match base with
  | Some ops ->
      if
        set_flags
        && not
             (List.exists
                (fun o -> (Desc.facts ctx.d o.Inst.op_t).Desc.x_set_flags <> 0)
                ops)
      then ops @ emit_test ctx dst
      else ops
  | None -> (
      let two_op_fixed =
        List.find_opt
          (fun (tm : Desc.template) ->
            Array.length tm.Desc.t_operands = 2
            && (match tm.Desc.t_result with Desc.R_reg _ -> true | _ -> false))
          candidates
      in
      match two_op_fixed with
      | Some tm ->
          let res =
            match tm.Desc.t_result with
            | Desc.R_reg name -> (Desc.get_reg ctx.d name).Desc.r_id
            | Desc.R_operands | Desc.R_none -> assert false
          in
          op ctx tm.Desc.t_name [ Inst.A_reg a; Inst.A_reg b ]
          :: emit_move ctx dst res
      | None -> emit_binop_expansion ctx dst bop a b)

and emit_binop_expansion ctx _dst bop _a _b =
  match bop with
  | Rtl.A_mul | Rtl.A_adc ->
      err ctx "no %s microoperation (expand at the MIR level)"
        (Rtl.abinop_name bop)
  | Rtl.A_shl | Rtl.A_shr | Rtl.A_sra | Rtl.A_rol | Rtl.A_ror ->
      err ctx "no variable %s microoperation" (Rtl.abinop_name bop)
  | Rtl.A_add | Rtl.A_sub | Rtl.A_and | Rtl.A_or | Rtl.A_xor ->
      err ctx "no %s microoperation" (Rtl.abinop_name bop)

(* -- shifts by a constant --------------------------------------------------- *)

(* A flag-setting shift is requested when the shifted-out bit (SIMPL's UF)
   or the result's Z/N will be tested. *)
and emit_shift_imm ctx ~set_flags dst bop src n =
  let base_name =
    match bop with
    | Rtl.A_shl -> "shl"
    | Rtl.A_shr -> "shr"
    | Rtl.A_sra -> "sra"
    | Rtl.A_rol -> "rol"
    | Rtl.A_ror -> "ror"
    | _ -> err ctx "not a shift"
  in
  let wanted =
    if set_flags then
      match Desc.find_template ctx.d (base_name ^ "f") with
      | Some tm -> Some tm
      | None -> None
    else
      match find_sem ctx (Desc.S_binop bop) with
      | tm :: _ when Array.length tm.Desc.t_operands = 3 -> Some tm
      | _ -> None
  in
  match wanted with
  | Some tm -> (
      match tm.Desc.t_operands.(2).o_kind with
      | Desc.O_imm w when n < 1 lsl w ->
          [ op ctx tm.Desc.t_name
              [ Inst.A_reg dst; Inst.A_reg src; Inst.A_imm (Bitvec.of_int ~width:w n) ] ]
      | Desc.O_imm w ->
          (* split a too-large amount into two shifts *)
          let first = (1 lsl w) - 1 in
          emit_shift_imm ctx ~set_flags:false dst bop src first
          @ emit_shift_imm ctx ~set_flags dst bop dst (n - first)
      | Desc.O_reg _ -> err ctx "unexpected shift template shape")
  | None -> (
      (* single-bit shifter through ACC (V11) *)
      match Desc.find_template ctx.d (base_name ^ "1") with
      | Some tm1 ->
          let acc =
            match ctx.acc with
            | Some a -> a
            | None -> err ctx "single-bit shifter without an ACC"
          in
          emit_move ctx acc src
          @ List.concat (List.init n (fun _ -> [ op ctx tm1.Desc.t_name [] ]))
          @ emit_move ctx dst acc
      | None ->
          if set_flags then
            (* no flag-setting variant: shift then test *)
            emit_shift_imm ctx ~set_flags:false dst bop src n
            @ emit_test ctx dst
          else err ctx "no %s microoperation" base_name)

(* -- unary operations -------------------------------------------------------- *)

and emit_unop ctx sem fallback dst src =
  let candidates = find_sem ctx sem in
  let two_op =
    List.find_opt
      (fun (tm : Desc.template) ->
        Array.length tm.Desc.t_operands = 2 && tm.Desc.t_result = Desc.R_operands)
      candidates
  in
  match two_op with
  | Some tm -> [ op ctx tm.Desc.t_name [ Inst.A_reg dst; Inst.A_reg src ] ]
  | None -> (
      let one_op_fixed =
        List.find_opt
          (fun (tm : Desc.template) ->
            Array.length tm.Desc.t_operands = 1
            && (match tm.Desc.t_result with Desc.R_reg _ -> true | _ -> false))
          candidates
      in
      match one_op_fixed with
      | Some tm ->
          let res =
            match tm.Desc.t_result with
            | Desc.R_reg name -> (Desc.get_reg ctx.d name).Desc.r_id
            | Desc.R_operands | Desc.R_none -> assert false
          in
          op ctx tm.Desc.t_name [ Inst.A_reg src ] :: emit_move ctx dst res
      | None -> fallback ())

and emit_inc ctx dst src =
  emit_unop ctx Desc.S_inc
    (fun () ->
      emit_const_int ctx ctx.at 1 @ emit_binop ctx dst Rtl.A_add src ctx.at)
    dst src

and emit_dec ctx dst src =
  emit_unop ctx Desc.S_dec
    (fun () ->
      emit_const_int ctx ctx.at 1 @ emit_binop ctx dst Rtl.A_sub src ctx.at)
    dst src

and emit_not ctx dst src =
  emit_unop ctx Desc.S_not (fun () -> err ctx "no complement microoperation") dst src

and emit_neg ctx dst src =
  emit_unop ctx Desc.S_neg
    (fun () -> emit_not ctx dst src @ emit_inc ctx dst dst)
    dst src

(* -- flag test --------------------------------------------------------------- *)

and emit_test ctx r =
  match find_sem ctx Desc.S_test with
  | tm :: _ -> [ op ctx tm.Desc.t_name [ Inst.A_reg r ] ]
  | [] -> err ctx "no flag-setting test microoperation"

(* -- memory ------------------------------------------------------------------ *)

let mar_reg ctx =
  match ctx.mar with Some r -> r | None -> err ctx "no MAR register"

let mbr_reg ctx =
  match ctx.mbr with Some r -> r | None -> err ctx "no MBR register"

(* dst := mem[addr_reg] *)
let emit_load ctx dst addr =
  let two_op =
    List.find_opt
      (fun (tm : Desc.template) -> Array.length tm.Desc.t_operands = 2)
      (find_sem ctx Desc.S_mem_read)
  in
  match two_op with
  | Some tm -> [ op ctx tm.Desc.t_name [ Inst.A_reg dst; Inst.A_reg addr ] ]
  | None -> (
      match
        List.find_opt
          (fun (tm : Desc.template) -> Array.length tm.Desc.t_operands = 0)
          (find_sem ctx Desc.S_mem_read)
      with
      | Some tm ->
          emit_move ctx (mar_reg ctx) addr
          @ [ op ctx tm.Desc.t_name [] ]
          @ emit_move ctx dst (mbr_reg ctx)
      | None -> err ctx "no memory-read microoperation")

let emit_load_abs ctx dst a =
  match
    List.find_opt
      (fun (tm : Desc.template) -> Array.length tm.Desc.t_operands = 0)
      (find_sem ctx Desc.S_mem_read)
  with
  | Some tm ->
      emit_const_int ctx (mar_reg ctx) a
      @ [ op ctx tm.Desc.t_name [] ]
      @ emit_move ctx dst (mbr_reg ctx)
  | None ->
      (* machines with only register-addressed reads *)
      emit_const_int ctx ctx.at a @ emit_load ctx dst ctx.at

let emit_store ctx addr src =
  let two_op =
    List.find_opt
      (fun (tm : Desc.template) -> Array.length tm.Desc.t_operands = 2)
      (find_sem ctx Desc.S_mem_write)
  in
  match two_op with
  | Some tm -> [ op ctx tm.Desc.t_name [ Inst.A_reg addr; Inst.A_reg src ] ]
  | None -> (
      match
        List.find_opt
          (fun (tm : Desc.template) -> Array.length tm.Desc.t_operands = 0)
          (find_sem ctx Desc.S_mem_write)
      with
      | Some tm ->
          emit_move ctx (mar_reg ctx) addr
          @ emit_move ctx (mbr_reg ctx) src
          @ [ op ctx tm.Desc.t_name [] ]
      | None -> err ctx "no memory-write microoperation")

let emit_store_abs ctx a src =
  match
    List.find_opt
      (fun (tm : Desc.template) -> Array.length tm.Desc.t_operands = 0)
      (find_sem ctx Desc.S_mem_write)
  with
  | Some tm ->
      emit_const_int ctx (mar_reg ctx) a
      @ emit_move ctx (mbr_reg ctx) src
      @ [ op ctx tm.Desc.t_name [] ]
  | None -> emit_const_int ctx ctx.at a @ emit_store ctx ctx.at src

(* -- statements ---------------------------------------------------------------- *)

let emit_stmt ctx (s : Mir.stmt) : Inst.op list =
  match s with
  | Mir.Assign { dst; rv; set_flags } -> (
      let dst = phys ctx dst in
      match rv with
      | Mir.R_const c -> emit_const ctx dst c
      | Mir.R_copy r ->
          let ops = emit_move ctx dst (phys ctx r) in
          if set_flags then ops @ emit_test ctx dst else ops
      | Mir.R_not r -> emit_not ctx dst (phys ctx r)
      | Mir.R_neg r -> emit_neg ctx dst (phys ctx r)
      | Mir.R_inc r -> emit_inc ctx dst (phys ctx r)
      | Mir.R_dec r -> emit_dec ctx dst (phys ctx r)
      | Mir.R_binop (bop, a, b) ->
          emit_binop ~set_flags ctx dst bop (phys ctx a) (phys ctx b)
      | Mir.R_div _ | Mir.R_rem _ ->
          err ctx "division reached code generation (Lower.expand must run)"
      | Mir.R_shift_imm (bop, r, n) ->
          emit_shift_imm ctx ~set_flags dst bop (phys ctx r) n
      | Mir.R_mem r -> emit_load ctx dst (phys ctx r)
      | Mir.R_mem_abs a -> emit_load_abs ctx dst a)
  | Mir.Store { addr; src } -> emit_store ctx (phys ctx addr) (phys ctx src)
  | Mir.Store_abs { addr; src } -> emit_store_abs ctx addr (phys ctx src)
  | Mir.Test r -> emit_test ctx (phys ctx r)
  | Mir.Intack -> (
      match Desc.find_template ctx.d "intack" with
      | Some tm -> [ op ctx tm.Desc.t_name [] ]
      | None -> err ctx "no interrupt acknowledge microoperation")
  | Mir.Special { op = name; args } -> (
      match Desc.find_template ctx.d name with
      | Some tm when Array.length tm.Desc.t_operands = List.length args ->
          [ op ctx name (List.map (fun r -> Inst.A_reg (phys ctx r)) args) ]
      | Some _ -> err ctx "microoperation %s: wrong operand count" name
      | None -> err ctx "no microoperation %S on this machine" name)

(* -- conditions ------------------------------------------------------------------ *)

(* Lower a MIR condition to (extra flag-producing ops, machine condition).
   The extra ops join the block body; the dependence edges on flags keep
   them ordered last among flag writers. *)
let lower_cond ctx (c : Mir.cond) : Inst.op list * Desc.cond =
  match c with
  | Mir.Flag_set f -> ([], Desc.C_flag (f, true))
  | Mir.Flag_clear f -> ([], Desc.C_flag (f, false))
  | Mir.Int_pending -> ([], Desc.C_int_pending)
  | Mir.Zero r ->
      let r = phys ctx r in
      if Desc.cond_supported ctx.d (Desc.C_reg_zero (r, true)) then
        ([], Desc.C_reg_zero (r, true))
      else (emit_test ctx r, Desc.C_flag (Rtl.Z, true))
  | Mir.Nonzero r ->
      let r = phys ctx r in
      if Desc.cond_supported ctx.d (Desc.C_reg_zero (r, false)) then
        ([], Desc.C_reg_zero (r, false))
      else (emit_test ctx r, Desc.C_flag (Rtl.Z, false))
  | Mir.Mask_match (r, mask) ->
      let r = phys ctx r in
      if Desc.cond_supported ctx.d (Desc.C_reg_mask (r, mask)) then
        ([], Desc.C_reg_mask (r, mask))
      else begin
        (* (r xor pattern) and care = 0  <=>  match *)
        let w = ctx.d.Desc.d_word in
        let pattern = ref (Bitvec.zero w) and care = ref (Bitvec.zero w) in
        Array.iteri
          (fun i m ->
            let bit = Bitvec.shift_left (Bitvec.of_int ~width:w 1) i in
            match m with
            | Desc.Mt ->
                pattern := Bitvec.logor !pattern bit;
                care := Bitvec.logor !care bit
            | Desc.Mf -> care := Bitvec.logor !care bit
            | Desc.Mx -> ())
          mask;
        match ctx.at2 with
        | Some at2 ->
            (* three-operand machines with two scratch registers *)
            let ops =
              emit_const ctx ctx.at !pattern
              @ emit_const ctx at2 !care
              @ emit_binop ctx ctx.at Rtl.A_xor r ctx.at
              @ emit_binop ctx ctx.at Rtl.A_and ctx.at at2
              @ emit_test ctx ctx.at
            in
            (ops, Desc.C_flag (Rtl.Z, true))
        | None ->
            (* ACC machines: xor/and write ACC, flags from the final and *)
            let acc =
              match ctx.acc with
              | Some a -> a
              | None -> err ctx "cannot synthesise mask match (no scratch)"
            in
            let ops =
              emit_const ctx ctx.at !pattern
              @ emit_binop ctx acc Rtl.A_xor r ctx.at
              @ emit_const ctx ctx.at !care
              @ emit_binop ctx acc Rtl.A_and acc ctx.at
            in
            (ops, Desc.C_flag (Rtl.Z, true))
      end

(* -- terminators -------------------------------------------------------------------- *)

let lower_term ctx (t : Mir.term) : Inst.op list * tail_inst list =
  match t with
  | Mir.Goto l -> ([], [ { t_ops = []; t_next = L_goto l } ])
  | Mir.Ret -> ([], [ { t_ops = []; t_next = L_return } ])
  | Mir.Halt -> ([], [ { t_ops = []; t_next = L_halt } ])
  | Mir.Call { proc; cont } ->
      ([], [ { t_ops = []; t_next = L_call proc }; { t_ops = []; t_next = L_goto cont } ])
  | Mir.If (c, l1, l2) ->
      let pre, mc = lower_cond ctx c in
      ( pre,
        [
          { t_ops = []; t_next = L_branch (mc, l1) };
          { t_ops = []; t_next = L_goto l2 };
        ] )
  | Mir.Switch { sel; hi; lo; targets } ->
      let sel = phys ctx sel in
      if Desc.has_cap ctx.d Desc.Cap_dispatch then begin
        let expected = 1 lsl (hi - lo + 1) in
        if List.length targets <> expected then
          err ctx "switch needs %d targets, got %d" expected
            (List.length targets);
        ([], [ { t_ops = []; t_next = L_dispatch { dreg = sel; hi; lo; table = targets } } ])
      end
      else
        err ctx
          "switch reached code generation on a machine without dispatch \
           (Lower.expand_switch must run first)"

(* -- blocks ------------------------------------------------------------------------- *)

let select_block ctx (b : Mir.block) : lowered_block =
  let body = List.concat_map (emit_stmt ctx) b.Mir.b_stmts in
  let pre, tail = lower_term ctx b.Mir.b_term in
  { lb_label = b.Mir.b_label; lb_body = body @ pre; lb_tail = tail }
