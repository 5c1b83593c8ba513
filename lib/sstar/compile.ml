(* S* instantiation and code generation.

   Instantiating S* against a machine description yields S(M): every data
   object is resolved to machine storage, every elementary statement to a
   machine microoperation, and every test to a machine-testable condition.
   Anything the machine cannot do directly is an *instantiation error* —
   S* deliberately refuses to hide the machine (survey §2.2.3: "the
   programmer must have intimate knowledge of the specific machine").

   Parallelism is explicit: [cobegin] packs its arms into one
   microinstruction, [cocycle] assigns them to successive phases, [dur]
   overlaps a long operation with a sequence, and compaction is never run
   — the programmer composed the microinstructions.  The DeWitt conflict
   model still checks every composed word, so an impossible composition is
   rejected exactly as the hardware would reject it. *)

open Msl_bitvec
open Msl_machine
open Msl_mir
module Diag = Msl_util.Diag
module Loc = Msl_util.Loc

type storage =
  | Sreg of int
  | Sregfield of int * int * int  (* register, hi, lo *)
  | Smem of int  (* constant address *)
  | Smem_dyn of int * int  (* base + index register *)

type obj =
  | Oseq of storage * int  (* storage, width *)
  | Oarray of { lo : int; hi : int; ew : int; cells : arr_cells }
  | Otuple of { reg : int; fields : (string * int * int) list }
  | Ostack of { base : int; depth : int; ew : int; ptr : int }
  | Oconst of { reg : int; width : int; value : Bitvec.t }

and arr_cells = Aregs of int list | Amem of int

type env = {
  d : Desc.t;
  ctx : Select.ctx;
  objs : (string, obj) Hashtbl.t;
  move_templates : Desc.template list;  (* S_move, ascending phase *)
}

let canon = String.lowercase_ascii

let err ?(loc = Loc.dummy) fmt = Diag.error ~loc Diag.Instantiation fmt

let machine_reg env loc name =
  match Desc.find_reg_ci env.d name with
  | Some r -> r.Desc.r_id
  | None -> err ~loc "machine %s has no register %S" env.d.Desc.d_name name

let width_of_type loc = function
  | Ast.Tseq (hi, lo) -> hi - lo + 1
  | Ast.Tarray _ | Ast.Ttuple _ | Ast.Tstack _ ->
      Diag.error ~loc Diag.Instantiation "expected a seq type here"

(* -- declaration processing --------------------------------------------------- *)

let declare_var env (v : Ast.var_decl) =
  let loc = v.Ast.v_loc in
  let obj =
    match (v.Ast.v_type, v.Ast.v_binding) with
    | Ast.Tseq (hi, lo), Ast.Breg r -> Oseq (Sreg (machine_reg env loc r), hi - lo + 1)
    | Ast.Tseq (hi, lo), Ast.Bregfield (r, bhi, blo) ->
        if bhi - blo <> hi - lo then
          err ~loc "field binding width mismatch for %S" v.Ast.v_name;
        Oseq (Sregfield (machine_reg env loc r, bhi, blo), hi - lo + 1)
    | Ast.Tseq (hi, lo), Ast.Bmem a -> Oseq (Smem a, hi - lo + 1)
    | Ast.Tarray (lo_i, hi_i, elem), Ast.Bregs regs ->
        let n = hi_i - lo_i + 1 in
        if List.length regs <> n then
          err ~loc "array %S needs %d registers, got %d" v.Ast.v_name n
            (List.length regs);
        Oarray
          {
            lo = lo_i;
            hi = hi_i;
            ew = width_of_type loc elem;
            cells = Aregs (List.map (machine_reg env loc) regs);
          }
    | Ast.Tarray (lo_i, hi_i, elem), Ast.Bmem a ->
        Oarray
          { lo = lo_i; hi = hi_i; ew = width_of_type loc elem; cells = Amem a }
    | Ast.Ttuple fields, Ast.Breg r ->
        Otuple { reg = machine_reg env loc r; fields }
    | Ast.Tstack (depth, elem), Ast.Bmem a -> (
        match v.Ast.v_ptr with
        | None -> err ~loc "stack %S needs a pointer: with <var>" v.Ast.v_name
        | Some ptr -> (
            match Hashtbl.find_opt env.objs (canon ptr) with
            | Some (Oseq (Sreg p, _)) ->
                Ostack { base = a; depth; ew = width_of_type loc elem; ptr = p }
            | Some _ ->
                err ~loc "stack pointer %S must be a register-bound seq" ptr
            | None ->
                err ~loc "stack pointer %S must be declared before the stack"
                  ptr))
    | _, _ ->
        err ~loc "unsupported binding for %S on machine %s" v.Ast.v_name
          env.d.Desc.d_name
  in
  Hashtbl.replace env.objs (canon v.Ast.v_name) obj

let declare_const env (c : Ast.const_decl) =
  let reg = machine_reg env c.Ast.c_loc c.Ast.c_reg in
  Hashtbl.replace env.objs (canon c.Ast.c_name)
    (Oconst
       {
         reg;
         width = c.Ast.c_width;
         value = Bitvec.of_int64 ~width:c.Ast.c_width c.Ast.c_value;
       })

let declare_syn env (s : Ast.syn_decl) =
  let loc = s.Ast.s_loc in
  match Hashtbl.find_opt env.objs (canon s.Ast.s_base) with
  | None -> err ~loc "syn %S renames unknown object %S" s.Ast.s_name s.Ast.s_base
  | Some base -> (
      match (base, s.Ast.s_index) with
      | Oarray { lo; hi; ew; cells }, Some i ->
          if i < lo || i > hi then
            err ~loc "syn index %d outside [%d..%d]" i lo hi;
          let st =
            match cells with
            | Aregs regs -> Sreg (List.nth regs (i - lo))
            | Amem base_addr -> Smem (base_addr + i - lo)
          in
          Hashtbl.replace env.objs (canon s.Ast.s_name) (Oseq (st, ew))
      | _, None -> Hashtbl.replace env.objs (canon s.Ast.s_name) base
      | _, Some _ -> err ~loc "syn index on non-array %S" s.Ast.s_base)

(* -- reference resolution ------------------------------------------------------- *)

let resolve env loc (r : Ast.ref_) : storage * int =
  match r with
  | Ast.Rname n -> (
      match Hashtbl.find_opt env.objs (canon n) with
      | Some (Oseq (st, w)) -> (st, w)
      | Some (Oconst { reg; width; _ }) -> (Sreg reg, width)
      | Some (Otuple { reg; fields }) ->
          (* a whole tuple denotes the concatenation of its fields *)
          let w =
            List.fold_left (fun acc (_, hi, lo) -> acc + hi - lo + 1) 0 fields
          in
          (Sreg reg, w)
      | Some (Oarray _ | Ostack _) ->
          err ~loc "%S needs an index or stack operation" n
      | None -> err ~loc "undeclared data object %S" n)
  | Ast.Rindex (n, idx) -> (
      match Hashtbl.find_opt env.objs (canon n) with
      | Some (Oarray { lo; hi; ew; cells }) -> (
          match (idx, cells) with
          | Ast.Iconst i, Aregs regs ->
              if i < lo || i > hi then err ~loc "index %d outside [%d..%d]" i lo hi;
              (Sreg (List.nth regs (i - lo)), ew)
          | Ast.Iconst i, Amem base ->
              if i < lo || i > hi then err ~loc "index %d outside [%d..%d]" i lo hi;
              (Smem (base + i - lo), ew)
          | Ast.Ivar v, Amem base -> (
              match Hashtbl.find_opt env.objs (canon v) with
              | Some (Oseq (Sreg p, _)) -> (Smem_dyn (base, p), ew)
              | _ ->
                  err ~loc "index variable %S must be a register-bound seq" v)
          | Ast.Ivar _, Aregs _ ->
              err ~loc
                "machine %s cannot index into registers at run time (array \
                 %S)" env.d.Desc.d_name n)
      | Some _ -> err ~loc "%S is not an array" n
      | None -> err ~loc "undeclared data object %S" n)
  | Ast.Rfield (n, f) -> (
      match Hashtbl.find_opt env.objs (canon n) with
      | Some (Otuple { reg; fields }) -> (
          match
            List.find_opt (fun (fn, _, _) -> canon fn = canon f) fields
          with
          | Some (_, hi, lo) -> (Sregfield (reg, hi, lo), hi - lo + 1)
          | None -> err ~loc "tuple %S has no field %S" n f)
      | Some _ -> err ~loc "%S is not a tuple" n
      | None -> err ~loc "undeclared data object %S" n)

let const_value env (r : Ast.ref_) =
  match r with
  | Ast.Rname n -> (
      match Hashtbl.find_opt env.objs (canon n) with
      | Some (Oconst { value; _ }) -> Some value
      | _ -> None)
  | _ -> None

(* -- op emission ------------------------------------------------------------------ *)

let scratch2 env =
  match env.ctx.Select.at2 with
  | Some r -> r
  | None -> (
      match env.ctx.Select.mbr with
      | Some r -> r
      | None -> err "machine %s lacks a second scratch register" env.d.Desc.d_name)

(* Choose a transfer template whose phase is >= min_phase and whose op can
   join the microinstruction under construction ([taken]): a second
   parallel transfer picks the machine's second bus. *)
let move_op env ?(taken = []) ~min_phase dst src =
  if dst = src then []
  else
    let candidates =
      List.filter
        (fun (tm : Desc.template) -> tm.Desc.t_phase >= min_phase)
        env.move_templates
    in
    let usable =
      List.find_map
        (fun (tm : Desc.template) ->
          let op = Inst.make env.d tm.Desc.t_name [ Inst.A_reg dst; Inst.A_reg src ] in
          match Conflict.fits env.d taken op with
          | Ok () -> Some op
          | Error _ -> None)
        candidates
    in
    match usable with
    | Some op -> [ op ]
    | None ->
        err "machine %s has no conflict-free register transfer at phase >= %d"
          env.d.Desc.d_name min_phase

(* Read a storage into a register, for use as an operand.
   Returns (setup ops, register). *)
let read_storage env _loc (st, _w) =
  match st with
  | Sreg r -> ([], r)
  | Sregfield (r, hi, lo) ->
      (* shift down then mask: the temporaries of survey §2.1.7 *)
      let at = env.ctx.Select.at in
      let s2 = scratch2 env in
      let ops =
        Select.emit_shift_imm env.ctx ~set_flags:false at Rtl.A_shr r lo
        @ Select.emit_const env.ctx s2
            (Bitvec.of_int64 ~width:env.d.Desc.d_word
               (Int64.sub (Int64.shift_left 1L (hi - lo + 1)) 1L))
        @ Select.emit_binop env.ctx at Rtl.A_and at s2
      in
      (ops, at)
  | Smem a ->
      let at = env.ctx.Select.at in
      (Select.emit_load_abs env.ctx at a, at)
  | Smem_dyn (base, idx) ->
      let at = env.ctx.Select.at in
      let ops =
        Select.emit_const_int env.ctx at base
        @ Select.emit_binop env.ctx at Rtl.A_add at idx
        @ Select.emit_load env.ctx at at
      in
      (ops, at)

(* Write register [src] into a storage. *)
let write_storage env loc ~min_phase st src =
  ignore loc;
  match st with
  | Sreg r -> move_op env ~min_phase r src
  | Sregfield (r, hi, lo) ->
      (* r := (r & ~(mask << lo)) | (src << lo); the value moves into AT
         first because src may live in scratch2, which the hole mask needs *)
      let at = env.ctx.Select.at in
      let s2 = scratch2 env in
      let w = env.d.Desc.d_word in
      let mask = Int64.sub (Int64.shift_left 1L (hi - lo + 1)) 1L in
      let hole = Int64.lognot (Int64.shift_left mask lo) in
      Select.emit_shift_imm env.ctx ~set_flags:false at Rtl.A_shl src lo
      @ Select.emit_const env.ctx s2 (Bitvec.of_int64 ~width:w hole)
      @ Select.emit_binop env.ctx s2 Rtl.A_and r s2
      @ Select.emit_binop env.ctx r Rtl.A_or s2 at
  | Smem a -> Select.emit_store_abs env.ctx a src
  | Smem_dyn (base, idx) ->
      let at = env.ctx.Select.at in
      Select.emit_const_int env.ctx at base
      @ Select.emit_binop env.ctx at Rtl.A_add at idx
      @ Select.emit_store env.ctx at src

(* An operand into a register. *)
let operand_reg env loc ~for_write_temp (o : Ast.operand) =
  ignore for_write_temp;
  match o with
  | Ast.Onum v ->
      let at = env.ctx.Select.at in
      (Select.emit_const env.ctx at (Bitvec.of_int64 ~width:env.d.Desc.d_word v), at)
  | Ast.Oref r -> read_storage env loc (resolve env loc r)

let abinop_of = function
  | Ast.Sadd -> Rtl.A_add
  | Ast.Sadc -> Rtl.A_adc
  | Ast.Ssub -> Rtl.A_sub
  | Ast.Smul -> Rtl.A_mul
  | Ast.Sand -> Rtl.A_and
  | Ast.Sor -> Rtl.A_or
  | Ast.Sxor -> Rtl.A_xor

(* Compile an assignment.  [min_phase] constrains template phases inside a
   cocycle.  The common register-to-register forms produce exactly one
   microoperation. *)
let assign_ops env loc ?(taken = []) ~min_phase (dst : Ast.ref_) (e : Ast.expr)
    : Inst.op list =
  let dst_st, _ = resolve env loc dst in
  match (dst_st, e) with
  | Sreg d, Ast.Eop (Ast.Oref src_r) -> (
      match resolve env loc src_r with
      | Sreg s, _ -> move_op env ~taken ~min_phase d s
      | st -> (
          let pre, r = read_storage env loc st in
          pre @ move_op env ~taken ~min_phase d r))
  | Sreg d, Ast.Eop (Ast.Onum v) ->
      Select.emit_const env.ctx d (Bitvec.of_int64 ~width:env.d.Desc.d_word v)
  | Sreg d, Ast.Ebin (op, a, b) ->
      let s1, ra = operand_reg env loc ~for_write_temp:false a in
      let s2, rb =
        match b with
        | Ast.Onum v ->
            let r2 = scratch2 env in
            (Select.emit_const env.ctx r2
               (Bitvec.of_int64 ~width:env.d.Desc.d_word v), r2)
        | _ -> operand_reg env loc ~for_write_temp:false b
      in
      s1 @ s2 @ Select.emit_binop env.ctx d (abinop_of op) ra rb
  | Sreg d, Ast.Enot a ->
      let s, r = operand_reg env loc ~for_write_temp:false a in
      s @ Select.emit_not env.ctx d r
  | Sreg d, Ast.Eshift (a, n) ->
      let s, r = operand_reg env loc ~for_write_temp:false a in
      let op = if n >= 0 then Rtl.A_shl else Rtl.A_shr in
      if n = 0 then s @ move_op env ~min_phase d r
      else s @ Select.emit_shift_imm env.ctx ~set_flags:true d op r (abs n)
  | Sreg d, Ast.Erotate (a, n) ->
      let s, r = operand_reg env loc ~for_write_temp:false a in
      let op = if n >= 0 then Rtl.A_rol else Rtl.A_ror in
      if n = 0 then s @ move_op env ~min_phase d r
      else s @ Select.emit_shift_imm env.ctx ~set_flags:true d op r (abs n)
  | st, e ->
      (* non-register destination: compute into scratch2, then store *)
      let s2 = scratch2 env in
      let compute =
        match e with
        | Ast.Eop (Ast.Onum v) ->
            Select.emit_const env.ctx s2
              (Bitvec.of_int64 ~width:env.d.Desc.d_word v)
        | Ast.Eop (Ast.Oref r) ->
            let pre, src = read_storage env loc (resolve env loc r) in
            pre @ move_op env ~min_phase:0 s2 src
        | Ast.Ebin (op, a, b) ->
            let sa, ra = operand_reg env loc ~for_write_temp:false a in
            (* both operands may want AT; give b the scratch2 slot and
               compute into it *)
            let sb, rb =
              match b with
              | Ast.Onum v ->
                  (Select.emit_const env.ctx s2
                     (Bitvec.of_int64 ~width:env.d.Desc.d_word v), s2)
              | Ast.Oref r -> (
                  match resolve env loc r with
                  | Sreg rr, _ -> ([], rr)
                  | st2 ->
                      let pre, r0 = read_storage env loc st2 in
                      (pre @ move_op env ~min_phase:0 s2 r0, s2))
            in
            sa @ sb @ Select.emit_binop env.ctx s2 (abinop_of op) ra rb
        | Ast.Enot a ->
            let sa, ra = operand_reg env loc ~for_write_temp:false a in
            sa @ Select.emit_not env.ctx s2 ra
        | Ast.Eshift (a, n) ->
            let sa, ra = operand_reg env loc ~for_write_temp:false a in
            let op = if n >= 0 then Rtl.A_shl else Rtl.A_shr in
            sa @ Select.emit_shift_imm env.ctx ~set_flags:true s2 op ra (abs n)
        | Ast.Erotate (a, n) ->
            let sa, ra = operand_reg env loc ~for_write_temp:false a in
            let op = if n >= 0 then Rtl.A_rol else Rtl.A_ror in
            sa @ Select.emit_shift_imm env.ctx ~set_flags:true s2 op ra (abs n)
      in
      compute @ write_storage env loc ~min_phase:0 st s2

(* -- tests -------------------------------------------------------------------------- *)

let flag_of_name loc = function
  | "UF" -> Rtl.U
  | "CF" | "CARRY" -> Rtl.C
  | "ZF" | "ZERO" -> Rtl.Z
  | "NF" -> Rtl.N
  | "VF" | "OVERFLOW" -> Rtl.V
  | f -> Diag.error ~loc Diag.Instantiation "unknown condition flag %S" f

let test_cond env loc (t : Ast.test) : Desc.cond =
  let reg_of r =
    match resolve env loc r with
    | Sreg rr, _ -> rr
    | _ ->
        err ~loc "tests apply to register-bound objects only (machine %s)"
          env.d.Desc.d_name
  in
  let c =
    match t with
    | Ast.Tzero r -> Desc.C_reg_zero (reg_of r, true)
    | Ast.Tnonzero r -> Desc.C_reg_zero (reg_of r, false)
    | Ast.Tflag (f, v) -> Desc.C_flag (flag_of_name loc f, v)
  in
  if not (Desc.cond_supported env.d c) then
    err ~loc "machine %s cannot test this condition (S* requires a \
              hardware-testable condition)" env.d.Desc.d_name;
  c

(* -- statement compilation ----------------------------------------------------------- *)

(* Builder for linked blocks (microinstructions are explicit in S-star). *)
type sb = {
  mutable done_blocks : Pipeline.linked_block list;  (* reversed *)
  mutable cur_label : string;
  mutable cur_mis : (Inst.op list * Select.lnext) list;  (* reversed *)
  mutable fresh : int;
}

let sb_make entry = { done_blocks = []; cur_label = entry; cur_mis = []; fresh = 0 }

let sb_fresh sb =
  sb.fresh <- sb.fresh + 1;
  Printf.sprintf "ss$%d" sb.fresh

let sb_mi sb ops = sb.cur_mis <- (ops, Select.L_next) :: sb.cur_mis

let sb_ops sb ops = List.iter (fun op -> sb_mi sb [ op ]) ops

let sb_finish sb lnext =
  let mis =
    match sb.cur_mis with
    | (ops, Select.L_next) :: rest -> List.rev ((ops, lnext) :: rest)
    | mis -> List.rev (([], lnext) :: mis)
  in
  sb.done_blocks <-
    { Pipeline.k_label = sb.cur_label; k_mis = mis } :: sb.done_blocks;
  sb.cur_mis <- []

let sb_start sb label = sb.cur_label <- label

let sb_blocks sb = List.rev sb.done_blocks

(* Compose ops into one microinstruction, rejecting hardware conflicts. *)
let compose env loc ops =
  match Conflict.check_inst env.d { Inst.ops; next = Inst.Next } with
  | Ok () -> ops
  | Error reason ->
      Diag.error ~loc Diag.Compaction
        "cannot compose these statements into one microinstruction: %a"
        Conflict.pp_reason reason

(* A statement that must occupy exactly one microoperation (a cobegin or
   cocycle arm). *)
let rec single_op env ?(taken = []) ~min_phase (s : Ast.stmt) : Inst.op =
  match s with
  | Ast.Sassign (r, e, loc) -> (
      match assign_ops env loc ~taken ~min_phase r e with
      | [ op ] -> op
      | ops ->
          Diag.error ~loc Diag.Instantiation
            "this statement needs %d microoperations on %s and cannot appear \
             inside cobegin/cocycle" (List.length ops) env.d.Desc.d_name)
  | Ast.Sassert _ | Ast.Scobegin _ | Ast.Scocycle _ | Ast.Sdur _ | Ast.Sseq _
  | Ast.Sregion _ | Ast.Sif _ | Ast.Swhile _ | Ast.Srepeat _ | Ast.Scall _
  | Ast.Sreturn _ | Ast.Spush _ | Ast.Spop _ ->
      Diag.error Diag.Instantiation
        "only elementary statements may appear inside cobegin/cocycle"

(* Arms of a cocycle, phases non-decreasing. *)
and cocycle_ops env loc arms =
  let min_phase = ref 0 in
  let all = ref [] in
  List.iter
    (fun arm ->
      match arm with
      | Ast.Scobegin (inner, l2) ->
          let ops =
            List.fold_left
              (fun acc s ->
                acc @ [ single_op env ~taken:(!all @ acc) ~min_phase:!min_phase s ])
              [] inner
          in
          (match ops with
          | [] -> ()
          | op :: _ ->
              let p = Inst.op_phase op in
              List.iter
                (fun o ->
                  if Inst.op_phase o <> p then
                    Diag.error ~loc:l2 Diag.Instantiation
                      "cobegin arms inside a cocycle must share a phase")
                ops;
              min_phase := p);
          all := !all @ ops
      | s ->
          let op = single_op env ~taken:!all ~min_phase:!min_phase s in
          min_phase := Inst.op_phase op;
          all := !all @ [ op ])
    arms;
  compose env loc !all

and compile_stmt env sb (s : Ast.stmt) =
  match s with
  | Ast.Sassert _ -> ()  (* verification only *)
  | Ast.Sseq stmts -> List.iter (compile_stmt env sb) stmts
  | Ast.Sregion (stmts, _) -> List.iter (compile_stmt env sb) stmts
  | Ast.Sassign (r, e, loc) -> sb_ops sb (assign_ops env loc ~min_phase:0 r e)
  | Ast.Scobegin (arms, loc) ->
      let ops =
        List.fold_left
          (fun acc s2 -> acc @ [ single_op env ~taken:acc ~min_phase:0 s2 ])
          [] arms
      in
      sb_mi sb (compose env loc ops)
  | Ast.Scocycle (arms, loc) -> sb_mi sb (cocycle_ops env loc arms)
  | Ast.Sdur (s0, seq, loc) -> (
      (* overlap: the long op joins the first microinstruction of the
         sequence *)
      let op0 = single_op env ~min_phase:0 s0 in
      let inner = sb_make "dur$tmp" in
      inner.fresh <- sb.fresh;
      List.iter (compile_stmt env inner) seq;
      sb.fresh <- inner.fresh;
      if inner.done_blocks <> [] then
        Diag.error ~loc Diag.Instantiation
          "dur sequences must be straight-line";
      match List.rev inner.cur_mis with
      | [] -> sb_mi sb [ op0 ]
      | (ops1, n1) :: rest ->
          sb.cur_mis <- List.rev_append ((compose env loc (op0 :: ops1), n1) :: rest) [] @ sb.cur_mis)
  | Ast.Sif (arms, else_, _loc) ->
      let join = sb_fresh sb in
      let rec chain arms =
        match arms with
        | [] ->
            (match else_ with
            | Some stmts -> List.iter (compile_stmt env sb) stmts
            | None -> ());
            sb_finish sb (Select.L_goto join)
        | (t, body) :: rest ->
            let c = test_cond env Loc.dummy t in
            let l_then = sb_fresh sb in
            let l_next = sb_fresh sb in
            sb_finish sb (Select.L_branch (c, l_then));
            sb_start sb l_next;
            (* fallthrough path continues the chain; the branch target gets
               its own block *)
            chain rest;
            sb_start sb l_then;
            List.iter (compile_stmt env sb) body;
            sb_finish sb (Select.L_goto join)
      in
      chain arms;
      sb_start sb join
  | Ast.Swhile (t, _inv, body, _loc) ->
      let head = sb_fresh sb in
      let l_body = sb_fresh sb in
      let exit_ = sb_fresh sb in
      sb_finish sb (Select.L_goto head);
      sb_start sb head;
      let c = test_cond env Loc.dummy t in
      sb_finish sb (Select.L_branch (c, l_body));
      sb_start sb exit_;
      (* the fallthrough of the head is the exit: order blocks so that the
         branch falls through into exit; body comes after *)
      sb_finish sb (Select.L_goto (exit_ ^ "$cont"));
      sb_start sb l_body;
      List.iter (compile_stmt env sb) body;
      sb_finish sb (Select.L_goto head);
      sb_start sb (exit_ ^ "$cont")
  | Ast.Srepeat (body, t, _inv, _loc) ->
      let head = sb_fresh sb in
      sb_finish sb (Select.L_goto head);
      sb_start sb head;
      List.iter (compile_stmt env sb) body;
      let c = test_cond env Loc.dummy t in
      (* until t: loop back when t is false *)
      let c_neg =
        match c with
        | Desc.C_reg_zero (r, v) -> Desc.C_reg_zero (r, not v)
        | Desc.C_flag (f, v) -> Desc.C_flag (f, not v)
        | Desc.C_reg_mask _ | Desc.C_int_pending -> c
      in
      sb_finish sb (Select.L_branch (c_neg, head));
      sb_start sb (sb_fresh sb)
  | Ast.Scall (name, _) ->
      let cont = sb_fresh sb in
      sb_finish sb (Select.L_call ("sproc$" ^ canon name));
      sb_start sb cont
  | Ast.Sreturn _ ->
      sb_finish sb Select.L_return;
      sb_start sb (sb_fresh sb)
  | Ast.Spush (name, v, loc) -> (
      match Hashtbl.find_opt env.objs (canon name) with
      | Some (Ostack { base; ptr; _ }) ->
          let at = env.ctx.Select.at in
          let pre, src = operand_reg env loc ~for_write_temp:false v in
          (* careful: operand may already sit in AT; address goes through AT
             afterwards, so stash the value in scratch2 first if needed *)
          let s2 = scratch2 env in
          let pre, src =
            if src = at then (pre @ move_op env ~min_phase:0 s2 at, s2)
            else (pre, src)
          in
          sb_ops sb
            (pre
            @ Select.emit_const_int env.ctx at base
            @ Select.emit_binop env.ctx at Rtl.A_add at ptr
            @ Select.emit_store env.ctx at src
            @ Select.emit_inc env.ctx ptr ptr)
      | _ -> err ~loc "%S is not a stack" name)
  | Ast.Spop (name, dst, loc) -> (
      match Hashtbl.find_opt env.objs (canon name) with
      | Some (Ostack { base; ptr; _ }) -> (
          match resolve env loc dst with
          | Sreg d, _ ->
              let at = env.ctx.Select.at in
              sb_ops sb
                (Select.emit_dec env.ctx ptr ptr
                @ Select.emit_const_int env.ctx at base
                @ Select.emit_binop env.ctx at Rtl.A_add at ptr
                @ Select.emit_load env.ctx d at)
          | _ -> err ~loc "pop destination must be register-bound")
      | _ -> err ~loc "%S is not a stack" name)

(* -- program ---------------------------------------------------------------------------- *)

let make_env d =
  let ctx = Select.make_ctx d in
  let move_templates =
    Desc.templates_with_sem d Desc.S_move
    |> List.sort (fun a b -> compare a.Desc.t_phase b.Desc.t_phase)
  in
  { d; ctx; objs = Hashtbl.create 32; move_templates }

let instantiate d (p : Ast.program) =
  let env = make_env d in
  List.iter (declare_var env) p.Ast.vars;
  List.iter (declare_const env) p.Ast.consts;
  List.iter (declare_syn env) p.Ast.syns;
  env

let compile (d : Desc.t) (p : Ast.program) :
    Inst.t list * (string * int) list =
  let env = instantiate d p in
  let sb = sb_make "main" in
  (* prologue: materialise ROM constants into their cells *)
  List.iter
    (fun (c : Ast.const_decl) ->
      let reg = machine_reg env c.Ast.c_loc c.Ast.c_reg in
      sb_ops sb
        (Select.emit_const env.ctx reg
           (Bitvec.resize ~width:d.Desc.d_word
              (Bitvec.of_int64 ~width:c.Ast.c_width c.Ast.c_value))))
    p.Ast.consts;
  List.iter (compile_stmt env sb) p.Ast.body;
  sb_finish sb Select.L_halt;
  List.iter
    (fun (pr : Ast.proc) ->
      (* the uses-list must name declared objects *)
      List.iter
        (fun u ->
          if not (Hashtbl.mem env.objs (canon u)) then
            err "procedure %S uses undeclared object %S" pr.Ast.pp_name u)
        pr.Ast.pp_uses;
      sb_start sb ("sproc$" ^ canon pr.Ast.pp_name);
      List.iter (compile_stmt env sb) pr.Ast.pp_body;
      sb_finish sb Select.L_return)
    p.Ast.procs;
  Pipeline.link d (sb_blocks sb)

let parse_compile ?file d src = compile d (Parser.parse ?file src)

let load d (p : Ast.program) =
  let insts, labels = compile d p in
  let sim = Sim.create d in
  Sim.load_store sim insts;
  (sim, labels)
