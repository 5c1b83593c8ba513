(* YALLL -> MIR.

   Bound registers become physical registers of the target machine; the
   names "mar" and "mbr" always denote the machine's memory registers
   (survey: variables are general-purpose registers "with the exception of
   'mar' and 'mbr'").  Unbound names become virtual registers for the
   allocator.  Literal operands are materialised into a scratch register
   (a fresh virtual one when the program already has symbolic variables,
   the reserved AT otherwise). *)

open Msl_bitvec
open Msl_machine
open Msl_mir
module Diag = Msl_util.Diag

type env = {
  d : Desc.t;
  regs : (string, Mir.reg) Hashtbl.t;
  mutable next_vreg : int;
  mutable vreg_names : (int * string) list;
  use_vregs : bool;
}

let canon = String.lowercase_ascii

let fresh_vreg env name =
  let v = env.next_vreg in
  env.next_vreg <- v + 1;
  env.vreg_names <- (v, name) :: env.vreg_names;
  Mir.Virt v

let make_env d (p : Ast.program) =
  let regs = Hashtbl.create 16 in
  (* which names end up unbound decides the literal-materialisation mode *)
  let unbound =
    List.exists (fun (dec : Ast.decl) -> dec.d_binding = None) p.Ast.decls
  in
  let env = { d; regs; next_vreg = 0; vreg_names = []; use_vregs = unbound } in
  List.iter
    (fun (dec : Ast.decl) ->
      let r =
        match dec.Ast.d_binding with
        | Some m -> (
            match Desc.find_reg_ci d m with
            | Some mr -> Mir.Phys mr.Desc.r_id
            | None ->
                Diag.error ~loc:dec.Ast.d_loc Diag.Semantic
                  "machine %s has no register %S" d.Desc.d_name m)
        | None -> fresh_vreg env dec.Ast.d_name
      in
      Hashtbl.replace regs (canon dec.Ast.d_name) r)
    p.Ast.decls;
  env

let resolve env loc name =
  match Hashtbl.find_opt env.regs (canon name) with
  | Some r -> r
  | None -> (
      (* mar/mbr always denote the machine's own; other unknown names are
         implicitly-declared symbolic variables *)
      match canon name with
      | "mar" | "mbr" -> (
          match Desc.find_reg_ci env.d name with
          | Some mr ->
              let r = Mir.Phys mr.Desc.r_id in
              Hashtbl.replace env.regs (canon name) r;
              r
          | None ->
              Diag.error ~loc Diag.Semantic "machine %s has no %s register"
                env.d.Desc.d_name (canon name))
      | _ ->
          if env.use_vregs then begin
            let r = fresh_vreg env name in
            Hashtbl.replace env.regs (canon name) r;
            r
          end
          else
            Diag.error ~loc Diag.Semantic
              "register %S is not declared (declare it with 'reg', or bind \
               it to a machine register)" name)

(* Materialise a literal into a register; returns (setup stmts, reg). *)
let literal env v =
  let c = Bitvec.of_int64 ~width:env.d.Desc.d_word v in
  let tmp =
    if env.use_vregs then fresh_vreg env (Printf.sprintf "lit%Ld" v)
    else
      match Desc.regs_of_class env.d "at" with
      | r :: _ -> Mir.Phys r.Desc.r_id
      | [] ->
          Diag.error Diag.Semantic "machine %s has no scratch register"
            env.d.Desc.d_name
  in
  ([ Mir.assign tmp (Mir.R_const c) ], tmp)

let operand env loc = function
  | Ast.Reg r -> ([], resolve env loc r)
  | Ast.Lit v -> literal env v

(* -- block construction ----------------------------------------------------- *)

type builder = {
  mutable blocks : Mir.block list;  (* reversed *)
  mutable cur_label : string;
  mutable cur_stmts : Mir.stmt list;  (* reversed *)
  mutable fresh : int;
}

let fresh_label b =
  b.fresh <- b.fresh + 1;
  Printf.sprintf "yl$%d" b.fresh

let finish b term =
  b.blocks <-
    { Mir.b_label = b.cur_label; b_stmts = List.rev b.cur_stmts; b_term = term }
    :: b.blocks;
  b.cur_stmts <- []

let start b label = b.cur_label <- label

let add b stmts = List.iter (fun s -> b.cur_stmts <- s :: b.cur_stmts) stmts

let mask_of_text text =
  let n = String.length text in
  Array.init n (fun i ->
      match text.[n - 1 - i] with
      | '1' -> Desc.Mt
      | '0' -> Desc.Mf
      | _ -> Desc.Mx)

let condition env loc = function
  | Ast.Eq_zero r -> Mir.Zero (resolve env loc r)
  | Ast.Ne_zero r -> Mir.Nonzero (resolve env loc r)
  | Ast.Mask (r, text) -> Mir.Mask_match (resolve env loc r, mask_of_text text)

let binop_stmt env b loc ~set_flags op d a bb =
  let reg = resolve env loc in
  let s1, ra = operand env loc a in
  let s2, rb = operand env loc bb in
  (* two literals would collide on the shared scratch *)
  (match (a, bb, env.use_vregs) with
  | Ast.Lit _, Ast.Lit _, false ->
      Diag.error ~loc Diag.Semantic "at most one literal operand per instruction"
  | _ -> ());
  add b
    (s1 @ s2
    @ [ Mir.Assign { dst = reg d; rv = Mir.R_binop (op, ra, rb); set_flags } ])

let compile_instr env b loc (i : Ast.instr) =
  let reg = resolve env loc in
  match i with
  | Ast.Move (d, Ast.Reg s) -> add b [ Mir.assign (reg d) (Mir.R_copy (reg s)) ]
  | Ast.Move (d, Ast.Lit v) ->
      add b
        [ Mir.assign (reg d)
            (Mir.R_const (Bitvec.of_int64 ~width:env.d.Desc.d_word v)) ]
  | Ast.Binop (op, d, a, bb) -> (
      (* add x,y,1 and sub x,y,1 map to the increment/decrement units *)
      match (op, a, bb) with
      | Rtl.A_add, Ast.Reg a, Ast.Lit 1L ->
          add b [ Mir.assign (reg d) (Mir.R_inc (reg a)) ]
      | Rtl.A_sub, Ast.Reg a, Ast.Lit 1L ->
          add b [ Mir.assign (reg d) (Mir.R_dec (reg a)) ]
      | _ -> binop_stmt env b loc ~set_flags:false op d a bb)
  | Ast.Binop_f (op, d, a, bb) -> binop_stmt env b loc ~set_flags:true op d a bb
  | Ast.Inc (d, s) -> add b [ Mir.assign (reg d) (Mir.R_inc (reg s)) ]
  | Ast.Dec (d, s) -> add b [ Mir.assign (reg d) (Mir.R_dec (reg s)) ]
  | Ast.Neg (d, s) -> add b [ Mir.assign (reg d) (Mir.R_neg (reg s)) ]
  | Ast.Not (d, s) -> add b [ Mir.assign (reg d) (Mir.R_not (reg s)) ]
  | Ast.Shift (op, d, s, n) ->
      add b [ Mir.assign (reg d) (Mir.R_shift_imm (op, reg s, n)) ]
  | Ast.Load (d, a) -> add b [ Mir.assign (reg d) (Mir.R_mem (reg a)) ]
  | Ast.Stor (s, a) -> add b [ Mir.Store { addr = reg a; src = reg s } ]
  | Ast.Jump target ->
      finish b (Mir.Goto target);
      start b (fresh_label b)
  | Ast.Jump_if (target, c) ->
      let cont = fresh_label b in
      finish b (Mir.If (condition env loc c, target, cont));
      start b cont
  | Ast.Call target ->
      let cont = fresh_label b in
      finish b (Mir.Call { proc = target; cont });
      start b cont
  | Ast.Ret ->
      finish b Mir.Ret;
      start b (fresh_label b)
  | Ast.Exit value ->
      (match value with
      | Some v ->
          (* exit-with-value: the result lands in the machine's R0 *)
          let r0 =
            match Desc.find_reg_ci env.d "R0" with
            | Some r -> Mir.Phys r.Desc.r_id
            | None ->
                Diag.error ~loc Diag.Semantic "machine %s has no R0 register"
                  env.d.Desc.d_name
          in
          add b [ Mir.assign r0 (Mir.R_copy (reg v)) ]
      | None -> ());
      finish b Mir.Halt;
      start b (fresh_label b)

let compile (d : Desc.t) (p : Ast.program) : Mir.program =
  let env = make_env d p in
  let b = { blocks = []; cur_label = "start"; cur_stmts = []; fresh = 0 } in
  List.iter
    (fun item ->
      match item with
      | Ast.Label (l, _) ->
          finish b (Mir.Goto l);
          start b l
      | Ast.Instr (i, loc) -> compile_instr env b loc i)
    p.Ast.items;
  (* fall off the end: halt *)
  finish b Mir.Halt;
  {
    Mir.main = List.rev b.blocks;
    procs = [];
    vreg_names = env.vreg_names;
    next_vreg = env.next_vreg;
  }

let parse_compile ?file d src = compile d (Parser.parse ?file src)
