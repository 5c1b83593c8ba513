(* SIMPL -> MIR.

   Variables are machine registers (the survey's §2.1.3 "simple"
   association); the alias declaration is the equivalence statement.  All
   shifts are compiled flag-setting, because the Tucker-Flynn shifter
   exposes the shifted-out bit as the testable UF condition.  Relational
   conditions other than comparison with zero are synthesised with a
   flag-setting subtraction into the reserved scratch register. *)

open Msl_bitvec
open Msl_machine
open Msl_mir
module Diag = Msl_util.Diag
module Loc = Msl_util.Loc

type env = {
  d : Desc.t;
  aliases : (string * string) list;  (* canonical alias -> register name *)
  at : Mir.reg;
}

let canon = String.lowercase_ascii

let make_env d (p : Ast.program) =
  let aliases =
    List.map
      (fun (a, r, loc) ->
        (match Desc.find_reg_ci d r with
        | Some _ -> ()
        | None ->
            Diag.error ~loc Diag.Semantic "machine %s has no register %S"
              d.Desc.d_name r);
        (canon a, r))
      p.Ast.aliases
  in
  let at =
    match Desc.regs_of_class d "at" with
    | r :: _ -> Mir.Phys r.Desc.r_id
    | [] ->
        Diag.error Diag.Semantic "machine %s has no scratch register"
          d.Desc.d_name
  in
  { d; aliases; at }

let resolve env loc name =
  let name =
    match List.assoc_opt (canon name) env.aliases with
    | Some r -> r
    | None -> name
  in
  match Desc.find_reg_ci env.d name with
  | Some r -> Mir.Phys r.Desc.r_id
  | None ->
      Diag.error ~loc Diag.Semantic
        "%S is not a register of machine %s (SIMPL variables are machine \
         registers)" name env.d.Desc.d_name

let const env v = Mir.R_const (Bitvec.of_int64 ~width:env.d.Desc.d_word v)

(* An operand as (setup statements, register); numbers go through AT. *)
let operand_reg env loc = function
  | Ast.Reg r -> ([], resolve env loc r)
  | Ast.Num v -> ([ Mir.assign env.at (const env v) ], env.at)

let fold_binop op a b =
  match op with
  | Ast.Add -> Int64.add a b
  | Ast.Sub -> Int64.sub a b
  | Ast.And -> Int64.logand a b
  | Ast.Or -> Int64.logor a b
  | Ast.Xor -> Int64.logxor a b

let abinop = function
  | Ast.Add -> Rtl.A_add
  | Ast.Sub -> Rtl.A_sub
  | Ast.And -> Rtl.A_and
  | Ast.Or -> Rtl.A_or
  | Ast.Xor -> Rtl.A_xor

(* Compile `expr -> dest`. *)
let assign env b loc (e : Ast.expr) dest =
  let dst = resolve env loc dest in
  match e with
  | Ast.Operand (Ast.Reg r) ->
      Build.add b (Mir.assign dst (Mir.R_copy (resolve env loc r)))
  | Ast.Operand (Ast.Num v) -> Build.add b (Mir.assign dst (const env v))
  | Ast.Binop (op, Ast.Num x, Ast.Num y) ->
      Build.add b (Mir.assign dst (const env (fold_binop op x y)))
  | Ast.Binop (op, a, bb) ->
      let s1, ra = operand_reg env loc a in
      let s2, rb = operand_reg env loc bb in
      Build.add_list b s1;
      Build.add_list b s2;
      Build.add b (Mir.assign dst (Mir.R_binop (abinop op, ra, rb)))
  | Ast.Not (Ast.Num v) -> Build.add b (Mir.assign dst (const env (Int64.lognot v)))
  | Ast.Not (Ast.Reg r) ->
      Build.add b (Mir.assign dst (Mir.R_not (resolve env loc r)))
  | Ast.Neg (Ast.Num v) -> Build.add b (Mir.assign dst (const env (Int64.neg v)))
  | Ast.Neg (Ast.Reg r) ->
      Build.add b (Mir.assign dst (Mir.R_neg (resolve env loc r)))
  | Ast.Shift (a, n) | Ast.Rotate (a, n) ->
      let rot = match e with Ast.Rotate _ -> true | _ -> false in
      let s, ra = operand_reg env loc a in
      Build.add_list b s;
      let op =
        if rot then if n >= 0 then Rtl.A_rol else Rtl.A_ror
        else if n >= 0 then Rtl.A_shl
        else Rtl.A_shr
      in
      if n = 0 then Build.add b (Mir.assign dst (Mir.R_copy ra))
      else
        (* flag-setting: the shifted-out bit becomes the testable UF *)
        Build.add b
          (Mir.Assign
             { dst; rv = Mir.R_shift_imm (op, ra, abs n); set_flags = true })

let flag_of_name loc = function
  | "UF" -> Rtl.U
  | "CF" | "CARRY" -> Rtl.C
  | "ZF" | "ZERO" -> Rtl.Z
  | "NF" -> Rtl.N
  | "VF" | "OVERFLOW" -> Rtl.V
  | f -> Diag.error ~loc Diag.Semantic "unknown condition flag %S" f

(* Compile a condition: returns (setup stmts, MIR condition), or a
   statically-known boolean when both sides are numbers. *)
let condition env loc (c : Ast.cond) :
    [ `Cond of Mir.stmt list * Mir.cond | `Known of bool ] =
  match c with
  | Ast.Flag (f, v) ->
      let fl = flag_of_name loc f in
      `Cond ([], if v then Mir.Flag_set fl else Mir.Flag_clear fl)
  | Ast.Rel (op, Ast.Num x, Ast.Num y) ->
      let r =
        match op with
        | Ast.Req -> x = y
        | Ast.Rne -> x <> y
        | Ast.Rlt -> Int64.unsigned_compare x y < 0
        | Ast.Rle -> Int64.unsigned_compare x y <= 0
        | Ast.Rgt -> Int64.unsigned_compare x y > 0
        | Ast.Rge -> Int64.unsigned_compare x y >= 0
      in
      `Known r
  | Ast.Rel (op, a, bb) -> (
      match (op, a, bb) with
      | Ast.Req, Ast.Reg x, Ast.Num 0L | Ast.Req, Ast.Num 0L, Ast.Reg x ->
          `Cond ([], Mir.Zero (resolve env loc x))
      | Ast.Rne, Ast.Reg x, Ast.Num 0L | Ast.Rne, Ast.Num 0L, Ast.Reg x ->
          `Cond ([], Mir.Nonzero (resolve env loc x))
      | _ ->
          (* x op y via a flag-setting subtraction into AT:
             =  : Z set     <> : Z clear
             <  : C set (borrow)      >= : C clear
             >  : y - x borrows       <= : y - x does not borrow *)
          let sub lhs rhs =
            let s1, rl = operand_reg env loc lhs in
            let s2, rr =
              match rhs with
              | Ast.Reg r -> ([], resolve env loc r)
              | Ast.Num v ->
                  (* the scratch already holds lhs when lhs was a number;
                     a second number needs folding, handled above *)
                  ([ Mir.assign env.at (const env v) ], env.at)
            in
            (* when both operands needed AT the program is ill-formed *)
            (match (lhs, rhs) with
            | Ast.Num _, Ast.Num _ -> assert false
            | _ -> ());
            s1 @ s2
            @ [
                Mir.Assign
                  {
                    dst = env.at;
                    rv = Mir.R_binop (Rtl.A_sub, rl, rr);
                    set_flags = true;
                  };
              ]
          in
          let direct flag_if =
            let stmts = sub a bb in
            `Cond (stmts, flag_if)
          in
          let swapped flag_if =
            let stmts = sub bb a in
            `Cond (stmts, flag_if)
          in
          (match op with
          | Ast.Req -> direct (Mir.Flag_set Rtl.Z)
          | Ast.Rne -> direct (Mir.Flag_clear Rtl.Z)
          | Ast.Rlt -> direct (Mir.Flag_set Rtl.C)
          | Ast.Rge -> direct (Mir.Flag_clear Rtl.C)
          | Ast.Rgt -> swapped (Mir.Flag_set Rtl.C)
          | Ast.Rle -> swapped (Mir.Flag_clear Rtl.C)))

let rec compile_stmt env b (s : Ast.stmt) =
  match s with
  | Ast.Block stmts -> List.iter (compile_stmt env b) stmts
  | Ast.Assign { expr; dest; loc } -> assign env b loc expr dest
  | Ast.Read { addr; dest; loc } ->
      Build.add b
        (Mir.assign (resolve env loc dest) (Mir.R_mem (resolve env loc addr)))
  | Ast.Write { src; addr; loc } ->
      Build.add b
        (Mir.Store { addr = resolve env loc addr; src = resolve env loc src })
  | Ast.Call (name, _loc) ->
      let cont = Build.fresh_label b in
      Build.finish b (Mir.Call { proc = "proc$" ^ name; cont });
      Build.start b cont
  | Ast.If (c, s1, s2) -> compile_if env b c s1 s2
  | Ast.While (c, body) -> compile_while env b c body
  | Ast.For { var; from_; to_; body; loc } ->
      compile_for env b loc var from_ to_ body
  | Ast.Case { sel; alts; loc } -> compile_case env b loc sel alts

and compile_if env b c s1 s2 =
  match condition env Loc.dummy c with
  | `Known true -> compile_stmt env b s1
  | `Known false -> (
      match s2 with Some s -> compile_stmt env b s | None -> ())
  | `Cond (pre, mc) ->
      Build.add_list b pre;
      let l_then = Build.fresh_label b in
      let l_else = Build.fresh_label b in
      let l_join = Build.fresh_label b in
      Build.finish b (Mir.If (mc, l_then, l_else));
      Build.start b l_then;
      compile_stmt env b s1;
      Build.finish b (Mir.Goto l_join);
      Build.start b l_else;
      (match s2 with Some s -> compile_stmt env b s | None -> ());
      Build.finish b (Mir.Goto l_join);
      Build.start b l_join

and compile_while env b c body =
  let l_head = Build.fresh_label b in
  let l_body = Build.fresh_label b in
  let l_exit = Build.fresh_label b in
  Build.finish b (Mir.Goto l_head);
  Build.start b l_head;
  (match condition env Loc.dummy c with
  | `Known true ->
      (* infinite loop: still compile the body *)
      Build.finish b (Mir.Goto l_body)
  | `Known false -> Build.finish b (Mir.Goto l_exit)
  | `Cond (pre, mc) ->
      Build.add_list b pre;
      Build.finish b (Mir.If (mc, l_body, l_exit)));
  Build.start b l_body;
  compile_stmt env b body;
  Build.finish b (Mir.Goto l_head);
  Build.start b l_exit

and compile_for env b loc var from_ to_ body =
  let v = resolve env loc var in
  (match from_ with
  | Ast.Num n -> Build.add b (Mir.assign v (const env n))
  | Ast.Reg r -> Build.add b (Mir.assign v (Mir.R_copy (resolve env loc r))));
  let l_head = Build.fresh_label b in
  let l_body = Build.fresh_label b in
  let l_exit = Build.fresh_label b in
  Build.finish b (Mir.Goto l_head);
  Build.start b l_head;
  (* continue while v <= to_, i.e. while (to_ - v) does not borrow *)
  let pre_to =
    match to_ with
    | Ast.Num n -> [ Mir.assign env.at (const env n) ]
    | Ast.Reg r -> [ Mir.assign env.at (Mir.R_copy (resolve env loc r)) ]
  in
  Build.add_list b pre_to;
  Build.add b
    (Mir.Assign
       { dst = env.at; rv = Mir.R_binop (Rtl.A_sub, env.at, v); set_flags = true });
  Build.finish b (Mir.If (Mir.Flag_clear Rtl.C, l_body, l_exit));
  Build.start b l_body;
  compile_stmt env b body;
  Build.add b (Mir.assign v (Mir.R_inc v));
  Build.finish b (Mir.Goto l_head);
  Build.start b l_exit

and compile_case env b loc sel alts =
  let n = List.length alts in
  if n = 0 then Diag.error ~loc Diag.Semantic "empty case statement";
  if n = 1 then
    (* a one-armed case is just its arm *)
    compile_stmt env b (List.hd alts)
  else begin
  let bits =
    let rec log2 v = if v <= 1 then 0 else 1 + log2 (v / 2) in
    log2 n
  in
  if 1 lsl bits <> n then
    Diag.error ~loc Diag.Semantic
      "case needs a power-of-two number of alternatives (got %d): the \
       multiway branch dispatches on the selector's low bits" n;
  let sel = resolve env loc sel in
  let l_join = Build.fresh_label b in
  let alt_labels = List.map (fun _ -> Build.fresh_label b) alts in
  Build.finish b
    (Mir.Switch { sel; hi = bits - 1; lo = 0; targets = alt_labels });
  List.iter2
    (fun l alt ->
      Build.start b l;
      compile_stmt env b alt;
      Build.finish b (Mir.Goto l_join))
    alt_labels alts;
  Build.start b l_join
  end

let compile (d : Desc.t) (p : Ast.program) : Mir.program =
  let env = make_env d p in
  let b = Build.make ~prefix:"sl" ~entry:"main" () in
  compile_stmt env b p.Ast.body;
  Build.finish b Mir.Halt;
  let procs =
    List.map
      (fun (pr : Ast.proc) ->
        let pb =
          Build.make ~prefix:("sp$" ^ pr.Ast.pr_name)
            ~entry:("proc$" ^ pr.Ast.pr_name ^ "$entry") ()
        in
        compile_stmt env pb pr.Ast.pr_body;
        Build.finish pb Mir.Ret;
        { Mir.p_name = "proc$" ^ pr.Ast.pr_name; p_blocks = Build.blocks pb })
      p.Ast.procs
  in
  {
    Mir.main = Build.blocks b;
    procs;
    vreg_names = [];
    next_vreg = 0;
  }

let parse_compile ?file d src = compile d (Parser.parse ?file src)
