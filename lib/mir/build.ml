(* Incremental basic-block builder shared by the language frontends. *)

type t = {
  mutable blocks : Mir.block list;  (* reversed *)
  mutable cur_label : string;
  mutable cur_stmts : Mir.stmt list;  (* reversed *)
  mutable fresh : int;
  prefix : string;
}

let make ?(prefix = "L") ~entry () =
  { blocks = []; cur_label = entry; cur_stmts = []; fresh = 0; prefix }

let fresh_label b =
  b.fresh <- b.fresh + 1;
  Printf.sprintf "%s$%d" b.prefix b.fresh

let add b s = b.cur_stmts <- s :: b.cur_stmts

let add_list b stmts = List.iter (add b) stmts

(* Close the current block with [term] and leave the builder without an
   open block; call [start] before adding more statements. *)
let finish b term =
  b.blocks <-
    { Mir.b_label = b.cur_label; b_stmts = List.rev b.cur_stmts; b_term = term }
    :: b.blocks;
  b.cur_stmts <- []

let start b label = b.cur_label <- label

let blocks b = List.rev b.blocks
