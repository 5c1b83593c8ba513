(* Symbolic bitvector evaluation of microinstruction words.

   The translation validator (Msl_mir.Tv) needs to prove that a compacted,
   reordered, packed word sequence computes the same final register, flag
   and memory state as the sequential schedule it came from.  This module
   supplies the machinery: hash-consed terms mirroring the [Bitvec]
   formulas the simulator evaluates, smart constructors that normalize as
   they build (constant folding through [Rtl.eval_abinop], ALU results
   rewritten to pure add/sub/logic nodes, flag extraction reduced to
   zero-tests and sign slices), a phase-accurate symbolic executor that
   reproduces [Sim.exec_phase]'s transport-delay semantics term by term
   over lazy stores (a register's input is made on first read, and only
   registers either side touched are compared), and a layered decision
   procedure: identical hash-consed terms are equal
   by construction; small memory-free goals are settled by exhaustive
   concrete evaluation over the live input bits; everything else is
   sampled under a seeded store, which can refute with a concrete
   counterexample but never prove — that residue is [Unknown].

   Hash-consing is per-[ctx], not global: validation runs inside the batch
   service's worker domains, and a shared table would be a data race. *)

open Msl_bitvec
module Diag = Msl_util.Diag

type node =
  | Var of string  (* a symbolic register/flag input of the region *)
  | Const of Bitvec.t
  | Add of t * t
  | Sub of t * t
  | And of t * t
  | Or of t * t
  | Xor of t * t
  | Mul of t * t
  | Not of t
  | Slice of t * int * int  (* bits hi..lo *)
  | Concat of t * t
  | Zext of t  (* zero-extend to [width]; never truncates (that is a Slice) *)
  | Mux of t * t * t  (* if t1 <> 0 then t2 else t3 *)
  | Alu of Rtl.abinop * t * t  (* residual shifter ops (shl/shr/sra/rol/ror) *)
  | Alu_flag of Rtl.flag * Rtl.abinop * t * t * t  (* flag of op a b, carry-in *)
  | Mem_init  (* the unconstrained initial memory *)
  | Mem_var of string  (* havocked memory (after a microsubroutine call) *)
  | Mem_store of t * t * t  (* memory, 62-bit address, word-width value *)
  | Mem_sel of t * t  (* memory, 62-bit address *)

and t = { id : int; width : int; node : node; has_mem : bool }

(* Structural keys: two smart-constructor calls with identical children
   always return the same term, so term identity is semantic identity up
   to the normalizations below. *)
type key =
  | Kvar of string * int
  | Kmemvar of string
  | Kconst of int * int64
  | K1 of int * int
  | K2 of int * int * int
  | K3 of int * int * int * int
  | Kslice of int * int * int
  | Kzext of int * int

type ctx = { tbl : (key, t) Hashtbl.t; mutable next : int }

(* TV makes one context per block, rewrite and region; with lazy stores
   a block's holds a median of 5 terms over the examples corpus.  The table starts small enough for the
   minor heap: an array over 256 words goes straight to the major heap,
   and every young term stored into it is promoted at the next minor
   collection.  A context shared across blocks outgrows it, which is
   why contexts stay per block.  [Hashtbl] grows the table as needed. *)
let create_ctx () = { tbl = Hashtbl.create 64; next = 0 }

let mk ctx ~width ~has_mem node key =
  match Hashtbl.find_opt ctx.tbl key with
  | Some t -> t
  | None ->
      let t = { id = ctx.next; width; node; has_mem } in
      ctx.next <- ctx.next + 1;
      Hashtbl.add ctx.tbl key t;
      t

let abinop_index = function
  | Rtl.A_add -> 0 | Rtl.A_adc -> 1 | Rtl.A_sub -> 2 | Rtl.A_and -> 3
  | Rtl.A_or -> 4 | Rtl.A_xor -> 5 | Rtl.A_mul -> 6 | Rtl.A_shl -> 7
  | Rtl.A_shr -> 8 | Rtl.A_sra -> 9 | Rtl.A_rol -> 10 | Rtl.A_ror -> 11

(* node tags for keys *)
let t_add = 0 and t_sub = 1 and t_and = 2 and t_or = 3 and t_xor = 4
and t_mul = 5 and t_not = 6 and t_concat = 7 and t_mux = 8
and t_store = 9 and t_sel = 10

let t_alu op = 20 + abinop_index op
let t_aluf fl op = 40 + (Rtl.flag_index fl * 12) + abinop_index op

(* -- smart constructors -------------------------------------------------- *)

let var ctx name width = mk ctx ~width ~has_mem:false (Var name) (Kvar (name, width))
let const ctx v =
  mk ctx ~width:(Bitvec.width v) ~has_mem:false (Const v)
    (Kconst (Bitvec.width v, Bitvec.to_int64 v))

let false_ ctx = const ctx (Bitvec.of_bool false)
let true_ ctx = const ctx (Bitvec.of_bool true)

let as_const t = match t.node with Const v -> Some v | _ -> None
let is_mem t =
  match t.node with Mem_init | Mem_var _ | Mem_store _ -> true | _ -> false

let chk name a b =
  if a.width <> b.width then
    invalid_arg (Printf.sprintf "Symexec.%s: width mismatch (%d vs %d)" name
                   a.width b.width)

let bin2 ctx tag ~commute a b =
  (* shared shape for the binary operators; commutative ones order their
     children by id so both association orders meet in one term *)
  let a, b = if commute && a.id > b.id then (b, a) else (a, b) in
  mk ctx ~width:a.width ~has_mem:(a.has_mem || b.has_mem) tag
    (K2 ((match tag with
          | Add _ -> t_add | Sub _ -> t_sub | And _ -> t_and
          | Or _ -> t_or | Xor _ -> t_xor | Mul _ -> t_mul
          | _ -> assert false), a.id, b.id))

let add ctx a b =
  chk "add" a b;
  match (as_const a, as_const b) with
  | Some x, Some y -> const ctx (Bitvec.add x y)
  | Some x, None when Bitvec.is_zero x -> b
  | None, Some y when Bitvec.is_zero y -> a
  | _ -> bin2 ctx (Add (a, b)) ~commute:true a b

let sub ctx a b =
  chk "sub" a b;
  if a.id = b.id then const ctx (Bitvec.zero a.width)
  else
    match (as_const a, as_const b) with
    | Some x, Some y -> const ctx (Bitvec.sub x y)
    | None, Some y when Bitvec.is_zero y -> a
    | _ -> bin2 ctx (Sub (a, b)) ~commute:false a b

let logand ctx a b =
  chk "and" a b;
  if a.id = b.id then a
  else
    match (as_const a, as_const b) with
    | Some x, Some y -> const ctx (Bitvec.logand x y)
    | Some x, None when Bitvec.is_zero x -> a
    | None, Some y when Bitvec.is_zero y -> b
    | Some x, None when Bitvec.equal x (Bitvec.ones a.width) -> b
    | None, Some y when Bitvec.equal y (Bitvec.ones a.width) -> a
    | _ -> bin2 ctx (And (a, b)) ~commute:true a b

let logor ctx a b =
  chk "or" a b;
  if a.id = b.id then a
  else
    match (as_const a, as_const b) with
    | Some x, Some y -> const ctx (Bitvec.logor x y)
    | Some x, None when Bitvec.is_zero x -> b
    | None, Some y when Bitvec.is_zero y -> a
    | Some x, None when Bitvec.equal x (Bitvec.ones a.width) -> a
    | None, Some y when Bitvec.equal y (Bitvec.ones a.width) -> b
    | _ -> bin2 ctx (Or (a, b)) ~commute:true a b

let logxor ctx a b =
  chk "xor" a b;
  if a.id = b.id then const ctx (Bitvec.zero a.width)
  else
    match (as_const a, as_const b) with
    | Some x, Some y -> const ctx (Bitvec.logxor x y)
    | Some x, None when Bitvec.is_zero x -> b
    | None, Some y when Bitvec.is_zero y -> a
    | _ -> bin2 ctx (Xor (a, b)) ~commute:true a b

let mul ctx a b =
  chk "mul" a b;
  match (as_const a, as_const b) with
  | Some x, Some y -> const ctx (Bitvec.mul x y)
  | Some x, None when Bitvec.is_zero x -> a
  | None, Some y when Bitvec.is_zero y -> b
  | Some x, None when Bitvec.equal x (Bitvec.of_int ~width:a.width 1) -> b
  | None, Some y when Bitvec.equal y (Bitvec.of_int ~width:a.width 1) -> a
  | _ -> bin2 ctx (Mul (a, b)) ~commute:true a b

let lognot ctx a =
  match a.node with
  | Const v -> const ctx (Bitvec.lognot v)
  | Not x -> x
  | _ -> mk ctx ~width:a.width ~has_mem:a.has_mem (Not a) (K1 (t_not, a.id))

let rec slice ctx a ~hi ~lo =
  if not (a.width > hi && hi >= lo && lo >= 0) then
    invalid_arg
      (Printf.sprintf "Symexec.slice: bits %d..%d of a %d-bit term" hi lo
         a.width);
  if lo = 0 && hi = a.width - 1 then a
  else
    match a.node with
    | Const v -> const ctx (Bitvec.extract ~hi ~lo v)
    | Slice (x, _, l2) -> slice ctx x ~hi:(l2 + hi) ~lo:(l2 + lo)
    | Zext x when hi < x.width -> slice ctx x ~hi ~lo
    | Zext x when lo >= x.width -> const ctx (Bitvec.zero (hi - lo + 1))
    | _ ->
        mk ctx ~width:(hi - lo + 1) ~has_mem:a.has_mem (Slice (a, hi, lo))
          (Kslice (a.id, hi, lo))

(* [zext] doubles as [Bitvec.resize]: truncation is canonicalized to a
   slice so the two spellings of "low w bits" meet in one term. *)
and zext ctx w a =
  if w = a.width then a
  else if w < a.width then slice ctx a ~hi:(w - 1) ~lo:0
  else
    match a.node with
    | Const v -> const ctx (Bitvec.resize ~width:w v)
    | Zext x -> zext ctx w x
    | _ -> mk ctx ~width:w ~has_mem:a.has_mem (Zext a) (Kzext (w, a.id))

let concat ctx a b =
  if a.width + b.width > 64 then
    invalid_arg "Symexec.concat: combined width exceeds 64";
  match (as_const a, as_const b) with
  | Some x, Some y -> const ctx (Bitvec.concat x y)
  | _ ->
      mk ctx ~width:(a.width + b.width) ~has_mem:(a.has_mem || b.has_mem)
        (Concat (a, b)) (K2 (t_concat, a.id, b.id))

let mux ctx c a b =
  chk "mux" a b;
  match as_const c with
  | Some v -> if Bitvec.is_zero v then b else a
  | None ->
      if a.id = b.id then a
      else
        mk ctx ~width:a.width
          ~has_mem:(c.has_mem || a.has_mem || b.has_mem)
          (Mux (c, a, b)) (K3 (t_mux, c.id, a.id, b.id))

(* The ALU result, normalized: the ring/lattice operators become pure
   nodes (so any dataflow-equal schedule rebuilds the identical term),
   adc becomes two adds of the carry, and only the shifter family — whose
   amount operand is data — survives as an opaque [Alu] node. *)
let alu ctx op a b ~carry =
  chk "alu" a b;
  match op with
  | Rtl.A_add -> add ctx a b
  | Rtl.A_adc -> add ctx (add ctx a b) (zext ctx a.width carry)
  | Rtl.A_sub -> sub ctx a b
  | Rtl.A_and -> logand ctx a b
  | Rtl.A_or -> logor ctx a b
  | Rtl.A_xor -> logxor ctx a b
  | Rtl.A_mul -> mul ctx a b
  | Rtl.A_shl | Rtl.A_shr | Rtl.A_sra | Rtl.A_rol | Rtl.A_ror -> (
      match (as_const a, as_const b) with
      | Some x, Some y ->
          const ctx (Rtl.eval_abinop_result op x y ~carry_in:false)
      | _ ->
          mk ctx ~width:a.width ~has_mem:(a.has_mem || b.has_mem)
            (Alu (op, a, b)) (K2 (t_alu op, a.id, b.id)))

let is_zero_term ctx r = mux ctx r (false_ ctx) (true_ ctx)

(* The flags of [op a b] when its operands (and, for adc, its carry-in:
   only adc reads it) are constant: one run of the concrete ALU. *)
let const_flags op a b ~carry =
  chk "alu_flag" a b;
  match (as_const a, as_const b, as_const carry) with
  | Some x, Some y, c when op <> Rtl.A_adc || Option.is_some c ->
      let carry_in = Option.fold ~none:false ~some:Bitvec.lsb c in
      Some (snd (Rtl.eval_abinop op x y ~carry_in))
  | _ -> None

(* One condition flag of [op a b] with operands [const_flags] cannot
   fold, mirroring [Rtl.eval_abinop] + [Bitvec.flags_of]: Z and N are
   functions of the result alone; the ops whose flag base is [no_flags]
   pin C/V/U to false; shl/shr report the same shifted-out bit in both C
   and U, so C canonicalizes onto U. *)
let alu_flag ctx fl op a b ~carry =
  match fl with
  | Rtl.Z -> is_zero_term ctx (alu ctx op a b ~carry)
  | Rtl.N ->
      let r = alu ctx op a b ~carry in
      slice ctx r ~hi:(r.width - 1) ~lo:(r.width - 1)
  | Rtl.C | Rtl.V | Rtl.U -> (
      match op with
      | Rtl.A_and | Rtl.A_or | Rtl.A_xor | Rtl.A_sra | Rtl.A_rol
      | Rtl.A_ror ->
          false_ ctx
      | Rtl.A_add | Rtl.A_sub | Rtl.A_mul | Rtl.A_adc ->
          if fl = Rtl.U then false_ ctx
          else
            let carry =
              if op = Rtl.A_adc then carry else false_ ctx
            in
            mk ctx ~width:1
              ~has_mem:(a.has_mem || b.has_mem || carry.has_mem)
              (Alu_flag (fl, op, a, b, carry))
              (K3 (t_aluf fl op, a.id, b.id, carry.id))
      | Rtl.A_shl | Rtl.A_shr ->
          if fl = Rtl.V then false_ ctx
          else
            (* C = U = the shifted-out bit *)
            let fl = Rtl.U in
            mk ctx ~width:1 ~has_mem:(a.has_mem || b.has_mem)
              (Alu_flag (fl, op, a, b, false_ ctx))
              (K3 (t_aluf fl op, a.id, b.id, (false_ ctx).id)))

(* -- memory terms --------------------------------------------------------- *)

(* A memory term's [width] is the memory word width; addresses are 62-bit
   (mirroring [Sim]'s resize-then-[to_int]). *)
let mem_init ctx ~word =
  mk ctx ~width:word ~has_mem:true Mem_init (Kconst (-1, Int64.of_int word))

let mem_var ctx name ~word =
  mk ctx ~width:word ~has_mem:true (Mem_var name) (Kmemvar name)

let mem_store ctx m addr v =
  if addr.width <> 62 then invalid_arg "Symexec.mem_store: address width";
  let v = zext ctx m.width v in
  mk ctx ~width:m.width ~has_mem:true (Mem_store (m, addr, v))
    (K3 (t_store, m.id, addr.id, v.id))

let mem_sel ctx m addr =
  if addr.width <> 62 then invalid_arg "Symexec.mem_sel: address width";
  match m.node with
  | Mem_store (_, a2, v) when a2.id = addr.id -> v  (* read of the last store *)
  | _ -> mk ctx ~width:m.width ~has_mem:true (Mem_sel (m, addr))
           (K2 (t_sel, m.id, addr.id))

(* -- concrete evaluation --------------------------------------------------- *)

type env = {
  e_var : string -> Bitvec.t;  (* resized to the variable's width *)
  e_mem : int -> int64;  (* initial memory, by word address *)
}

let eval env t0 =
  let memo : (int, Bitvec.t) Hashtbl.t = Hashtbl.create 64 in
  let rec go t =
    match Hashtbl.find_opt memo t.id with
    | Some v -> v
    | None ->
        let v = compute t in
        Hashtbl.add memo t.id v;
        v
  and compute t =
    match t.node with
    | Var n -> Bitvec.resize ~width:t.width (env.e_var n)
    | Const v -> v
    | Add (a, b) -> Bitvec.add (go a) (go b)
    | Sub (a, b) -> Bitvec.sub (go a) (go b)
    | And (a, b) -> Bitvec.logand (go a) (go b)
    | Or (a, b) -> Bitvec.logor (go a) (go b)
    | Xor (a, b) -> Bitvec.logxor (go a) (go b)
    | Mul (a, b) -> Bitvec.mul (go a) (go b)
    | Not a -> Bitvec.lognot (go a)
    | Slice (a, hi, lo) -> Bitvec.extract ~hi ~lo (go a)
    | Concat (a, b) -> Bitvec.concat (go a) (go b)
    | Zext a -> Bitvec.resize ~width:t.width (go a)
    | Mux (c, a, b) -> if Bitvec.is_zero (go c) then go b else go a
    | Alu (op, a, b) -> Rtl.eval_abinop_result op (go a) (go b) ~carry_in:false
    | Alu_flag (fl, op, a, b, cin) ->
        let _, f =
          Rtl.eval_abinop op (go a) (go b) ~carry_in:(Bitvec.lsb (go cin))
        in
        Bitvec.of_bool
          (match fl with
          | Rtl.C -> f.Bitvec.carry
          | Rtl.V -> f.Bitvec.overflow
          | Rtl.Z -> f.Bitvec.zero
          | Rtl.N -> f.Bitvec.negative
          | Rtl.U -> f.Bitvec.shifted_out)
    | Mem_sel (m, a) ->
        let addr = Bitvec.to_int (go a) in
        mem_lookup m addr
    | Mem_init | Mem_var _ | Mem_store _ ->
        invalid_arg "Symexec.eval: memory term has no scalar value"
  and mem_lookup m addr =
    match m.node with
    | Mem_store (m', a, v) ->
        if Bitvec.to_int (go a) = addr then go v else mem_lookup m' addr
    | Mem_init | Mem_var _ ->
        Bitvec.resize ~width:m.width (Bitvec.of_int64 ~width:64 (env.e_mem addr))
    | _ -> invalid_arg "Symexec.eval: ill-formed memory term"
  in
  go t0

(* Semantic comparison of two memory terms under [env]: equal at every
   address either side writes (elsewhere both fall through to the same
   initial memory, except across distinct havoc variables — those only
   ever arise as the *same* variable on both sides). *)
let mem_equal env m1 m2 =
  let rec addrs acc m =
    match m.node with
    | Mem_store (m', a, _) -> addrs (Bitvec.to_int (eval env a) :: acc) m'
    | _ -> acc
  in
  let rec base m =
    match m.node with Mem_store (m', _, _) -> base m' | _ -> m
  in
  let lookup m addr =
    let rec go m =
      match m.node with
      | Mem_store (m', a, v) ->
          if Bitvec.to_int (eval env a) = addr then eval env v else go m'
      | _ -> Bitvec.resize ~width:m.width (Bitvec.of_int64 ~width:64 (env.e_mem addr))
    in
    go m
  in
  (match ((base m1).node, (base m2).node) with
  | Mem_init, Mem_init -> true
  | Mem_var a, Mem_var b -> a = b
  | _ -> false)
  &&
  let all =
    List.sort_uniq compare (addrs (addrs [] m1) m2)
  in
  List.for_all (fun a -> Bitvec.equal (lookup m1 a) (lookup m2 a)) all

let equal_under env a b =
  if is_mem a || is_mem b then is_mem a && is_mem b && mem_equal env a b
  else a.width = b.width && Bitvec.equal (eval env a) (eval env b)

(* -- the decision layer ---------------------------------------------------- *)

type assignment = (string * Bitvec.t) list

type verdict = Proved | Refuted of assignment | Unknown

let term_vars t0 =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec go t =
    if not (Hashtbl.mem seen t.id) then begin
      Hashtbl.add seen t.id ();
      match t.node with
      | Var n -> acc := (n, t.width) :: !acc
      | Const _ | Mem_init | Mem_var _ -> ()
      | Not a | Zext a -> go a
      | Slice (a, _, _) -> go a
      | Add (a, b) | Sub (a, b) | And (a, b) | Or (a, b) | Xor (a, b)
      | Mul (a, b) | Concat (a, b) | Alu (_, a, b) | Mem_sel (a, b) ->
          go a; go b
      | Mux (a, b, c) | Alu_flag (_, _, a, b, c) | Mem_store (a, b, c) ->
          go a; go b; go c
    end
  in
  go t0;
  !acc

(* xorshift64*, plus a splitmix-style hash for sampled initial memory;
   both deterministic in the seed so refutations replay. *)
let rng_next st =
  let x = !st in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  st := x;
  x

let hash_mem ~seed ~sample addr =
  let z =
    Int64.add
      (Int64.mul (Int64.of_int ((seed * 1009) + (sample * 31) + addr))
         0x9E3779B97F4A7C15L)
      0xBF58476D1CE4E5B9L
  in
  let z = Int64.logxor z (Int64.shift_right_logical z 30) in
  Int64.mul z 0x94D049BB133111EBL

let env_of assignment ~mem =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (n, v) -> Hashtbl.replace tbl n v) assignment;
  {
    e_var =
      (fun n ->
        match Hashtbl.find_opt tbl n with
        | Some v -> v
        | None -> Bitvec.zero 1);
    e_mem = mem;
  }

let decide ?(budget_bits = 16) ?(samples = 64) ?(seed = 0) pairs =
  let pairs = List.filter (fun (a, b) -> a.id <> b.id) pairs in
  if pairs = [] then Proved
  else begin
    let vars =
      List.sort_uniq compare
        (List.concat_map (fun (a, b) -> term_vars a @ term_vars b) pairs)
    in
    let any_mem = List.exists (fun (a, b) -> a.has_mem || b.has_mem) pairs in
    let total_bits = List.fold_left (fun n (_, w) -> n + w) 0 vars in
    let check env = List.for_all (fun (a, b) -> equal_under env a b) pairs in
    if (not any_mem) && total_bits <= budget_bits then begin
      (* exhaustive: a genuine proof over every live input bit *)
      let n = 1 lsl total_bits in
      let rec loop i =
        if i >= n then Proved
        else begin
          let assignment =
            let bit = ref 0 in
            List.map
              (fun (name, w) ->
                let v = (i lsr !bit) land ((1 lsl w) - 1) in
                bit := !bit + w;
                (name, Bitvec.of_int ~width:w v))
              vars
          in
          let env = env_of assignment ~mem:(fun _ -> 0L) in
          if check env then loop (i + 1) else Refuted assignment
        end
      in
      loop 0
    end
    else begin
      (* sampling: sound for refutation only.  Sample 0 is the all-zeros
         store and even samples keep memory zeroed, so most
         counterexamples replay directly on a freshly reset simulator. *)
      let st = ref (Int64.of_int ((seed * 2654435761) + 1)) in
      let rec loop k =
        if k >= samples then Unknown
        else begin
          let assignment =
            List.map
              (fun (name, w) ->
                let v =
                  if k = 0 then Bitvec.zero w
                  else if k = 1 then Bitvec.ones w
                  else Bitvec.of_int64 ~width:w (rng_next st)
                in
                (name, v))
              vars
          in
          let mem =
            if k land 1 = 0 then fun _ -> 0L
            else hash_mem ~seed ~sample:k
          in
          let env = env_of assignment ~mem in
          if check env then loop (k + 1) else Refuted assignment
        end
      in
      loop 0
    end
  end

(* -- the symbolic store and word executor ----------------------------------- *)

(* A store is lazy: a register or flag slot the block has neither read
   nor written holds [unset], and its input [Var] is made under the
   store's current prefix on first read.  Most blocks touch a few of a
   machine's registers, so a proof pays only for those. *)
type store = {
  st_regs : t array;  (* by register id, each of its declared width *)
  st_flags : t array;  (* C V Z N U, 1-bit each *)
  mutable st_prefix : string;  (* of the input names: "" or a havoc's *)
  mutable st_mem : t;
  mutable st_acks : int;  (* Int_ack commits observed *)
}

let unset = { id = -1; width = 0; node = Var ""; has_mem = false }

let reg_var_name name = "r:" ^ name
let flag_var_name fl = "f:" ^ Rtl.flag_name fl

let input ctx s name width = var ctx (s.st_prefix ^ name) width

let reg ctx (d : Desc.t) s i =
  if s.st_regs.(i) == unset then begin
    let r = d.Desc.d_regs.(i) in
    s.st_regs.(i) <- input ctx s (reg_var_name r.Desc.r_name) r.Desc.r_width
  end;
  s.st_regs.(i)

let flag_at ctx s i =
  if s.st_flags.(i) == unset then
    s.st_flags.(i) <- input ctx s (flag_var_name (List.nth Rtl.all_flags i)) 1;
  s.st_flags.(i)

let flag ctx s f = flag_at ctx s (Rtl.flag_index f)
let acks s = s.st_acks

let init_store ctx (d : Desc.t) =
  {
    st_regs = Array.make (Array.length d.Desc.d_regs) unset;
    st_flags = Array.make 5 unset;
    st_prefix = "";
    st_mem = mem_init ctx ~word:d.Desc.d_word;
    st_acks = 0;
  }

let copy_store s =
  { s with st_regs = Array.copy s.st_regs; st_flags = Array.copy s.st_flags }

(* A sequencer condition as a 1-bit term over the store, mirroring
   [Sim.eval_cond].  [C_int_pending] is not a function of the store (it
   reads the interrupt line), so it has no term. *)
let cond_term ctx d (s : store) = function
  | Desc.C_flag (f, v) ->
      let t = flag ctx s f in
      Some (if v then t else lognot ctx t)
  | Desc.C_reg_zero (r, v) ->
      if r < 0 || r >= Array.length s.st_regs then None
      else
        let z = is_zero_term ctx (reg ctx d s r) in
        Some (if v then z else lognot ctx z)
  | Desc.C_reg_mask (r, mask) ->
      if r < 0 || r >= Array.length s.st_regs then None
      else begin
        let v = reg ctx d s r in
        let n = min (Array.length mask) v.width in
        let acc = ref (true_ ctx) in
        for i = 0 to n - 1 do
          match mask.(i) with
          | Desc.Mx -> ()
          | Desc.Mt -> acc := logand ctx !acc (slice ctx v ~hi:i ~lo:i)
          | Desc.Mf ->
              acc := logand ctx !acc (lognot ctx (slice ctx v ~hi:i ~lo:i))
        done;
        Some !acc
      end
  | Desc.C_int_pending -> None

(* Replace every component with fresh inputs (used after a microsubroutine
   call, whose effects are unmodeled but identical on both sides): the
   slots go back to [unset] and read under the new prefix. *)
let havoc ~prefix ctx (d : Desc.t) s =
  Array.fill s.st_regs 0 (Array.length s.st_regs) unset;
  Array.fill s.st_flags 0 5 unset;
  s.st_prefix <- prefix;
  s.st_mem <- mem_var ctx (prefix ^ "mem") ~word:d.Desc.d_word

(* Mutated programs (the defect-injection experiments feed the validator
   deliberately corrupted words) can carry register ids the description
   does not have; fail with a structured diagnostic instead of letting
   [Desc.reg]'s [Invalid_argument] escape the validator. *)
let reg_info (d : Desc.t) id =
  if id < 0 || id >= Array.length d.Desc.d_regs then
    Diag.error Diag.Execution "microop references unknown register id %d" id;
  Desc.reg d id

let dest_reg_id (d : Desc.t) (args : Inst.arg array) = function
  | Rtl.D_reg name -> (Desc.get_reg d name).Desc.r_id
  | Rtl.D_opnd i -> (
      match args.(i) with
      | Inst.A_reg r ->
          ignore (reg_info d r);
          r
      | Inst.A_imm _ ->
          Diag.error Diag.Execution "microop writes to an immediate operand")

(* Symbolic mirror of [Sim.eval]: operand and register reads sample the
   live store, which holds the phase-start state while the phase's writes
   wait in [exec_phase]'s buffers. *)
let rec seval ctx (d : Desc.t) (s : store) (args : Inst.arg array)
    (e : Rtl.expr) : t =
  let ev e = seval ctx d s args e in
  match e with
  | Rtl.Opnd i -> (
      match args.(i) with
      | Inst.A_reg r ->
          ignore (reg_info d r);
          reg ctx d s r
      | Inst.A_imm v -> const ctx v)
  | Rtl.Reg name -> reg ctx d s (Desc.get_reg d name).Desc.r_id
  | Rtl.Const v -> const ctx v
  | Rtl.Flag f -> flag ctx s f
  | Rtl.Add (a, b) -> add ctx (ev a) (ev b)
  | Rtl.Sub (a, b) -> sub ctx (ev a) (ev b)
  | Rtl.And (a, b) -> logand ctx (ev a) (ev b)
  | Rtl.Or (a, b) -> logor ctx (ev a) (ev b)
  | Rtl.Xor (a, b) -> logxor ctx (ev a) (ev b)
  | Rtl.Not a -> lognot ctx (ev a)
  | Rtl.Slice (a, hi, lo) -> slice ctx (ev a) ~hi ~lo
  | Rtl.Concat (a, b) -> concat ctx (ev a) (ev b)
  | Rtl.Zext (w, a) -> zext ctx w (ev a)
  | Rtl.Mux (c, a, b) -> mux ctx (ev c) (ev a) (ev b)

(* Symbolic mirror of [Sim.exec_phase]: every register, flag and memory
   write is buffered until the phase's actions are all evaluated, so reads
   of the live store (memory reads and the adc carry-in included) see the
   phase-start state.  Writes commit memory-first, each class in action
   order. *)
let exec_phase ctx (d : Desc.t) (s : store) ops =
  let wb_regs = ref [] and wb_flags = ref [] and wb_mem = ref [] in
  let wb_ack = ref false in
  (* only adc reads the live C flag, so no other op materialises it *)
  let carry_in op2 = if op2 = Rtl.A_adc then flag_at ctx s 0 else false_ ctx in
  (* the five flags, made in index order C V Z N U *)
  let buffer_flags op v1 v2 cin =
    let push fl t = wb_flags := (Rtl.flag_index fl, t) :: !wb_flags in
    match const_flags op v1 v2 ~carry:cin with
    | Some f ->
        let bit b = const ctx (Bitvec.of_bool b) in
        push Rtl.C (bit f.Bitvec.carry);
        push Rtl.V (bit f.Bitvec.overflow);
        push Rtl.Z (bit f.Bitvec.zero);
        push Rtl.N (bit f.Bitvec.negative);
        push Rtl.U (bit f.Bitvec.shifted_out)
    | None ->
        List.iter
          (fun fl -> push fl (alu_flag ctx fl op v1 v2 ~carry:cin))
          Rtl.all_flags
  in
  List.iter
    (fun (op : Inst.op) ->
      let args = op.Inst.op_args in
      let ev e = seval ctx d s args e in
      List.iter
        (fun (a : Rtl.action) ->
          match a with
          | Rtl.Assign (dst, e) ->
              let id = dest_reg_id d args dst in
              let v = zext ctx (reg_info d id).Desc.r_width (ev e) in
              wb_regs := (id, v) :: !wb_regs
          | Rtl.Arith (dst, op2, e1, e2) ->
              let id = dest_reg_id d args dst in
              let w = (reg_info d id).Desc.r_width in
              let v1 = zext ctx w (ev e1) in
              let v2 = zext ctx w (ev e2) in
              let cin = carry_in op2 in
              wb_regs := (id, alu ctx op2 v1 v2 ~carry:cin) :: !wb_regs;
              buffer_flags op2 v1 v2 cin
          | Rtl.Arith_flags (op2, e1, e2) ->
              let v1 = ev e1 in
              let v2 = zext ctx v1.width (ev e2) in
              buffer_flags op2 v1 v2 (carry_in op2)
          | Rtl.Arith_nf (dst, op2, e1, e2) ->
              let id = dest_reg_id d args dst in
              let w = (reg_info d id).Desc.r_width in
              let v1 = zext ctx w (ev e1) in
              let v2 = zext ctx w (ev e2) in
              wb_regs := (id, alu ctx op2 v1 v2 ~carry:(carry_in op2)) :: !wb_regs
          | Rtl.Mem_read (dst, addr) ->
              let id = dest_reg_id d args dst in
              let a = zext ctx 62 (ev addr) in
              let v = mem_sel ctx s.st_mem a in
              wb_regs := (id, zext ctx (reg_info d id).Desc.r_width v) :: !wb_regs
          | Rtl.Mem_write (addr, value) ->
              let a = zext ctx 62 (ev addr) in
              wb_mem := (a, ev value) :: !wb_mem
          | Rtl.Set_flag (f, e) ->
              let v = ev e in
              wb_flags := (Rtl.flag_index f, slice ctx v ~hi:0 ~lo:0) :: !wb_flags
          | Rtl.Int_ack -> wb_ack := true)
        op.Inst.op_t.Desc.t_actions)
    ops;
  List.iter
    (fun (a, v) -> s.st_mem <- mem_store ctx s.st_mem a v)
    (List.rev !wb_mem);
  List.iter (fun (id, v) -> s.st_regs.(id) <- v) (List.rev !wb_regs);
  List.iter (fun (i, v) -> s.st_flags.(i) <- v) (List.rev !wb_flags);
  if !wb_ack then s.st_acks <- s.st_acks + 1

(* One microinstruction's worth of operations, phase by phase — the
   symbolic [Sim.step] body (sequencing excluded; the validator compares
   that structurally). *)
let exec_word ctx (d : Desc.t) (s : store) = function
  | [] -> ()
  | [ _ ] as ops -> exec_phase ctx d s ops  (* its phase is in range *)
  | ops ->
      Array.iter
        (function [] -> () | phase_ops -> exec_phase ctx d s phase_ops)
        (Inst.ops_by_phase d ops)

(* Pairwise store comparison goals, for [decide]: registers, flags, memory.
   A slot neither store touched holds the same input on both sides when
   their prefixes agree, so it needs no goal. *)
let store_pairs ctx d (a : store) (b : store) =
  let goals sa sb read tail =
    let acc = ref tail in
    for i = Array.length sa - 1 downto 0 do
      if sa.(i) != unset || sb.(i) != unset || a.st_prefix <> b.st_prefix then
        acc := (read a i, read b i) :: !acc
    done;
    !acc
  in
  goals a.st_regs b.st_regs (reg ctx d)
    (goals a.st_flags b.st_flags (flag_at ctx) [ (a.st_mem, b.st_mem) ])

(* -- printing (debugging / findings) --------------------------------------- *)

let rec pp ppf t =
  match t.node with
  | Var n -> Fmt.string ppf n
  | Const v -> Bitvec.pp ppf v
  | Add (a, b) -> Fmt.pf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> Fmt.pf ppf "(%a - %a)" pp a pp b
  | And (a, b) -> Fmt.pf ppf "(%a & %a)" pp a pp b
  | Or (a, b) -> Fmt.pf ppf "(%a | %a)" pp a pp b
  | Xor (a, b) -> Fmt.pf ppf "(%a ^ %a)" pp a pp b
  | Mul (a, b) -> Fmt.pf ppf "(%a * %a)" pp a pp b
  | Not a -> Fmt.pf ppf "~%a" pp a
  | Slice (a, hi, lo) -> Fmt.pf ppf "%a[%d:%d]" pp a hi lo
  | Concat (a, b) -> Fmt.pf ppf "(%a @@ %a)" pp a pp b
  | Zext a -> Fmt.pf ppf "zext%d(%a)" t.width pp a
  | Mux (c, a, b) -> Fmt.pf ppf "(%a ? %a : %a)" pp c pp a pp b
  | Alu (op, a, b) -> Fmt.pf ppf "%s(%a, %a)" (Rtl.abinop_name op) pp a pp b
  | Alu_flag (fl, op, a, b, _) ->
      Fmt.pf ppf "%s.%s(%a, %a)" (Rtl.abinop_name op) (Rtl.flag_name fl) pp a
        pp b
  | Mem_init -> Fmt.string ppf "mem0"
  | Mem_var n -> Fmt.string ppf n
  | Mem_store (m, a, v) -> Fmt.pf ppf "%a[%a := %a]" pp m pp a pp v
  | Mem_sel (m, a) -> Fmt.pf ppf "%a[%a]" pp m pp a

let pp_assignment ppf a =
  Fmt.(list ~sep:sp (fun ppf (n, v) -> pf ppf "%s=%a" n Bitvec.pp v)) ppf a
