(* Compiled simulation engine.

   The interpreter ([Sim.step]) prepares each word once, on its first
   execution, but still walks every op's RTL tree on every cycle,
   allocating a bitvector per computed value and a flag record per
   flag-setting ALU op.  This module pays the decoding once, at
   translation time: the control store becomes a flowgraph of
   pre-decoded closures, one per microinstruction, with operand
   registers, widths, branch conditions and sequencing targets resolved
   up front.  Dispatch is integer direct-threading: each word's closure
   stores its successor's index into [next_pc] (an immediate store, no
   write barrier) and the run loop is one indirect call through the code
   array per word.

   The hot path runs over a *shadow register file of unboxed ints*.  A
   value of width [w] is split at bit 62: the low part lives in an OCaml
   int (63-bit, so 62 bits plus headroom for carries), and the one or
   two bits above — only the 64-bit H1 datapath has any — live in a
   second int.  Compiled expressions carry their split statically: a
   value whose bits 62+ are provably zero (every value on the 16-bit
   machines, immediates and zero-extensions everywhere) compiles to a
   single int closure, so narrow machines pay nothing for the wide path.
   The per-step arithmetic — including the five ALU flags, computed
   inline against the same formulas as [Bitvec.adc]/[mul_f]/
   [shift_left_f] — allocates nothing.  The authoritative [Sim.t]
   bitvector registers are synchronized at the boundaries only: run
   entry/exit (exit via [Fun.protect], so a raising program still leaves
   the interpreter-visible state behind) and around every
   interpreter-fallback step.

   Fidelity is the design constraint, not an afterthought: the engine
   mutates the *same* [Sim.t] record through [Sim.Engine], reproduces the
   phase-ordered transport-delay write semantics (including the commit
   order memory → registers → flags and the partial-commit behaviour of a
   faulting phase), shares the interpreter's microtrap servicing, and
   falls back to [Sim.step] wholesale — shadow file synced out and back —
   for any word containing [Int_ack] (the interrupt-service boundary, so
   latency accounting is the interpreter's own) or any word the static
   analysis cannot prove int-representable (shifts and multiplies at
   widths above 62, runtime width mismatches, out-of-range slices).  The
   differential oracle (test_engine_diff) holds the two engines to
   byte-identical [Sim.state_digest]s over the whole corpus.

   Two word shapes are compiled natively:

   - Direct: a phase whose actions provably cannot observe each other's
     writes (single action, or pairwise write/read-disjoint with no
     memory access and no raising destination) executes straight against
     the shadow file, with no write buffer.  This covers the hot kernels.
   - Buffered: anything else gets the interpreter's exact discipline —
     run the actions into a preallocated write buffer, reading the live
     shadow file (which no write touches until the commit, so it holds
     the phase-start state), then commit in order. *)

open Msl_bitvec
module Diag = Msl_util.Diag
module Trace = Msl_util.Trace

(* Raised at translation time when a word's RTL cannot be proven
   int-representable.  The word is then compiled as an interpreter-
   fallback closure, which reproduces the interpreter's behaviour —
   including its runtime exceptions — exactly. *)
exception Unsupported

(* The split point: bits 0..61 in the low int, bits 62.. in the high
   int.  [m62] is the 62-bit mask — exactly [max_int] on a 64-bit
   OCaml. *)
let m62 = (1 lsl 62) - 1
let m62_64 = Int64.of_int m62

(* A register-file or constant slot an operand can be read from without
   a closure call: the ALU step loads [arr.(idx)] directly.  Constants
   get one-element arrays, built once at translation time. *)
type cell = { arr : int array; idx : int }

let zero_cell = { arr = [| 0 |]; idx = 0 }
let cell_of_int n = if n = 0 then zero_cell else { arr = [| n |]; idx = 0 }

(* A compiled expression: [lo] yields bits 0..min(w,62)-1, normalized
   (no stray high bits); [hi] yields bits 62..w-1 when the width exceeds
   62 *and* those bits are not statically zero.  [hi = None] with
   [w > 62] means the high bits are provably zero (a zero-extension, a
   small constant) — the common case even on the 64-bit machine.

   [lo_c]/[hi_c] are present when the corresponding part is exactly an
   array read (a register or a constant): the ALU compiler then inlines
   the load instead of calling the closure.  [k] carries the full value
   when it is a compile-time constant, so resizing a constant rebuilds
   it exactly instead of compiling a masking closure. *)
type value = {
  w : int;
  lo : unit -> int;
  lo_c : cell option;
  hi : (unit -> int) option;
  hi_c : cell option;
  k : int64 option;
}

let hi_fn v = match v.hi with Some f -> f | None -> fun () -> 0

(* a plain computed value: no cells, not constant *)
let mk w lo hi = { w; lo; lo_c = None; hi; hi_c = None; k = None }

(* Preallocated per-engine write buffer: the buffered path's lists,
   flattened into arrays so the hot loop allocates nothing (memory writes
   excepted — they carry a bitvector for [Memory.write], one small
   allocation on a path that is rare by construction). *)
type wbuf = {
  mutable n_regs : int;
  reg_ids : int array;
  reg_los : int array;
  reg_his : int array;
  mutable n_flags : int;
  flag_ids : int array;
  flag_vals : bool array;
  mutable n_mem : int;
  mem_addrs : int array;
  mem_vals : Bitvec.t array;
}

type t = {
  sim : Sim.t;
  ctr : Sim.counters;  (* the simulator's own, updated in place *)
  code : (unit -> unit) array;
      (* one closure per control-store word, plus a final sentinel slot
         that reports an out-of-range pc (see [point]) *)
  ints : int array;  (* shadow register file, bits 0..61 *)
  his : int array;  (* shadow register file, bits 62.. (wide regs only) *)
  widths : int array;  (* per-register widths, for the sync-out *)
  wb : wbuf;
  mutable next_pc : int;
      (* the direct-threading slot: the run loop dispatches through
         [code.(next_pc)].  An int rather than a closure, so installing a
         successor is an immediate store — no [caml_modify] write
         barrier on the per-word path. *)
  mutable bad_pc : int;  (* the offending target when next_pc = sentinel *)
  mutable deliver : bool;  (* interrupt schedule nonempty at run start *)
  mutable n_native : int;
  mutable n_fallback : int;
}

let sim e = e.sim
let words e = Array.length e.code - 1
let native_words e = e.n_native

(* -- shadow-file synchronization ----------------------------------------- *)

let sync_in e =
  let regs = Sim.Engine.regs e.sim in
  for i = 0 to Array.length regs - 1 do
    let v = Bitvec.to_int64 regs.(i) in
    e.ints.(i) <- Int64.to_int (Int64.logand v m62_64);
    e.his.(i) <- Int64.to_int (Int64.shift_right_logical v 62)
  done

let sync_out e =
  let regs = Sim.Engine.regs e.sim in
  for i = 0 to Array.length regs - 1 do
    let w = e.widths.(i) in
    regs.(i) <-
      (if w <= 62 then Bitvec.of_int ~width:w e.ints.(i)
       else
         Bitvec.of_int64 ~width:w
           (Int64.logor
              (Int64.of_int e.ints.(i))
              (Int64.shift_left (Int64.of_int e.his.(i)) 62)))
  done

(* -- control flow -------------------------------------------------------- *)

(* Aim the threading slot at [pc].  Out-of-range targets point at the
   sentinel slot, whose closure raises on the *next* step, exactly when
   and how the interpreter's bounds check would (including the interrupt
   delivery that precedes it). *)
let point e pc =
  if pc >= 0 && pc < words e then e.next_pc <- pc
  else begin
    e.bad_pc <- pc;
    e.next_pc <- words e
  end

(* Jump to a statically-known target: bounds-checked once, at
   translation time. *)
let goto e pc =
  let c = e.ctr in
  if pc >= 0 && pc < words e then
   fun () ->
    c.pc <- pc;
    e.next_pc <- pc
  else
    let sentinel = words e in
    fun () ->
      c.pc <- pc;
      e.bad_pc <- pc;
      e.next_pc <- sentinel

(* Jump to a runtime-computed target (dispatch, return). *)
let enter e pc =
  e.ctr.pc <- pc;
  point e pc

(* Re-aim the threading slot at wherever the simulator stands — after an
   interpreter fallback step or a serviced microtrap moved the pc under
   us. *)
let relink e = point e e.ctr.pc

(* A word completed: three stores, inlined into every word closure. *)
let[@inline] retire (c : Sim.counters) cycles pc =
  c.cycles <- c.cycles + cycles;
  c.insts <- c.insts + 1;
  c.pc <- pc

(* -- static widths ------------------------------------------------------- *)

let mask_of w = (1 lsl w) - 1  (* valid for w <= 62 *)

let reg_width d id = (Desc.reg d id).Desc.r_width

let const_parts ~w v64 : value =
  let m64 =
    if w >= 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L
  in
  let v64 = Int64.logand v64 m64 in
  let lo = Int64.to_int (Int64.logand v64 m62_64) in
  let hi = Int64.to_int (Int64.shift_right_logical v64 62) in
  {
    w;
    lo = (fun () -> lo);
    lo_c = Some (cell_of_int lo);
    hi = (if hi = 0 then None else Some (fun () -> hi));
    hi_c = Some (cell_of_int hi);
    k = Some v64;
  }

let const_value v : value = const_parts ~w:(Bitvec.width v) (Bitvec.to_int64 v)

(* Zero-extend or truncate to [w] — the int image of [Bitvec.resize].
   Constants are rebuilt exactly (so a width-64 template immediate
   truncated to a 16-bit register is still a direct-load cell); pure
   widening keeps the cells, and a freshly zero high part becomes the
   shared zero cell. *)
let resize_value ~w (v : value) : value =
  if w = v.w then v
  else
    match v.k with
    | Some v64 -> const_parts ~w v64
    | None ->
        if w > v.w then
          { v with w; hi_c = (if v.hi = None then Some zero_cell else v.hi_c) }
        else if w <= 62 then
          if w = 62 && v.w > 62 then { (mk w v.lo None) with lo_c = v.lo_c }
          else
            let m = mask_of w in
            let f = v.lo in
            mk w (fun () -> f () land m) None
        else
          (* 64 -> 63: keep the low part, mask the high one *)
          match v.hi with
          | None -> { v with w }
          | Some fh ->
              let mh = mask_of (w - 62) in
              { (mk w v.lo (Some (fun () -> fh () land mh))) with lo_c = v.lo_c }

(* -- expression compilation ---------------------------------------------- *)

(* [src]/[src_hi] is the live shadow file register reads come from, on
   both paths; flags are read live too.  Like the interpreter, the
   buffered path takes no snapshot: every write waits in the buffer
   until the phase commits, so reads see the phase-start state.  A
   construct whose interpretation would raise at runtime (width
   mismatch, bad slice) is [Unsupported]: the enclosing word falls back
   to the interpreter, which raises identically. *)
let rec compile_expr (d : Desc.t) (src : int array) (src_hi : int array)
    (flags : bool array) (args : Inst.arg array) (e0 : Rtl.expr) : value =
  let ce = compile_expr d src src_hi flags args in
  let read_reg r =
    let w = reg_width d r in
    if w <= 62 then
      {
        w;
        lo = (fun () -> src.(r));
        lo_c = Some { arr = src; idx = r };
        hi = None;
        hi_c = Some zero_cell;
        k = None;
      }
    else
      {
        w;
        lo = (fun () -> src.(r));
        lo_c = Some { arr = src; idx = r };
        hi = Some (fun () -> src_hi.(r));
        hi_c = Some { arr = src_hi; idx = r };
        k = None;
      }
  in
  (* binary operator at matching widths — the interpreter's
     [Bitvec.check_same] raises on a mismatch, so a mismatched tree goes
     to the fallback *)
  let same a b = if a.w <> b.w then raise Unsupported in
  match e0 with
  | Rtl.Opnd i -> (
      match args.(i) with
      | Inst.A_reg r -> read_reg r
      | Inst.A_imm v -> const_value v)
  | Rtl.Reg name -> read_reg (Desc.get_reg d name).Desc.r_id
  | Rtl.Const v -> const_value v
  | Rtl.Flag f ->
      let i = Rtl.flag_index f in
      mk 1 (fun () -> if flags.(i) then 1 else 0) None
  | Rtl.Add (a, b) ->
      let a = ce a and b = ce b in
      same a b;
      let w = a.w in
      if w <= 62 then
        let m = mask_of w in
        let fa = a.lo and fb = b.lo in
        mk w (fun () -> (fa () + fb ()) land m) None
      else begin
        (* expression closures are pure, so the high part recomputes the
           low sum to recover the carry — [lsr] is logical, so bit 62 of
           the wrapped 63-bit word is exactly the carry *)
        let mh = mask_of (w - 62) in
        let al = a.lo and ah = hi_fn a and bl = b.lo and bh = hi_fn b in
        mk w
          (fun () -> (al () + bl ()) land m62)
          (Some
             (fun () ->
               (ah () + bh () + (((al () + bl ()) lsr 62) land 1)) land mh))
      end
  | Rtl.Sub (a, b) ->
      let a = ce a and b = ce b in
      same a b;
      let w = a.w in
      if w <= 62 then
        let m = mask_of w in
        let fa = a.lo and fb = b.lo in
        mk w (fun () -> (fa () - fb ()) land m) None
      else begin
        (* bit 62 of the wrapped difference is the borrow; recomputed in
           the (pure) high part like [Add] *)
        let mh = mask_of (w - 62) in
        let al = a.lo and ah = hi_fn a and bl = b.lo and bh = hi_fn b in
        mk w
          (fun () -> (al () - bl ()) land m62)
          (Some
             (fun () ->
               (ah () - bh () - (((al () - bl ()) lsr 62) land 1)) land mh))
      end
  | Rtl.And (a, b) ->
      let a = ce a and b = ce b in
      same a b;
      let fa = a.lo and fb = b.lo in
      let lo () = fa () land fb () in
      let hi =
        match (a.hi, b.hi) with
        | Some fa, Some fb -> Some (fun () -> fa () land fb ())
        | _ -> None
      in
      mk a.w lo hi
  | Rtl.Or (a, b) ->
      let a = ce a and b = ce b in
      same a b;
      let fa = a.lo and fb = b.lo in
      let lo () = fa () lor fb () in
      let hi =
        match (a.hi, b.hi) with
        | None, None -> None
        | Some fa, Some fb -> Some (fun () -> fa () lor fb ())
        | Some f, None | None, Some f -> Some f
      in
      mk a.w lo hi
  | Rtl.Xor (a, b) ->
      let a = ce a and b = ce b in
      same a b;
      let fa = a.lo and fb = b.lo in
      let lo () = fa () lxor fb () in
      let hi =
        match (a.hi, b.hi) with
        | None, None -> None
        | Some fa, Some fb -> Some (fun () -> fa () lxor fb ())
        | Some f, None | None, Some f -> Some f
      in
      mk a.w lo hi
  | Rtl.Not a ->
      let a = ce a in
      let w = a.w in
      if w <= 62 then
        let m = mask_of w in
        let fa = a.lo in
        mk w (fun () -> fa () lxor m) None
      else
        let mh = mask_of (w - 62) in
        let fa = a.lo and fh = hi_fn a in
        mk w
          (fun () -> fa () lxor m62)
          (Some (fun () -> fh () lxor mh))
  | Rtl.Slice (a, hi, lo) ->
      let a = ce a in
      if lo < 0 || hi < lo || hi >= a.w then raise Unsupported;
      let w = hi - lo + 1 in
      let fa = a.lo in
      if hi <= 61 then
        (* entirely within the low part *)
        let m = mask_of w in
        if lo = 0 && w = a.w then a
        else mk w (fun () -> (fa () lsr lo) land m) None
      else if w > 62 then begin
        (* a wide slice of a wide value: only lo = 0 or 1 can occur *)
        let fh = hi_fn a in
        let mh = mask_of (w - 62) in
        if lo = 0 then mk w fa (Some (fun () -> fh () land mh))
        else
          mk w
            (fun () -> ((fa () lsr lo) lor (fh () lsl (62 - lo))) land m62)
            (Some (fun () -> (fh () lsr lo) land mh))
      end
      else begin
        let fh = hi_fn a in
        let m = mask_of w in
        if lo >= 62 then
          mk w (fun () -> (fh () lsr (lo - 62)) land m) None
        else
          mk w
            (fun () -> ((fa () lsr lo) lor (fh () lsl (62 - lo))) land m)
            None
      end
  | Rtl.Concat (a, b) ->
      let a = ce a and b = ce b in
      let w = a.w + b.w in
      if w > 64 then raise Unsupported;
      let wb = b.w in
      let fa = a.lo and fb = b.lo in
      if w <= 62 then mk w (fun () -> (fa () lsl wb) lor fb ()) None
      else begin
        let mh = mask_of (w - 62) in
        let fbh = hi_fn b and fah = hi_fn a in
        if wb >= 62 then
          mk w fb
            (Some (fun () -> (fbh () lor (fa () lsl (wb - 62))) land mh))
        else
          mk w
            (fun () -> (fb () lor (fa () lsl wb)) land m62)
            (Some
               (fun () ->
                 ((fa () lsr (62 - wb)) lor (fah () lsl wb)) land mh))
      end
  | Rtl.Zext (w, a) ->
      let a = ce a in
      if w < 1 || w > 64 then raise Unsupported;
      resize_value ~w a
  | Rtl.Mux (c, a, b) ->
      let c = ce c and a = ce a and b = ce b in
      same a b;
      let nz =
        match c.hi with
        | None ->
            let f = c.lo in
            fun () -> f () <> 0
        | Some fh ->
            let f = c.lo in
            fun () -> f () <> 0 || fh () <> 0
      in
      let fa = a.lo and fb = b.lo in
      let lo () = if nz () then fa () else fb () in
      let hi =
        match (a.hi, b.hi) with
        | None, None -> None
        | _ ->
            let fa = hi_fn a and fb = hi_fn b in
            Some (fun () -> if nz () then fa () else fb ())
      in
      mk a.w lo hi

(* Conditions read the committed shadow file, as the interpreter's
   [eval_cond] reads committed registers; [C_int_pending] keeps the
   counted-poll contract. *)
let compile_cond e (c : Desc.cond) : unit -> bool =
  let s = e.sim in
  let ints = e.ints and his = e.his in
  let flags = Sim.Engine.flags s in
  match c with
  | Desc.C_flag (f, v) ->
      let i = Rtl.flag_index f in
      fun () -> flags.(i) = v
  | Desc.C_reg_zero (r, v) ->
      if reg_width (Sim.desc s) r <= 62 then fun () -> (ints.(r) = 0) = v
      else fun () -> (ints.(r) = 0 && his.(r) = 0) = v
  | Desc.C_reg_mask (r, mask) ->
      let w = reg_width (Sim.desc s) r in
      let n = min (Array.length mask) w in
      fun () ->
        let v = ints.(r) in
        let vh = his.(r) in
        let bit i = if i <= 61 then (v lsr i) land 1 else (vh lsr (i - 62)) land 1 in
        let rec loop i =
          if i >= n then true
          else
            match mask.(i) with
            | Desc.Mx -> loop (i + 1)
            | Desc.Mt -> bit i = 1 && loop (i + 1)
            | Desc.Mf -> bit i = 0 && loop (i + 1)
        in
        loop 0
  | Desc.C_int_pending -> fun () -> Sim.Engine.poll_int_pending s

(* -- write-buffer primitives --------------------------------------------- *)

let push_reg wb id lo hi =
  wb.reg_ids.(wb.n_regs) <- id;
  wb.reg_los.(wb.n_regs) <- lo;
  wb.reg_his.(wb.n_regs) <- hi;
  wb.n_regs <- wb.n_regs + 1

let push_flag wb i b =
  wb.flag_ids.(wb.n_flags) <- i;
  wb.flag_vals.(wb.n_flags) <- b;
  wb.n_flags <- wb.n_flags + 1

let push_mem wb a v =
  wb.mem_addrs.(wb.n_mem) <- a;
  wb.mem_vals.(wb.n_mem) <- v;
  wb.n_mem <- wb.n_mem + 1

(* -- ALU operations ------------------------------------------------------ *)

(* Where an operation's flags go: straight into the live flag array on
   the direct path, into the write buffer on the buffered one, nowhere
   for the no-flag template forms. *)
type fsink = F_none | F_direct of bool array | F_buf of wbuf

(* carry, overflow, zero, negative, shifted_out packed into bits 0..4 of
   one int — a single-argument call, which OCaml dispatches directly (a
   five-bool closure would go through the generic apply path on every
   ALU op). *)
let pack c o z n so =
  (if c then 1 else 0)
  lor (if o then 2 else 0)
  lor (if z then 4 else 0)
  lor (if n then 8 else 0)
  lor (if so then 16 else 0)

(* Turn one operand part into a direct array load.  A celled part (a
   register or constant) is read in place; a computed part is spilled
   into a private one-slot scratch by a preamble closure, so the ALU
   body itself never makes an operand call. *)
let spill (part : unit -> int) (c : cell option) =
  match c with
  | Some c -> (c.arr, c.idx, None)
  | None ->
      let t = [| 0 |] in
      (t, 0, Some (fun () -> t.(0) <- part ()))

let with_pre pres core =
  match List.filter_map Fun.id pres with
  | [] -> core
  | [ p ] ->
      fun () ->
        p ();
        core ()
  | [ p; q ] ->
      fun () ->
        p ();
        q ();
        core ()
  | ps ->
      let ps = Array.of_list ps in
      fun () ->
        for i = 0 to Array.length ps - 1 do
          ps.(i) ()
        done;
        core ()

(* The int image of [Rtl.eval_abinop] at width [w]: same results, same
   flags, computed against the same formulas as [Bitvec.adc] / [mul_f] /
   [shift_left_f] / [shift_right_f] — the differential oracle
   cross-checks them over the corpus.  [a]/[b] are already resized to
   [w]; the carry-in is read live from [flags].  The result is stored to
   [dlo]/[dhi] at index [di] — the shadow file itself on the direct
   path, a scratch slot the caller then pushes on the buffered one — so
   register/constant operands, the ALU body and the destination store
   all fuse into one closure with no operand calls.  Shifts, rotates and
   multiplies wider than the low part go to the fallback. *)
let compile_abinop (op : Rtl.abinop) ~w (a : value) (b : value)
    (flags : bool array) (fs : fsink) ~(dlo : int array) ~(dhi : int array)
    ~(di : int) : unit -> unit =
  (* the flag-preserving forms, most of every store, skip the flags
     altogether *)
  let want = match fs with F_none -> false | F_direct _ | F_buf _ -> true in
  let emit =
    match fs with
    | F_none -> fun _ -> ()
    | F_direct fl ->
        fun p ->
          fl.(0) <- p land 1 <> 0;
          fl.(1) <- p land 2 <> 0;
          fl.(2) <- p land 4 <> 0;
          fl.(3) <- p land 8 <> 0;
          fl.(4) <- p land 16 <> 0
    | F_buf wb ->
        fun p ->
          push_flag wb 0 (p land 1 <> 0);
          push_flag wb 1 (p land 2 <> 0);
          push_flag wb 2 (p land 4 <> 0);
          push_flag wb 3 (p land 8 <> 0);
          push_flag wb 4 (p land 16 <> 0)
  in
  if w <= 62 then begin
    let m = mask_of w in
    let msb v = (v lsr (w - 1)) land 1 = 1 in
    let aa, ai, apre = spill a.lo a.lo_c in
    let ba, bi, bpre = spill b.lo b.lo_c in
    (* [adc_like] and [logical] are locally-known functions, so every
       call below is a direct jump, not a closure dispatch *)
    let adc_like av bv c1 cflip =
      let raw = av + bv + c1 in
      let res = raw land m in
      (* for w = 62 the raw sum may wrap the OCaml int; [lsr] is
         logical, so bit [w] of the 63-bit representation is still the
         carry *)
      if want then begin
        let c = (raw lsr w) land 1 = 1 in
        let sa = msb av and sb = msb bv and sr = msb res in
        emit (pack (if cflip then not c else c) (sa = sb && sr <> sa)
                (res = 0) sr false)
      end;
      dlo.(di) <- res
    in
    let logical res =
      if want then emit (pack false false (res = 0) (msb res) false);
      dlo.(di) <- res
    in
    let core =
      match op with
      | Rtl.A_add -> fun () -> adc_like aa.(ai) ba.(bi) 0 false
      | Rtl.A_adc ->
          fun () ->
            adc_like aa.(ai) ba.(bi) (if flags.(0) then 1 else 0) false
      | Rtl.A_sub ->
          (* a - b = a + ~b + 1; borrow is the complemented carry *)
          fun () -> adc_like aa.(ai) (ba.(bi) lxor m) 1 true
      | Rtl.A_and -> fun () -> logical (aa.(ai) land ba.(bi))
      | Rtl.A_or -> fun () -> logical (aa.(ai) lor ba.(bi))
      | Rtl.A_xor -> fun () -> logical (aa.(ai) lxor ba.(bi))
      | Rtl.A_mul ->
          (* the exact product must fit the int: 2*w + 1 <= 63 *)
          if w > 31 then raise Unsupported;
          fun () ->
            let raw = aa.(ai) * ba.(bi) in
            let res = raw land m in
            let overflow = raw > m in
            if want then emit (pack overflow overflow (res = 0) (msb res) false);
            dlo.(di) <- res
      | Rtl.A_shl ->
          fun () ->
            let av = aa.(ai) in
            let n = ba.(bi) land 0x3F in
            if n = 0 then logical av
            else begin
              let res = if n >= w then 0 else (av lsl n) land m in
              let so = n <= w && (av lsr (w - n)) land 1 = 1 in
              if want then emit (pack so false (res = 0) (msb res) so);
              dlo.(di) <- res
            end
      | Rtl.A_shr ->
          fun () ->
            let av = aa.(ai) in
            let n = ba.(bi) land 0x3F in
            if n = 0 then logical av
            else begin
              let res = if n >= w then 0 else av lsr n in
              let so = n <= w && (av lsr (n - 1)) land 1 = 1 in
              if want then emit (pack so false (res = 0) (msb res) so);
              dlo.(di) <- res
            end
      | Rtl.A_sra ->
          fun () ->
            let av = aa.(ai) in
            let n = ba.(bi) land 0x3F in
            let res =
              if n = 0 then av
              else if n >= w then if msb av then m else 0
              else
                let sv = if msb av then av lor lnot m else av in
                (sv asr n) land m
            in
            logical res
      | Rtl.A_rol ->
          fun () ->
            let av = aa.(ai) in
            let n = ba.(bi) land 0x3F mod w in
            logical
              (if n = 0 then av else ((av lsl n) land m) lor (av lsr (w - n)))
      | Rtl.A_ror ->
          fun () ->
            let av = aa.(ai) in
            let n0 = ba.(bi) land 0x3F in
            let n = (w - (n0 mod w)) mod w in
            logical
              (if n = 0 then av else ((av lsl n) land m) lor (av lsr (w - n)))
    in
    with_pre [ apre; bpre ] core
  end
  else begin
    (* split arithmetic for the 64-bit datapath: low 62 bits plus a one-
       or two-bit high part.  Shifts, rotates and multiplies at these
       widths go through the interpreter instead. *)
    let wh = w - 62 in
    let mh = mask_of wh in
    let msbh h = (h lsr (wh - 1)) land 1 = 1 in
    let ala, ali, apre = spill a.lo a.lo_c in
    let aha, ahi, ahpre = spill (hi_fn a) a.hi_c in
    let bla, bli, bpre = spill b.lo b.lo_c in
    let bha, bhi, bhpre = spill (hi_fn b) b.hi_c in
    let adc2 al ah bl bh c1 cflip =
      (* low halves wrap inside the 63-bit int; the carry into bit 62 is
         recoverable because [lsr] is logical *)
      let s = al + bl + c1 in
      let rlo = s land m62 in
      let sh = ah + bh + ((s lsr 62) land 1) in
      let rhi = sh land mh in
      if want then begin
        let c = (sh lsr wh) land 1 = 1 in
        let sa = msbh ah and sb = msbh bh and sr = msbh rhi in
        emit (pack (if cflip then not c else c) (sa = sb && sr <> sa)
                (rlo = 0 && rhi = 0) sr false)
      end;
      dlo.(di) <- rlo;
      dhi.(di) <- rhi
    in
    let logical2 rlo rhi =
      if want then emit (pack false false (rlo = 0 && rhi = 0) (msbh rhi) false);
      dlo.(di) <- rlo;
      dhi.(di) <- rhi
    in
    let core =
      match op with
      | Rtl.A_add ->
          fun () -> adc2 ala.(ali) aha.(ahi) bla.(bli) bha.(bhi) 0 false
      | Rtl.A_adc ->
          fun () ->
            adc2 ala.(ali) aha.(ahi) bla.(bli) bha.(bhi)
              (if flags.(0) then 1 else 0)
              false
      | Rtl.A_sub ->
          fun () ->
            adc2 ala.(ali) aha.(ahi) (bla.(bli) lxor m62) (bha.(bhi) lxor mh)
              1 true
      | Rtl.A_and ->
          fun () -> logical2 (ala.(ali) land bla.(bli)) (aha.(ahi) land bha.(bhi))
      | Rtl.A_or ->
          fun () -> logical2 (ala.(ali) lor bla.(bli)) (aha.(ahi) lor bha.(bhi))
      | Rtl.A_xor ->
          fun () -> logical2 (ala.(ali) lxor bla.(bli)) (aha.(ahi) lxor bha.(bhi))
      | Rtl.A_mul | Rtl.A_shl | Rtl.A_shr | Rtl.A_sra | Rtl.A_rol | Rtl.A_ror
        ->
          raise Unsupported
    in
    with_pre [ apre; ahpre; bpre; bhpre ] core
  end

(* -- action compilation -------------------------------------------------- *)

let invalid_dest () =
  Diag.error Diag.Execution "microop writes to an immediate operand"

let bitvec_of_value (v : value) () =
  if v.w <= 62 then Bitvec.of_int ~width:v.w (v.lo ())
  else
    Bitvec.of_int64 ~width:v.w
      (Int64.logor
         (Int64.of_int (v.lo ()))
         (Int64.shift_left (Int64.of_int (hi_fn v ())) 62))

(* Compile one RTL action.  [buf = None] writes straight to the shadow
   file; [buf = Some wb] appends to the engine's write buffer (committed
   by the phase runner).  Evaluation order — destination resolution
   first, then operands — matches the interpreter's, so a
   writes-to-immediate diagnostic fires at the same point. *)
let compile_action e (args : Inst.arg array) (a : Rtl.action)
    ~(buf : wbuf option) : unit -> unit =
  let s = e.sim in
  let d = Sim.desc s in
  let ints = e.ints and his = e.his in
  let flags = Sim.Engine.flags s in
  let mem = Sim.memory s in
  let mem_w = Memory.word_width mem in
  let ce = compile_expr d ints his flags args in
  let dest = function
    | Rtl.D_reg name -> Some (Desc.get_reg d name).Desc.r_id
    | Rtl.D_opnd i -> (
        match args.(i) with Inst.A_reg r -> Some r | Inst.A_imm _ -> None)
  in
  let fsink_of buf : fsink =
    match buf with None -> F_direct flags | Some wb -> F_buf wb
  in
  (* store a value (already resized to the register's width); a celled
     source compiles to a direct load/store pair *)
  let write_value id (v : value) =
    let wide = reg_width d id > 62 in
    match buf with
    | None -> (
        if not wide then
          match v.lo_c with
          | Some c ->
              let a = c.arr and i = c.idx in
              fun () -> ints.(id) <- a.(i)
          | None ->
              let f = v.lo in
              fun () -> ints.(id) <- f ()
        else
          match (v.lo_c, v.hi_c) with
          | Some cl, Some ch ->
              let la = cl.arr and li = cl.idx in
              let ha = ch.arr and hi = ch.idx in
              fun () ->
                ints.(id) <- la.(li);
                his.(id) <- ha.(hi)
          | _ ->
              let fl = v.lo and fh = hi_fn v in
              fun () ->
                ints.(id) <- fl ();
                his.(id) <- fh ())
    | Some wb ->
        if not wide then
          let f = v.lo in
          fun () -> push_reg wb id (f ()) 0
        else
          let fl = v.lo and fh = hi_fn v in
          fun () -> push_reg wb id (fl ()) (fh ())
  in
  (* the arithmetic family shares dest resolution and operand resizing;
     on the direct path the ALU closure stores straight into the shadow
     file, on the buffered one into a private scratch slot that is then
     pushed *)
  let arith dst op e1 e2 fs =
    let v1 = ce e1 and v2 = ce e2 in
    match dest dst with
    | None -> fun () -> invalid_dest ()
    | Some id -> (
        let w = reg_width d id in
        let a = resize_value ~w v1 and b = resize_value ~w v2 in
        match buf with
        | None -> compile_abinop op ~w a b flags fs ~dlo:ints ~dhi:his ~di:id
        | Some wb ->
            let rl = [| 0 |] and rh = [| 0 |] in
            let run =
              compile_abinop op ~w a b flags fs ~dlo:rl ~dhi:rh ~di:0
            in
            fun () ->
              run ();
              push_reg wb id rl.(0) rh.(0))
  in
  match a with
  | Rtl.Int_ack ->
      (* words containing Int_ack run through the interpreter fallback *)
      assert false
  | Rtl.Assign (dst, ex) -> (
      let v = ce ex in
      match dest dst with
      | None -> fun () -> invalid_dest ()
      | Some id -> write_value id (resize_value ~w:(reg_width d id) v))
  | Rtl.Arith (dst, op2, e1, e2) -> arith dst op2 e1 e2 (fsink_of buf)
  | Rtl.Arith_nf (dst, op2, e1, e2) -> arith dst op2 e1 e2 F_none
  | Rtl.Arith_flags (op2, e1, e2) ->
      (* flags-only: the left operand keeps its natural width, the right
         is resized to it, the result is dropped into a dead slot *)
      let v1 = ce e1 and v2 = ce e2 in
      let rl = [| 0 |] and rh = [| 0 |] in
      compile_abinop op2 ~w:v1.w v1 (resize_value ~w:v1.w v2) flags
        (fsink_of buf) ~dlo:rl ~dhi:rh ~di:0
  | Rtl.Mem_read (dst, addr) -> (
      (* the interpreter computes the address as [to_int (resize 62 a)];
         a celled address (a register) is loaded directly *)
      let va = resize_value ~w:62 (ce addr) in
      match dest dst with
      | None -> fun () -> invalid_dest ()
      | Some id -> (
          let w = reg_width d id in
          let aa, ai, apre = spill va.lo va.lo_c in
          if mem_w <= 62 then begin
            let m = mask_of (min w mem_w) in
            let rd () =
              let v =
                Int64.to_int (Memory.read_int64 mem aa.(ai))
              in
              if mem_w > w then v land m else v
            in
            let wide = w > 62 in
            with_pre [ apre ]
              (match buf with
              | None ->
                  if not wide then fun () -> ints.(id) <- rd ()
                  else
                    fun () ->
                      ints.(id) <- rd ();
                      his.(id) <- 0
              | Some wb -> fun () -> push_reg wb id (rd ()) 0)
          end
          else begin
            (* 64-bit memory words: split the read like a register *)
            let mh = if w > 62 then mask_of (w - 62) else 0 in
            let ml = if w < 62 then mask_of w else m62 in
            let rd () =
              let v64 = Memory.read_int64 mem aa.(ai) in
              let lo = Int64.to_int (Int64.logand v64 m62_64) land ml in
              let hi =
                if w <= 62 then 0
                else Int64.to_int (Int64.shift_right_logical v64 62) land mh
              in
              (lo, hi)
            in
            let wide = w > 62 in
            with_pre [ apre ]
              (match buf with
              | None ->
                  if not wide then
                    fun () ->
                      let lo, _ = rd () in
                      ints.(id) <- lo
                  else
                    fun () ->
                      let lo, hi = rd () in
                      ints.(id) <- lo;
                      his.(id) <- hi
              | Some wb ->
                  fun () ->
                    let lo, hi = rd () in
                    push_reg wb id lo hi)
          end))
  | Rtl.Mem_write (addr, value) -> (
      let va = resize_value ~w:62 (ce addr) in
      let v = ce value in
      let aa, ai, apre = spill va.lo va.lo_c in
      let to_bv = bitvec_of_value v in
      with_pre [ apre ]
        (match buf with
        | None -> fun () -> Memory.write mem aa.(ai) (to_bv ())
        | Some wb -> fun () -> push_mem wb aa.(ai) (to_bv ())))
  | Rtl.Set_flag (f, ex) -> (
      let i = Rtl.flag_index f in
      let v = ce ex in
      let fe = v.lo in
      match buf with
      | None -> fun () -> flags.(i) <- fe () land 1 = 1
      | Some wb -> fun () -> push_flag wb i (fe () land 1 = 1))

(* -- phase classification ------------------------------------------------ *)

let ids_of d (args : Inst.arg array) names opnds =
  List.map (fun n -> (Desc.get_reg d n).Desc.r_id) names
  @ List.filter_map
      (fun i ->
        match args.(i) with Inst.A_reg r -> Some r | Inst.A_imm _ -> None)
      opnds

(* A multi-action phase may run directly (reads against the live shadow
   file, writes committed immediately) only when the transport-delay
   semantics is unobservable: no action reads a register or flag an
   earlier action writes, nothing touches memory (faults must discard
   the phase), and every destination is valid (an invalid one raises
   mid-phase, which must not leave earlier direct writes behind that the
   buffered interpreter would have discarded). *)
let direct_ok d (acts : (Inst.arg array * Rtl.action) list) =
  let info =
    List.map
      (fun (args, a) ->
        let wr_names, wr_opnds = Rtl.action_writes a in
        let bad_dest =
          List.exists
            (fun i ->
              match args.(i) with Inst.A_imm _ -> true | Inst.A_reg _ -> false)
            wr_opnds
        in
        let reads =
          ids_of d args (Rtl.action_reads a) (Rtl.action_read_opnds a)
        in
        let writes = ids_of d args wr_names wr_opnds in
        let rflags = List.map Rtl.flag_index (Rtl.action_reads_flags a) in
        let wflags = List.map Rtl.flag_index (Rtl.action_sets_flags a) in
        (bad_dest, Rtl.action_touches_memory a, reads, writes, rflags, wflags))
      acts
  in
  let rec ok = function
    | [] -> true
    | (bad, mem, _, writes, _, wflags) :: later ->
        (not bad) && (not mem)
        && List.for_all
             (fun (_, _, reads, _, rflags, _) ->
               (not (List.exists (fun w -> List.mem w reads) writes))
               && not (List.exists (fun w -> List.mem w rflags) wflags))
             later
        && ok later
  in
  ok info

(* One phase of one word: either the direct fast path or the full
   buffered discipline (commit order: memory — which can
   still fault, leaving earlier memory writes committed exactly as the
   interpreter does — then registers, then flags).  Returns the phase's
   runner closures: a direct phase contributes one closure per action
   (the word closure splices them in without a per-phase wrapper), a
   buffered phase one closure for the whole discipline. *)
let compile_phase e (acts : (Inst.arg array * Rtl.action) list) :
    (unit -> unit) list =
  let s = e.sim in
  let d = Sim.desc s in
  let ints = e.ints and his = e.his in
  match acts with
  | [ (args, a) ] -> [ compile_action e args a ~buf:None ]
  | _ when direct_ok d acts ->
      List.map (fun (args, a) -> compile_action e args a ~buf:None) acts
  | _ ->
      let wb = e.wb in
      let fns =
        Array.of_list
          (List.map
             (fun (args, a) -> compile_action e args a ~buf:(Some wb))
             acts)
      in
      let mem = Sim.memory s in
      let flags = Sim.Engine.flags s in
      [
        (fun () ->
          wb.n_regs <- 0;
          wb.n_flags <- 0;
          wb.n_mem <- 0;
          for i = 0 to Array.length fns - 1 do
            fns.(i) ()
          done;
          for i = 0 to wb.n_mem - 1 do
            Memory.write mem wb.mem_addrs.(i) wb.mem_vals.(i)
          done;
          for i = 0 to wb.n_regs - 1 do
            ints.(wb.reg_ids.(i)) <- wb.reg_los.(i);
            his.(wb.reg_ids.(i)) <- wb.reg_his.(i)
          done;
          for i = 0 to wb.n_flags - 1 do
            flags.(wb.flag_ids.(i)) <- wb.flag_vals.(i)
          done);
      ]

(* -- sequencing ---------------------------------------------------------- *)

let compile_seq e i (n : Inst.next) =
  let s = e.sim in
  let ctr = e.ctr in
  match n with
  | Inst.Next -> goto e (i + 1)
  | Inst.Jump a -> goto e a
  | Inst.Branch (c, a) -> (
      let n = words e in
      if a >= 0 && a < n && i + 1 < n then
        (* Both arms in range: inline the jumps around the condition, and
           specialize the two conditions every surveyed sequencer offers
           — a flag test or a register-zero test — into the branch
           closure itself, so a hot conditional loop (the S* kernels'
           inner branches) pays no condition-closure call. *)
        match c with
        | Desc.C_flag (f, v) ->
            let fi = Rtl.flag_index f in
            let flags = Sim.Engine.flags s in
            fun () ->
              let t = if flags.(fi) = v then a else i + 1 in
              ctr.pc <- t;
              e.next_pc <- t
        | Desc.C_reg_zero (r, v) when reg_width (Sim.desc s) r <= 62 ->
            let ints = e.ints in
            fun () ->
              let t = if (ints.(r) = 0) = v then a else i + 1 in
              ctr.pc <- t;
              e.next_pc <- t
        | _ ->
            let cond = compile_cond e c in
            fun () ->
              let t = if cond () then a else i + 1 in
              ctr.pc <- t;
              e.next_pc <- t
      else
        let cond = compile_cond e c in
        let taken = goto e a and fall = goto e (i + 1) in
        fun () -> if cond () then taken () else fall ())
  | Inst.Dispatch { dreg; hi; lo; base } ->
      let w = reg_width (Sim.desc s) dreg in
      if lo < 0 || hi < lo || hi >= w then raise Unsupported;
      if hi - lo + 1 > 62 then raise Unsupported;
      let m = mask_of (hi - lo + 1) in
      let ints = e.ints and his = e.his in
      if hi <= 61 then fun () -> enter e (base + ((ints.(dreg) lsr lo) land m))
      else if lo >= 62 then
        fun () -> enter e (base + ((his.(dreg) lsr (lo - 62)) land m))
      else
        fun () ->
          enter e
            (base
            + (((ints.(dreg) lsr lo) lor (his.(dreg) lsl (62 - lo))) land m))
  | Inst.Call a ->
      let tgt = goto e a in
      fun () ->
        Sim.Engine.push_call s (i + 1);
        tgt ()
  | Inst.Return -> (
      fun () ->
        match Sim.Engine.pop_call s with
        | Some pc -> enter e pc
        | None -> Diag.error Diag.Execution "return with empty microstack")
  | Inst.Halt -> fun () -> ctr.halted <- true

(* -- word compilation ---------------------------------------------------- *)

let word_has_int_ack (inst : Inst.t) =
  List.exists
    (fun (op : Inst.op) ->
      List.exists
        (function Rtl.Int_ack -> true | _ -> false)
        op.Inst.op_t.Desc.t_actions)
    inst.Inst.ops

(* One interpreter step with the shadow file synced out and back.  Used
   for Int_ack words (the interpreter owns acknowledgement, latency
   accounting and its own interrupt delivery) and for words the static
   analysis rejected (the interpreter reproduces their semantics —
   including their runtime diagnostics — exactly).  A raising step still
   syncs back in, so the interpreter-visible partial state survives the
   run's final sync-out. *)
let fallback_word e =
  let s = e.sim in
  fun () ->
    sync_out e;
    (match Sim.step s with
    | () -> ()
    | exception ex ->
        sync_in e;
        raise ex);
    sync_in e;
    if not e.ctr.halted then relink e

let compile_native e i (inst : Inst.t) =
  let s = e.sim in
  let c = e.ctr in
  let actions (op : Inst.op) =
    List.map (fun a -> (op.Inst.op_args, a)) op.Inst.op_t.Desc.t_actions
  in
  let runners =
    Array.of_list
      (List.concat_map
         (fun ops ->
           match List.concat_map actions ops with
           | [] -> []
           | acts -> compile_phase e acts)
         (Array.to_list (Inst.ops_by_phase (Sim.desc s) inst.Inst.ops)))
  in
  let extra = 1 + Inst.inst_extra_cycles inst in
  let mem (op : Inst.op) = (Desc.facts (Sim.desc s) op.Inst.op_t).Desc.x_mem in
  let touches_mem = List.exists mem inst.Inst.ops in
  (* a statically-known in-range successor (fallthrough or unconditional
     jump): the pc update and next-slot store are inlined into the word
     closure itself, eliminating the sequencing call on straight-line
     words — the common case in the hot kernels *)
  let static_tgt =
    match inst.Inst.next with
    | Inst.Next when i + 1 < words e -> i + 1
    | Inst.Jump a when a >= 0 && a < words e -> a
    | _ -> -1
  in
  if touches_mem then
    (* the whole step sits inside the fault handler: the trap path
       redirects the pc (Restart) or raises (Fault_is_error); either way
       the aborted word's cycle and instruction counts stay unbumped,
       like the interpreter's.  Memory words are rare enough in the
       kernels that one loop over the runners serves every shape. *)
    if static_tgt >= 0 then (
      let t = static_tgt in
      fun () ->
        if e.deliver then Sim.Engine.deliver_interrupts s;
        try
          for p = 0 to Array.length runners - 1 do
            runners.(p) ()
          done;
          retire c extra t;
          e.next_pc <- t
        with Memory.Page_fault addr ->
          Sim.Engine.service_page_fault s addr;
          relink e)
    else
      let seq = compile_seq e i inst.Inst.next in
      fun () ->
        if e.deliver then Sim.Engine.deliver_interrupts s;
        try
          for p = 0 to Array.length runners - 1 do
            runners.(p) ()
          done;
          retire c extra i;
          seq ()
        with Memory.Page_fault addr ->
          Sim.Engine.service_page_fault s addr;
          relink e
  else if static_tgt >= 0 then begin
    let t = static_tgt in
    match runners with
    | [||] ->
        fun () ->
          if e.deliver then Sim.Engine.deliver_interrupts s;
          retire c extra t;
          e.next_pc <- t
    | [| r |] ->
        fun () ->
          if e.deliver then Sim.Engine.deliver_interrupts s;
          r ();
          retire c extra t;
          e.next_pc <- t
    | [| r1; r2 |] ->
        fun () ->
          if e.deliver then Sim.Engine.deliver_interrupts s;
          r1 ();
          r2 ();
          retire c extra t;
          e.next_pc <- t
    | rs ->
        fun () ->
          if e.deliver then Sim.Engine.deliver_interrupts s;
          for p = 0 to Array.length rs - 1 do
            rs.(p) ()
          done;
          retire c extra t;
          e.next_pc <- t
  end
  else
    (* non-memory words cannot fault: flatten the whole step into one
       closure, no body indirection *)
    let seq = compile_seq e i inst.Inst.next in
    match runners with
    | [||] ->
        fun () ->
          if e.deliver then Sim.Engine.deliver_interrupts s;
          retire c extra i;
          seq ()
    | [| r |] ->
        fun () ->
          if e.deliver then Sim.Engine.deliver_interrupts s;
          r ();
          retire c extra i;
          seq ()
    | [| r1; r2 |] ->
        fun () ->
          if e.deliver then Sim.Engine.deliver_interrupts s;
          r1 ();
          r2 ();
          retire c extra i;
          seq ()
    | rs ->
        fun () ->
          if e.deliver then Sim.Engine.deliver_interrupts s;
          for p = 0 to Array.length rs - 1 do
            rs.(p) ()
          done;
          retire c extra i;
          seq ()

let compile_word e i (inst : Inst.t) =
  if word_has_int_ack inst then begin
    e.n_fallback <- e.n_fallback + 1;
    fallback_word e
  end
  else
    match compile_native e i inst with
    | w ->
        e.n_native <- e.n_native + 1;
        w
    | exception Unsupported ->
        e.n_fallback <- e.n_fallback + 1;
        fallback_word e

(* -- translation and execution ------------------------------------------- *)

let translate (s : Sim.t) =
  let store = Sim.Engine.store s in
  let nwords = Array.length store in
  let tracing = Trace.enabled () in
  if tracing then
    Trace.span_begin ~cat:"simc" "translate"
      ~args:
        [
          ("machine", Trace.A_string (Sim.desc s).Desc.d_name);
          ("words", Trace.A_int nwords);
        ];
  let d = Sim.desc s in
  let nregs = Array.length (Sim.Engine.regs s) in
  let widths = Array.init nregs (fun i -> (Desc.reg d i).Desc.r_width) in
  (* each action makes at most one register write, five flag writes and
     one memory write *)
  let cap = Sim.Engine.buffer_capacity s in
  let dummy = Bitvec.zero 1 in
  let e =
    {
      sim = s;
      ctr = Sim.Engine.counters s;
      code = Array.make (nwords + 1) (fun () -> ());
      ints = Array.make nregs 0;
      his = Array.make nregs 0;
      widths;
      wb =
        {
          n_regs = 0;
          reg_ids = Array.make cap 0;
          reg_los = Array.make cap 0;
          reg_his = Array.make cap 0;
          n_flags = 0;
          flag_ids = Array.make (5 * cap) 0;
          flag_vals = Array.make (5 * cap) false;
          n_mem = 0;
          mem_addrs = Array.make cap 0;
          mem_vals = Array.make cap dummy;
        };
      next_pc = 0;
      bad_pc = 0;
      deliver = false;
      n_native = 0;
      n_fallback = 0;
    }
  in
  Array.iteri (fun i inst -> e.code.(i) <- compile_word e i inst) store;
  (* the sentinel slot: an out-of-range target parked here raises on its
     step, after the same interrupt delivery the interpreter would do *)
  e.code.(nwords) <-
    (fun () ->
      if e.deliver then Sim.Engine.deliver_interrupts s;
      Diag.error Diag.Execution "micro PC %d outside control store (size %d)"
        e.bad_pc nwords);
  if tracing then
    Trace.span_end ~cat:"simc" "translate"
      ~args:
        [
          ("native", Trace.A_int e.n_native);
          ("fallback", Trace.A_int e.n_fallback);
        ];
  e

let run ?(fuel = 2_000_000) e =
  let s = e.sim in
  let tracing = Trace.enabled () in
  if tracing then
    Trace.span_begin ~cat:"simc" "execute"
      ~args:
        [
          ("machine", Trace.A_string (Sim.desc s).Desc.d_name);
          ("fuel", Trace.A_int fuel);
        ];
  e.deliver <- Sim.Engine.has_interrupt_work s;
  sync_in e;
  relink e;
  let code = e.code and c = e.ctr in
  let loop () =
    let rec go fuel steps =
      if c.halted then Sim.Halted
      else if fuel <= 0 then Sim.Out_of_fuel
      else begin
        (* [next_pc] is always in [0, words]: in-range by [point], or the
           sentinel slot *)
        (Array.unsafe_get code e.next_pc) ();
        if tracing && steps land 4095 = 0 then Sim.Engine.emit_counters s;
        go (fuel - 1) (steps + 1)
      end
    in
    go fuel 1
  in
  (* the sync-out must also run when the program raises (a microtrap in
     Fault_is_error mode, an execution diagnostic): the caller observes
     the interpreter-identical state through [Sim.t] *)
  let status = Fun.protect ~finally:(fun () -> sync_out e) loop in
  if tracing then begin
    Sim.Engine.emit_counters s;
    Trace.span_end ~cat:"simc" "execute"
      ~args:
        [
          ("halted", Trace.A_bool (status = Sim.Halted));
          ("cycles", Trace.A_int (Sim.cycles s));
          ("pc", Trace.A_int (Sim.pc s));
        ]
  end;
  status
