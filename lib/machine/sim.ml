(* Cycle-accurate microprogram simulator.

   Executes a control store of microinstructions on a machine description.
   Timing model: one base cycle per microinstruction, plus the largest
   [t_extra_cycles] among its ops (memory stalls).  Within a cycle, the
   machine's phases run in order; within a phase, all reads sample the
   phase-start state and all writes commit together — the transport-delay
   model that lets a single horizontal microinstruction swap two registers,
   and that gives S*'s [cocycle] its phase-by-phase meaning.  Reads need no
   snapshot: every write is buffered until the phase's actions are all
   evaluated, so the live state *is* the phase-start state.  Each word is
   split by phase and prepared ([prepare_op]) on its first execution.  The
   dev profile builds with [-opaque], which inlines no call into another
   module: the per-cycle path calls out only for arithmetic and memory.

   Interrupts (§2.1.5): the harness schedules arrival cycles; a pending
   interrupt is visible to the [C_int_pending] condition and cleared by the
   [Int_ack] action.  Microtraps: a memory access to an absent page aborts
   the current microinstruction (its phase's writes are discarded), services
   the fault, and — per the survey's restart model — resumes at the
   *restart point* of the microprogram, word 0, reproducing the
   double-increment hazard of the survey's `incread` example. *)

open Msl_bitvec
module Diag = Msl_util.Diag
module Trace = Msl_util.Trace

type trap_mode =
  | Restart  (* service the fault, restart the microprogram *)
  | Fault_is_error  (* surface the fault as a diagnostic *)

type status = Halted | Out_of_fuel

type counters = {
  mutable pc : int;
  mutable cycles : int;
  mutable insts : int;
  mutable halted : bool;
}

type phase = (Inst.arg array * Rtl.action) array  (* each with its operands *)

type t = {
  desc : Desc.t;
  regs : Bitvec.t array;
  flags : bool array;  (* indexed by flag_index *)
  mem : Memory.t;
  ctr : counters;
  mutable store : Inst.t array;
  mutable prepared : phase array array;  (* per word; [||] until it runs *)
  mutable extra : int array;  (* per word, [Inst.inst_extra_cycles] *)
  (* the write buffer of the phase being executed, sized at [load_store]
     for the store's busiest word: register writes in order, one slot
     per flag (-1 unwritten, else 0/1: the last write wins), memory
     writes newest first *)
  mutable wb_n : int;
  mutable wb_ids : int array;
  mutable wb_vals : Bitvec.t array;
  wb_flags : int array;
  mutable wb_mem : (int * Bitvec.t) list;
  mutable wb_ack : bool;
  mutable call_stack : int list;
  (* interrupts *)
  mutable int_schedule : int list;  (* sorted cycle numbers, not yet arrived *)
  mutable int_pending : bool;
  mutable int_pending_since : int;
  mutable int_polls : int;  (* C_int_pending condition evaluations *)
  mutable int_serviced : int;
  mutable int_latency_total : int;
  mutable int_latency_max : int;
  (* microtraps *)
  trap_mode : trap_mode;
  mutable traps_taken : int;
}

(* [Rtl.flag_index], copied so that the dev build inlines it here. *)
let flag_index = function Rtl.C -> 0 | Rtl.V -> 1 | Rtl.Z -> 2 | Rtl.N -> 3 | Rtl.U -> 4

(* Main-memory size in words, and the cycles one serviced page fault
   costs in [Restart] mode. *)
let mem_words = 4096
let fault_penalty = 200

let create ?(trap_mode = Fault_is_error) (desc : Desc.t) =
  {
    desc;
    regs =
      Array.map (fun (r : Desc.reg) -> Bitvec.zero r.Desc.r_width) desc.d_regs;
    flags = Array.make 5 false;
    mem = Memory.create ~word_width:desc.d_word ~words:mem_words;
    ctr = { pc = 0; cycles = 0; insts = 0; halted = false };
    store = [||];
    prepared = [||];
    extra = [||];
    wb_n = 0;
    wb_ids = [||];
    wb_vals = [||];
    wb_flags = Array.make 5 (-1);
    wb_mem = [];
    wb_ack = false;
    call_stack = [];
    int_schedule = [];
    int_pending = false;
    int_pending_since = 0;
    int_polls = 0;
    int_serviced = 0;
    int_latency_total = 0;
    int_latency_max = 0;
    trap_mode;
    traps_taken = 0;
  }

let desc t = t.desc
let memory t = t.mem
let pc t = t.ctr.pc
let cycles t = t.ctr.cycles
let insts_executed t = t.ctr.insts
let traps_taken t = t.traps_taken
let interrupts_serviced t = t.int_serviced

let interrupt_latency_stats t =
  if t.int_serviced = 0 then (0.0, 0)
  else
    (float_of_int t.int_latency_total /. float_of_int t.int_serviced,
     t.int_latency_max)

let get_reg t name = t.regs.((Desc.get_reg t.desc name).Desc.r_id)
let get_reg_id t id = t.regs.(id)

let set_reg t name v =
  let r = Desc.get_reg t.desc name in
  t.regs.(r.Desc.r_id) <- Bitvec.resize ~width:r.Desc.r_width v

let set_reg_int t name v =
  let r = Desc.get_reg t.desc name in
  t.regs.(r.Desc.r_id) <- Bitvec.of_int ~width:r.Desc.r_width v

let get_flag t f = t.flags.(flag_index f)
let set_flag t f b = t.flags.(flag_index f) <- b

(* Each action writes at most one register, so a word's action count
   bounds the register writes any of its phases buffers: the largest is
   the write buffer's capacity. *)
let word_actions (inst : Inst.t) =
  List.fold_left
    (fun n (op : Inst.op) -> n + List.length op.Inst.op_t.Desc.t_actions)
    0 inst.Inst.ops

let load_store t insts =
  let a = Array.of_list insts in
  if Array.length a > t.desc.Desc.d_store_words then
    Diag.error Diag.Assembly
      "program needs %d control-store words; %s has only %d" (Array.length a)
      t.desc.Desc.d_name t.desc.Desc.d_store_words;
  let cap = Array.fold_left (fun m inst -> max m (word_actions inst)) 1 a in
  t.store <- a;
  t.prepared <- Array.make (Array.length a) [||];
  t.extra <- Array.map Inst.inst_extra_cycles a;
  t.wb_ids <- Array.make cap 0;
  t.wb_vals <- Array.make cap (Bitvec.zero 1);
  t.ctr.pc <- 0;
  t.ctr.halted <- false;
  t.call_stack <- []

let schedule_interrupts t cycles_list =
  t.int_schedule <- List.sort compare cycles_list

(* Back to the post-[create]+[load_store] state without re-decoding the
   program: the store survives, and every piece of mutable state is reset
   in place (the compiled engine's closures capture the register, flag
   and memory arrays, so swapping them out would silently detach it).
   The trap mode is kept: it describes the harness, not the run. *)
let reset t =
  Array.iteri
    (fun i (r : Desc.reg) -> t.regs.(i) <- Bitvec.zero r.Desc.r_width)
    t.desc.Desc.d_regs;
  Array.fill t.flags 0 (Array.length t.flags) false;
  Memory.reset t.mem;
  t.ctr.pc <- 0;
  t.call_stack <- [];
  t.ctr.halted <- false;
  t.ctr.cycles <- 0;
  t.ctr.insts <- 0;
  t.int_schedule <- [];
  t.int_pending <- false;
  t.int_pending_since <- 0;
  t.int_polls <- 0;
  t.int_serviced <- 0;
  t.int_latency_total <- 0;
  t.int_latency_max <- 0;
  t.traps_taken <- 0

(* -- first-execution preparation ----------------------------------------- *)

(* One op's actions, rewritten so that executing them looks nothing up:
   immediate operands fold to constants; a named register becomes an
   operand slot, appended to the op's arguments, that holds its id; a
   constant that its use resizes (a [Zext], a destination's width) is
   resized here.  Preparation never raises: an action whose rewriting
   fails (an unknown register, an operand out of range, an immediate
   destination) stays as it is, so it fails in the same phase, with the
   same error, as it would unprepared. *)
let prepare_op t (op : Inst.op) =
  let args = op.Inst.op_args in
  let named = ref [] in
  let slot (r : Desc.reg) =
    named := Inst.A_reg r.Desc.r_id :: !named;
    Array.length args + List.length !named - 1
  in
  let sized w = function
    | Rtl.Const v -> Rtl.Const (Bitvec.resize ~width:w v)
    | e -> e
  in
  let rec pe (e : Rtl.expr) =
    match e with
    | Rtl.Opnd i -> (
        match args.(i) with Inst.A_imm v -> Rtl.Const v | Inst.A_reg _ -> e)
    | Rtl.Reg name -> Rtl.Opnd (slot (Desc.get_reg t.desc name))
    | Rtl.Const _ | Rtl.Flag _ -> e
    | Rtl.Add (a, b) -> Rtl.Add (pe a, pe b)
    | Rtl.Sub (a, b) -> Rtl.Sub (pe a, pe b)
    | Rtl.And (a, b) -> Rtl.And (pe a, pe b)
    | Rtl.Or (a, b) -> Rtl.Or (pe a, pe b)
    | Rtl.Xor (a, b) -> Rtl.Xor (pe a, pe b)
    | Rtl.Not a -> Rtl.Not (pe a)
    | Rtl.Slice (a, hi, lo) -> Rtl.Slice (pe a, hi, lo)
    | Rtl.Concat (a, b) -> Rtl.Concat (pe a, pe b)
    | Rtl.Zext (w, a) -> (
        match pe a with Rtl.Const _ as k -> sized w k | a -> Rtl.Zext (w, a))
    | Rtl.Mux (c, a, b) -> Rtl.Mux (pe c, pe a, pe b)
  in
  (* a destination, and the width its value is resized to *)
  let dest (d : Rtl.dest) =
    match d with
    | Rtl.D_reg name ->
        let r = Desc.get_reg t.desc name in
        (Rtl.D_opnd (slot r), r.Desc.r_width)
    | Rtl.D_opnd i -> (
        match args.(i) with
        | Inst.A_reg r -> (d, (Desc.reg t.desc r).Desc.r_width)
        | Inst.A_imm _ -> invalid_arg "immediate destination")
  in
  let action (a : Rtl.action) =
    try
      match a with
      | Rtl.Assign (d, e) ->
          let d, w = dest d in
          Rtl.Assign (d, sized w (pe e))
      | Rtl.Arith (d, op, a, b) ->
          let d, w = dest d in
          Rtl.Arith (d, op, sized w (pe a), sized w (pe b))
      | Rtl.Arith_nf (d, op, a, b) ->
          let d, w = dest d in
          Rtl.Arith_nf (d, op, sized w (pe a), sized w (pe b))
      | Rtl.Arith_flags (op, a, b) -> Rtl.Arith_flags (op, pe a, pe b)
      | Rtl.Mem_read (d, a) -> Rtl.Mem_read (fst (dest d), pe a)
      | Rtl.Mem_write (a, v) -> Rtl.Mem_write (pe a, pe v)
      | Rtl.Set_flag (f, e) -> Rtl.Set_flag (f, pe e)
      | Rtl.Int_ack -> a
    with Invalid_argument _ -> a
  in
  let acts = List.map action op.Inst.op_t.Desc.t_actions in
  let args = Array.append args (Array.of_list (List.rev !named)) in
  List.map (fun a -> (args, a)) acts

(* word [pc]'s phases (a machine has at least one), prepared once *)
let phases t pc =
  let p = t.prepared.(pc) in
  if Array.length p > 0 then p
  else begin
    let prep ops = Array.of_list (List.concat_map (prepare_op t) ops) in
    let p = Array.map prep (Inst.ops_by_phase t.desc t.store.(pc).Inst.ops) in
    t.prepared.(pc) <- p;
    p
  end

(* -- expression evaluation ---------------------------------------------- *)

(* Reads the live registers and flags, which hold the phase-start state
   while a phase runs (see [exec_phase]). *)
let rec eval t (args : Inst.arg array) (e : Rtl.expr) : Bitvec.t =
  match e with
  | Rtl.Opnd i -> (
      match args.(i) with Inst.A_reg r -> t.regs.(r) | Inst.A_imm v -> v)
  | Rtl.Reg name -> t.regs.((Desc.get_reg t.desc name).Desc.r_id)
  | Rtl.Const v -> v
  | Rtl.Flag f -> Bitvec.of_bool t.flags.(flag_index f)
  | Rtl.Add (a, b) -> Bitvec.add (eval t args a) (eval t args b)
  | Rtl.Sub (a, b) -> Bitvec.sub (eval t args a) (eval t args b)
  | Rtl.And (a, b) -> Bitvec.logand (eval t args a) (eval t args b)
  | Rtl.Or (a, b) -> Bitvec.logor (eval t args a) (eval t args b)
  | Rtl.Xor (a, b) -> Bitvec.logxor (eval t args a) (eval t args b)
  | Rtl.Not a -> Bitvec.lognot (eval t args a)
  | Rtl.Slice (a, hi, lo) -> Bitvec.extract ~hi ~lo (eval t args a)
  | Rtl.Concat (a, b) -> Bitvec.concat (eval t args a) (eval t args b)
  | Rtl.Zext (w, a) -> Bitvec.resize ~width:w (eval t args a)
  | Rtl.Mux (c, a, b) ->
      if Bitvec.is_zero (eval t args c) then eval t args b else eval t args a

let dest_reg_id t (args : Inst.arg array) = function
  | Rtl.D_reg name -> (Desc.get_reg t.desc name).Desc.r_id
  | Rtl.D_opnd i -> (
      match args.(i) with
      | Inst.A_reg r -> r
      | Inst.A_imm _ ->
          Diag.error Diag.Execution "microop writes to an immediate operand")

(* a destination's width: [Desc.reg]'s, with its error for a bad id *)
let reg_width t id =
  let regs = t.desc.Desc.d_regs in
  if id >= 0 && id < Array.length regs then regs.(id).Desc.r_width
  else (Desc.reg t.desc id).Desc.r_width

(* [Bitvec.to_int (Bitvec.resize ~width:62 v)] without the resized copy *)
let address v = Int64.to_int (Bitvec.to_int64 v) land max_int

let buffer_reg t id v =
  t.wb_ids.(t.wb_n) <- id;
  t.wb_vals.(t.wb_n) <- v;
  t.wb_n <- t.wb_n + 1

let buffer_flags t (f : Bitvec.flags) =
  let b = t.wb_flags in
  b.(0) <- Bool.to_int f.Bitvec.carry;
  b.(1) <- Bool.to_int f.overflow;
  b.(2) <- Bool.to_int f.zero;
  b.(3) <- Bool.to_int f.negative;
  b.(4) <- Bool.to_int f.shifted_out

let exec_action t args (a : Rtl.action) =
  match a with
  | Rtl.Assign (d, e) ->
      let id = dest_reg_id t args d in
      buffer_reg t id (Bitvec.resize ~width:(reg_width t id) (eval t args e))
  | Rtl.Arith (d, op2, e1, e2) ->
      let id = dest_reg_id t args d in
      let w = reg_width t id in
      let v1 = Bitvec.resize ~width:w (eval t args e1) in
      let v2 = Bitvec.resize ~width:w (eval t args e2) in
      let r, f = Rtl.eval_abinop op2 v1 v2 ~carry_in:t.flags.(0) in
      buffer_reg t id r;
      buffer_flags t f
  | Rtl.Arith_flags (op2, e1, e2) ->
      let v1 = eval t args e1 in
      let v2 = Bitvec.resize ~width:(Bitvec.width v1) (eval t args e2) in
      let _, f = Rtl.eval_abinop op2 v1 v2 ~carry_in:t.flags.(0) in
      buffer_flags t f
  | Rtl.Arith_nf (d, op2, e1, e2) ->
      let id = dest_reg_id t args d in
      let w = reg_width t id in
      let v1 = Bitvec.resize ~width:w (eval t args e1) in
      let v2 = Bitvec.resize ~width:w (eval t args e2) in
      buffer_reg t id (Rtl.eval_abinop_result op2 v1 v2 ~carry_in:t.flags.(0))
  | Rtl.Mem_read (d, addr) ->
      let id = dest_reg_id t args d in
      let v = Memory.read t.mem (address (eval t args addr)) in
      buffer_reg t id (Bitvec.resize ~width:(reg_width t id) v)
  | Rtl.Mem_write (addr, value) ->
      let a = address (eval t args addr) in
      t.wb_mem <- (a, eval t args value) :: t.wb_mem
  | Rtl.Set_flag (f, e) ->
      t.wb_flags.(flag_index f) <- Bool.to_int (Bitvec.lsb (eval t args e))
  | Rtl.Int_ack -> t.wb_ack <- true

(* Execute all actions of one phase.  Every register, flag and memory
   write is buffered and committed only after all of the phase's actions
   are evaluated, so every read (memory reads included) sees the
   phase-start state; a microtrap mid-phase discards the buffer.  The flag
   slots are reset by five stores: [Array.fill] is a C call. *)
let exec_phase t (acts : phase) =
  let f = t.wb_flags in
  t.wb_n <- 0;
  f.(0) <- -1;
  f.(1) <- -1;
  f.(2) <- -1;
  f.(3) <- -1;
  f.(4) <- -1;
  (match t.wb_mem with [] -> () | _ :: _ -> t.wb_mem <- []);
  t.wb_ack <- false;
  for i = 0 to Array.length acts - 1 do
    let args, a = acts.(i) in
    exec_action t args a
  done;
  (* commit: memory writes can still fault, so do them first *)
  (match t.wb_mem with
  | [] -> ()
  | l -> List.iter (fun (a, v) -> Memory.write t.mem a v) (List.rev l));
  for i = 0 to t.wb_n - 1 do
    t.regs.(t.wb_ids.(i)) <- t.wb_vals.(i)
  done;
  for i = 0 to 4 do
    if t.wb_flags.(i) >= 0 then t.flags.(i) <- t.wb_flags.(i) = 1
  done;
  if t.wb_ack && t.int_pending then begin
    t.int_pending <- false;
    t.int_serviced <- t.int_serviced + 1;
    let lat = t.ctr.cycles - t.int_pending_since in
    t.int_latency_total <- t.int_latency_total + lat;
    t.int_latency_max <- max t.int_latency_max lat;
    if Trace.enabled () then
      Trace.instant ~cat:"sim" "interrupt_acked"
        ~args:
          [
            ("latency_cycles", Trace.A_int lat);
            ("cycle", Trace.A_int t.ctr.cycles);
          ]
  end

let eval_cond t = function
  | Desc.C_flag (f, v) -> get_flag t f = v
  | Desc.C_reg_zero (r, v) -> Bitvec.is_zero t.regs.(r) = v
  | Desc.C_reg_mask (r, mask) ->
      let v = t.regs.(r) in
      let n = min (Array.length mask) (Bitvec.width v) in
      let rec loop i =
        if i >= n then true
        else
          match mask.(i) with
          | Desc.Mx -> loop (i + 1)
          | Desc.Mt -> Bitvec.bit v i && loop (i + 1)
          | Desc.Mf -> (not (Bitvec.bit v i)) && loop (i + 1)
      in
      loop 0
  | Desc.C_int_pending ->
      t.int_polls <- t.int_polls + 1;
      t.int_pending

let deliver_interrupts t =
  match t.int_schedule with
  | c :: rest when c <= t.ctr.cycles ->
      t.int_schedule <- rest;
      if not t.int_pending then begin
        t.int_pending <- true;
        t.int_pending_since <- t.ctr.cycles;
        if Trace.enabled () then
          Trace.instant ~cat:"sim" "interrupt_delivered"
            ~args:[ ("cycle", Trace.A_int t.ctr.cycles) ]
      end
  | _ :: _ | [] -> ()

(* Shared between the interpreter's step and the compiled engine: what
   happens when a memory access hits an absent page.  In [Restart] mode
   the faulting word has already discarded (or never committed) its
   current phase's writes; earlier phases stay committed — the survey's
   incread hazard. *)
let service_page_fault t addr =
  match t.trap_mode with
  | Fault_is_error ->
      Diag.error Diag.Execution "page fault at address %d (cycle %d)" addr
        t.ctr.cycles
  | Restart ->
      (* Service the fault and restart the microprogram.  Register
         values survive (the macroarchitecture saves and restores
         them), which is precisely the survey's incread hazard. *)
      t.traps_taken <- t.traps_taken + 1;
      t.ctr.cycles <- t.ctr.cycles + fault_penalty;
      if Trace.enabled () then
        Trace.instant ~cat:"sim" "microtrap"
          ~args:
            [
              ("addr", Trace.A_int addr);
              ("pc", Trace.A_int t.ctr.pc);
              ("cycle", Trace.A_int t.ctr.cycles);
            ];
      Memory.mark_present t.mem ~page:(Memory.page_of t.mem addr);
      t.ctr.pc <- 0;
      t.call_stack <- []

let step t =
  let c = t.ctr in
  if c.halted then ()
  else begin
    deliver_interrupts t;
    if c.pc < 0 || c.pc >= Array.length t.store then
      Diag.error Diag.Execution "micro PC %d outside control store (size %d)"
        c.pc (Array.length t.store);
    let pc = c.pc in
    let inst = t.store.(pc) in
    let phases = phases t pc in
    try
      for p = 0 to Array.length phases - 1 do
        let acts = phases.(p) in
        if Array.length acts > 0 then exec_phase t acts
      done;
      c.cycles <- c.cycles + 1 + t.extra.(pc);
      c.insts <- c.insts + 1;
      match inst.Inst.next with
      | Inst.Next -> c.pc <- pc + 1
      | Inst.Jump a -> c.pc <- a
      | Inst.Branch (cond, a) ->
          if eval_cond t cond then c.pc <- a else c.pc <- pc + 1
      | Inst.Dispatch { dreg; hi; lo; base } ->
          let idx = Bitvec.to_int (Bitvec.extract ~hi ~lo t.regs.(dreg)) in
          c.pc <- base + idx
      | Inst.Call a ->
          t.call_stack <- (pc + 1) :: t.call_stack;
          c.pc <- a
      | Inst.Return -> (
          match t.call_stack with
          | ret :: rest ->
              t.call_stack <- rest;
              c.pc <- ret
          | [] -> Diag.error Diag.Execution "return with empty microstack")
      | Inst.Halt -> c.halted <- true
    with Memory.Page_fault addr -> service_page_fault t addr
  end

let emit_counters t =
  Trace.counter ~cat:"sim" "cycles" t.ctr.cycles;
  Trace.counter ~cat:"sim" "insts_executed" t.ctr.insts;
  Trace.counter ~cat:"sim" "interrupt_polls" t.int_polls;
  if t.traps_taken > 0 then
    Trace.counter ~cat:"sim" "microtraps" t.traps_taken

let run ?(fuel = 2_000_000) t =
  let tracing = Trace.enabled () in
  if tracing then
    Trace.span_begin ~cat:"sim" "run"
      ~args:
        [
          ("machine", Trace.A_string t.desc.Desc.d_name);
          ("fuel", Trace.A_int fuel);
        ];
  let rec loop fuel steps =
    if t.ctr.halted then Halted
    else if fuel <= 0 then Out_of_fuel
    else begin
      step t;
      (* periodic progress counters; steps are counted here, not in
         [step], so the disabled path costs exactly one branch *)
      if tracing && steps land 4095 = 0 then emit_counters t;
      loop (fuel - 1) (steps + 1)
    end
  in
  let status = loop fuel 1 in
  if tracing then begin
    emit_counters t;
    Trace.span_end ~cat:"sim" "run"
      ~args:
        [
          ("halted", Trace.A_bool (status = Halted));
          ("cycles", Trace.A_int t.ctr.cycles);
          ("pc", Trace.A_int t.ctr.pc);
        ]
  end;
  status

(* -- state digest -------------------------------------------------------- *)

(* One line per observable fact, so a differential failure diffs cleanly.
   Everything an engine could get wrong is here: architectural state,
   timing, the interrupt latency accounting, trap and memory traffic
   counters.  Memory is listed sparsely (nonzero words only).  The
   architectural lines (registers, flags, memory) come last, so
   [arch_digest] is exactly the tail of [state_digest]. *)
let add_arch_digest b t =
  Array.iteri
    (fun i v ->
      Printf.bprintf b "%s=%s\n" (Desc.reg_name t.desc i) (Bitvec.to_string v))
    t.regs;
  Printf.bprintf b "flags=%s\n"
    (String.concat ""
       (List.map
          (fun f ->
            if t.flags.(flag_index f) then Rtl.flag_name f else "-")
          Rtl.all_flags));
  for a = 0 to Memory.size t.mem - 1 do
    let v = Memory.peek t.mem a in
    if not (Bitvec.is_zero v) then
      Printf.bprintf b "m[%d]=%s\n" a (Bitvec.to_string v)
  done

let arch_digest t =
  let b = Buffer.create 256 in
  add_arch_digest b t;
  Buffer.contents b

let state_digest t =
  let b = Buffer.create 512 in
  Printf.bprintf b "pc=%d halted=%b cycles=%d insts=%d\n" t.ctr.pc t.ctr.halted
    t.ctr.cycles t.ctr.insts;
  Printf.bprintf b "traps=%d polls=%d serviced=%d latency=%d/%d pending=%b\n"
    t.traps_taken t.int_polls t.int_serviced t.int_latency_total
    t.int_latency_max t.int_pending;
  Printf.bprintf b "mem reads=%d writes=%d faults=%d\n" (Memory.reads t.mem)
    (Memory.writes t.mem) (Memory.faults t.mem);
  Printf.bprintf b "stack=%s\n"
    (String.concat "," (List.map string_of_int t.call_stack));
  add_arch_digest b t;
  Buffer.contents b

(* -- engine access ------------------------------------------------------- *)

(* The doorway for the compiled engine (Simc): it executes pre-decoded
   closures against this same state record, falls back to [step] at
   interrupt-service boundaries, and shares the trap servicing above, so
   the two engines are observationally identical by construction
   everywhere except the dispatch loop. *)
module Engine = struct
  let regs t = t.regs
  let flags t = t.flags
  let store t = t.store
  let counters t = t.ctr
  let buffer_capacity t = Array.length t.wb_ids
  let push_call t pc = t.call_stack <- pc :: t.call_stack

  let pop_call t =
    match t.call_stack with
    | [] -> None
    | pc :: rest ->
        t.call_stack <- rest;
        Some pc

  let has_interrupt_work t = t.int_schedule <> []
  let deliver_interrupts = deliver_interrupts

  let poll_int_pending t =
    t.int_polls <- t.int_polls + 1;
    t.int_pending

  let service_page_fault = service_page_fault
  let emit_counters = emit_counters
end
