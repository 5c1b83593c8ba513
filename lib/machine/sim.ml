(* Cycle-accurate microprogram simulator.

   Executes a control store of microinstructions on a machine description.
   Timing model: one base cycle per microinstruction, plus the largest
   [t_extra_cycles] among its ops (memory stalls).  Within a cycle, the
   machine's phases run in order; within a phase, all reads sample the
   phase-start state and all writes commit together — the transport-delay
   model that lets a single horizontal microinstruction swap two registers,
   and that gives S*'s [cocycle] its phase-by-phase meaning.  Reads need no
   snapshot: every write is buffered until the phase's actions are all
   evaluated, so the live state *is* the phase-start state.  Each word's
   ops are split by phase once, at [load_store], not on every step.

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

type t = {
  desc : Desc.t;
  regs : Bitvec.t array;
  flags : bool array;  (* indexed by flag_index *)
  mem : Memory.t;
  mutable store : Inst.t array;
  mutable phase_ops : Inst.op list array array;  (* per word, by phase *)
  mutable extra : int array;  (* per word, [Inst.inst_extra_cycles] *)
  (* the write buffer of the phase being executed, sized at [load_store]
     for the store's busiest phase: register writes in order, one slot
     per flag (-1 unwritten, else 0/1: the last write wins), memory
     writes newest first *)
  mutable wb_n : int;
  mutable wb_ids : int array;
  mutable wb_vals : Bitvec.t array;
  wb_flags : int array;
  mutable wb_mem : (int * Bitvec.t) list;
  mutable wb_ack : bool;
  mutable mpc : int;
  mutable call_stack : int list;
  mutable halted : bool;
  mutable cycles : int;
  mutable insts_executed : int;
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
    store = [||];
    phase_ops = [||];
    extra = [||];
    wb_n = 0;
    wb_ids = [||];
    wb_vals = [||];
    wb_flags = Array.make 5 (-1);
    wb_mem = [];
    wb_ack = false;
    mpc = 0;
    call_stack = [];
    halted = false;
    cycles = 0;
    insts_executed = 0;
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
let pc t = t.mpc
let cycles t = t.cycles
let insts_executed t = t.insts_executed
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

(* Each action writes at most one register, so a phase's action count
   bounds its register writes: the write buffer's capacity. *)
let phase_actions ops =
  List.fold_left
    (fun n (op : Inst.op) -> n + List.length op.Inst.op_t.Desc.t_actions) 0 ops

let load_store t insts =
  let a = Array.of_list insts in
  if Array.length a > t.desc.Desc.d_store_words then
    Diag.error Diag.Assembly
      "program needs %d control-store words; %s has only %d" (Array.length a)
      t.desc.Desc.d_name t.desc.Desc.d_store_words;
  (* filled in place: [Array.map] would seed a long array with a young
     value, which forces a minor collection *)
  let phases = Array.make (Array.length a) [||] in
  Array.iteri
    (fun i (inst : Inst.t) ->
      phases.(i) <- Inst.ops_by_phase t.desc inst.Inst.ops)
    a;
  let cap =
    Array.fold_left
      (Array.fold_left (fun m ops -> max m (phase_actions ops)))
      1 phases
  in
  t.store <- a;
  t.phase_ops <- phases;
  t.extra <- Array.map Inst.inst_extra_cycles a;
  t.wb_ids <- Array.make cap 0;
  t.wb_vals <- Array.make cap (Bitvec.zero 1);
  t.mpc <- 0;
  t.halted <- false;
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
  t.mpc <- 0;
  t.call_stack <- [];
  t.halted <- false;
  t.cycles <- 0;
  t.insts_executed <- 0;
  t.int_schedule <- [];
  t.int_pending <- false;
  t.int_pending_since <- 0;
  t.int_polls <- 0;
  t.int_serviced <- 0;
  t.int_latency_total <- 0;
  t.int_latency_max <- 0;
  t.traps_taken <- 0

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
      buffer_reg t id
        (Bitvec.resize ~width:(Desc.reg t.desc id).Desc.r_width (eval t args e))
  | Rtl.Arith (d, op2, e1, e2) ->
      let id = dest_reg_id t args d in
      let w = (Desc.reg t.desc id).Desc.r_width in
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
      let w = (Desc.reg t.desc id).Desc.r_width in
      let v1 = Bitvec.resize ~width:w (eval t args e1) in
      let v2 = Bitvec.resize ~width:w (eval t args e2) in
      buffer_reg t id (fst (Rtl.eval_abinop op2 v1 v2 ~carry_in:t.flags.(0)))
  | Rtl.Mem_read (d, addr) ->
      let id = dest_reg_id t args d in
      let a = Bitvec.to_int (Bitvec.resize ~width:62 (eval t args addr)) in
      let v = Memory.read t.mem a in
      buffer_reg t id (Bitvec.resize ~width:(Desc.reg t.desc id).Desc.r_width v)
  | Rtl.Mem_write (addr, value) ->
      let a = Bitvec.to_int (Bitvec.resize ~width:62 (eval t args addr)) in
      t.wb_mem <- (a, eval t args value) :: t.wb_mem
  | Rtl.Set_flag (f, e) ->
      t.wb_flags.(flag_index f) <- Bool.to_int (Bitvec.lsb (eval t args e))
  | Rtl.Int_ack -> t.wb_ack <- true

(* Top-level loops rather than [List.iter], whose closures would be a
   good part of what a step allocates. *)
let rec exec_actions t args = function
  | [] -> ()
  | a :: rest ->
      exec_action t args a;
      exec_actions t args rest

let rec exec_ops t = function
  | [] -> ()
  | (op : Inst.op) :: rest ->
      exec_actions t op.Inst.op_args op.Inst.op_t.Desc.t_actions;
      exec_ops t rest

(* Execute all actions of the ops scheduled in one phase.  Every register,
   flag and memory write is buffered and committed only after all of the
   phase's actions are evaluated, so every read (memory reads included)
   sees the phase-start state; a microtrap mid-phase discards the buffer. *)
let exec_phase t ops =
  t.wb_n <- 0;
  Array.fill t.wb_flags 0 5 (-1);
  t.wb_mem <- [];
  t.wb_ack <- false;
  exec_ops t ops;
  (* commit: memory writes can still fault, so do them first *)
  List.iter (fun (a, v) -> Memory.write t.mem a v) (List.rev t.wb_mem);
  for i = 0 to t.wb_n - 1 do
    t.regs.(t.wb_ids.(i)) <- t.wb_vals.(i)
  done;
  for i = 0 to 4 do
    if t.wb_flags.(i) >= 0 then t.flags.(i) <- t.wb_flags.(i) = 1
  done;
  if t.wb_ack && t.int_pending then begin
    t.int_pending <- false;
    t.int_serviced <- t.int_serviced + 1;
    let lat = t.cycles - t.int_pending_since in
    t.int_latency_total <- t.int_latency_total + lat;
    t.int_latency_max <- max t.int_latency_max lat;
    if Trace.enabled () then
      Trace.instant ~cat:"sim" "interrupt_acked"
        ~args:
          [
            ("latency_cycles", Trace.A_int lat);
            ("cycle", Trace.A_int t.cycles);
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
  | c :: rest when c <= t.cycles ->
      t.int_schedule <- rest;
      if not t.int_pending then begin
        t.int_pending <- true;
        t.int_pending_since <- t.cycles;
        if Trace.enabled () then
          Trace.instant ~cat:"sim" "interrupt_delivered"
            ~args:[ ("cycle", Trace.A_int t.cycles) ]
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
        t.cycles
  | Restart ->
      (* Service the fault and restart the microprogram.  Register
         values survive (the macroarchitecture saves and restores
         them), which is precisely the survey's incread hazard. *)
      t.traps_taken <- t.traps_taken + 1;
      t.cycles <- t.cycles + fault_penalty;
      if Trace.enabled () then
        Trace.instant ~cat:"sim" "microtrap"
          ~args:
            [
              ("addr", Trace.A_int addr);
              ("pc", Trace.A_int t.mpc);
              ("cycle", Trace.A_int t.cycles);
            ];
      Memory.mark_present t.mem ~page:(Memory.page_of t.mem addr);
      t.mpc <- 0;
      t.call_stack <- []

let step t =
  if t.halted then ()
  else begin
    deliver_interrupts t;
    if t.mpc < 0 || t.mpc >= Array.length t.store then
      Diag.error Diag.Execution "micro PC %d outside control store (size %d)"
        t.mpc (Array.length t.store);
    let pc = t.mpc in
    let inst = t.store.(pc) in
    (try
       let phases = t.phase_ops.(pc) in
       for p = 0 to Array.length phases - 1 do
         match phases.(p) with [] -> () | ops -> exec_phase t ops
       done;
       t.cycles <- t.cycles + 1 + t.extra.(pc);
       t.insts_executed <- t.insts_executed + 1;
       (match inst.Inst.next with
       | Inst.Next -> t.mpc <- t.mpc + 1
       | Inst.Jump a -> t.mpc <- a
       | Inst.Branch (c, a) ->
           if eval_cond t c then t.mpc <- a else t.mpc <- t.mpc + 1
       | Inst.Dispatch { dreg; hi; lo; base } ->
           let idx = Bitvec.to_int (Bitvec.extract ~hi ~lo t.regs.(dreg)) in
           t.mpc <- base + idx
       | Inst.Call a ->
           t.call_stack <- (t.mpc + 1) :: t.call_stack;
           t.mpc <- a
       | Inst.Return -> (
           match t.call_stack with
           | pc :: rest ->
               t.call_stack <- rest;
               t.mpc <- pc
           | [] -> Diag.error Diag.Execution "return with empty microstack")
       | Inst.Halt -> t.halted <- true)
     with Memory.Page_fault addr -> service_page_fault t addr)
  end

let emit_counters t =
  Trace.counter ~cat:"sim" "cycles" t.cycles;
  Trace.counter ~cat:"sim" "insts_executed" t.insts_executed;
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
    if t.halted then Halted
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
          ("cycles", Trace.A_int t.cycles);
          ("pc", Trace.A_int t.mpc);
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
  Printf.bprintf b "pc=%d halted=%b cycles=%d insts=%d\n" t.mpc t.halted
    t.cycles t.insts_executed;
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
  let phase_ops t = t.phase_ops
  let buffer_capacity t = Array.length t.wb_ids
  let halted t = t.halted
  let set_halted t b = t.halted <- b
  let set_pc t pc = t.mpc <- pc
  let push_call t pc = t.call_stack <- pc :: t.call_stack

  let pop_call t =
    match t.call_stack with
    | [] -> None
    | pc :: rest ->
        t.call_stack <- rest;
        Some pc

  (* one call per retired word: its cycles, the instruction count and
     the pc it hands on to *)
  let retire t cycles pc =
    t.cycles <- t.cycles + cycles;
    t.insts_executed <- t.insts_executed + 1;
    t.mpc <- pc

  let has_interrupt_work t = t.int_schedule <> []
  let deliver_interrupts = deliver_interrupts

  let poll_int_pending t =
    t.int_polls <- t.int_polls + 1;
    t.int_pending

  let service_page_fault = service_page_fault
  let emit_counters = emit_counters
end
