(* The toolkit façade: compile any of the four surveyed languages to any
   machine model, load, run, and collect metrics. *)

open Msl_machine
module Pipeline = Msl_mir.Pipeline
module Diag = Msl_util.Diag
module Trace = Msl_util.Trace

type language = Simpl | Empl | Sstar | Yalll

let language_name = function
  | Simpl -> "SIMPL"
  | Empl -> "EMPL"
  | Sstar -> "S*"
  | Yalll -> "YALLL"

let language_of_string s =
  match String.lowercase_ascii s with
  | "simpl" -> Simpl
  | "empl" -> Empl
  | "sstar" | "s*" | "s" -> Sstar
  | "yalll" -> Yalll
  | other -> invalid_arg (Printf.sprintf "unknown language %S" other)

(* Which simulation engine executes a program: the cycle-accurate
   interpreter, or the compiled (closure-translated) engine, which is
   observationally identical — the differential oracle holds it to
   byte-equal state digests — but roughly an order of magnitude
   faster.  The library default stays [Interp]: it is the reference
   semantics, and translation is wasted work for one short run.  The
   [mslc run] driver defaults to [Compiled]. *)
type engine = Interp | Compiled

let engine_name = function Interp -> "interp" | Compiled -> "compiled"

let engine_of_string s =
  match String.lowercase_ascii s with
  | "interp" | "interpreter" | "interpreted" -> Interp
  | "compiled" | "compile" | "simc" -> Compiled
  | other -> invalid_arg (Printf.sprintf "unknown engine %S" other)

(* A write to a closed pipe or socket, in either of the forms OCaml
   surfaces it: Unix syscalls raise Unix_error EPIPE, channel writes
   raise Sys_error with a "Broken pipe" text (prefix varies by
   operation). *)
let is_broken_pipe = function
  | Unix.Unix_error (Unix.EPIPE, _, _) -> true
  | Sys_error msg ->
      let needle = "Broken pipe" and nlen = String.length "Broken pipe" in
      let mlen = String.length msg in
      let rec scan i =
        i + nlen <= mlen && (String.sub msg i nlen = needle || scan (i + 1))
      in
      scan 0
  | _ -> false

(* Exception firewall: any raise — not just a structured [Diag.Error] —
   becomes a diagnostic.  The batch service wraps every worker attempt in
   this so a pathological job (a [Desc]/[Encode]/[Bitvec] invariant
   failure, a stack overflow) is reported against that one job instead of
   propagating through [Domain.join] and killing the whole batch. *)
let capture f =
  try Ok (f ())
  with
  | Diag.Error d -> Error d
  | Stdlib.Exit | Sys.Break as e -> raise e  (* driver control flow, not a fault *)
  | e when is_broken_pipe e ->
      (* the reader went away; whether that closes one connection or
         ends the process is the caller's call, not a compile fault *)
      raise e
  | e ->
      let bt = String.trim (Printexc.get_backtrace ()) in
      let msg = Printexc.to_string e in
      let message = if bt = "" then msg else msg ^ "\n" ^ bt in
      Error { Diag.phase = Diag.Internal; loc = Msl_util.Loc.dummy; message }

type compiled = {
  c_language : language;
  c_machine : Desc.t;
  c_insts : Inst.t list;
  c_labels : (string * int) list;
  c_words : int;  (* control-store words *)
  c_ops : int;  (* microoperations *)
  c_bits : int;  (* control-store bits *)
  c_alloc : Msl_mir.Regalloc.stats option;
  c_inexact_blocks : int;  (* B&B schedules that hit the node budget *)
  c_superopt : Msl_mir.Superopt.stats option;  (* when the pass ran *)
  c_timings : Msl_mir.Passmgr.timing list;
}

let of_insts ?(timings = []) ?(inexact_blocks = 0) ?superopt language d insts
    labels alloc =
  {
    c_language = language;
    c_machine = d;
    c_insts = insts;
    c_labels = labels;
    c_words = List.length insts;
    c_ops = List.fold_left (fun acc i -> acc + List.length i.Inst.ops) 0 insts;
    c_bits = Encode.program_bits d insts;
    c_alloc = alloc;
    c_inexact_blocks = inexact_blocks;
    c_superopt = superopt;
    c_timings = timings;
  }

(* A program with its machine taken out, so a persisted copy can point
   at the one description the process already holds instead of carrying
   its own: each op names its template by index in [d_templates].  The
   word, op and bit counts are not kept; [of_insts] derives them again. *)
type unlinked = {
  u_language : language;
  u_insts : ((int * Inst.arg array) list * Inst.next) list;
  u_labels : (string * int) list;
  u_alloc : Msl_mir.Regalloc.stats option;
  u_inexact_blocks : int;
  u_superopt : Msl_mir.Superopt.stats option;
  u_timings : Msl_mir.Passmgr.timing list;
}

let unlink (c : compiled) =
  let unlink_op (op : Inst.op) =
    (Desc.template_index c.c_machine op.Inst.op_t, op.Inst.op_args)
  in
  {
    u_language = c.c_language;
    u_insts =
      List.map (fun (i : Inst.t) -> (List.map unlink_op i.Inst.ops, i.Inst.next))
        c.c_insts;
    u_labels = c.c_labels;
    u_alloc = c.c_alloc;
    u_inexact_blocks = c.c_inexact_blocks;
    u_superopt = c.c_superopt;
    u_timings = c.c_timings;
  }

let relink (d : Desc.t) u =
  let link (t, args) = { Inst.op_t = d.Desc.d_templates.(t); op_args = args } in
  let insts =
    List.map (fun (ops, next) -> { Inst.ops = List.map link ops; next }) u.u_insts
  in
  of_insts ~timings:u.u_timings ~inexact_blocks:u.u_inexact_blocks
    ?superopt:u.u_superopt u.u_language d insts u.u_labels u.u_alloc

(* The one compile behind both entry points: [compile] runs it with the
   capture hooks off, [compile_for_proof] with both on. *)
let compile_hooked ?options ?use_microops ?observe ?capture:capture_blocks
    ?superopt_memo ?superopt_capture (language : language) (d : Desc.t) src =
  Trace.with_span ~cat:"toolkit" "compile"
    ~args:
      [
        ("language", Trace.A_string (language_name language));
        ("machine", Trace.A_string d.Desc.d_name);
      ]
    (fun () ->
      let through_pipeline p =
        let insts, labels, m =
          Pipeline.compile ?options ?observe ?capture:capture_blocks
            ?superopt_memo ?superopt_capture d p
        in
        of_insts ~timings:m.Pipeline.m_timings
          ~inexact_blocks:m.Pipeline.m_inexact_blocks
          ?superopt:m.Pipeline.m_superopt language d insts labels
          m.Pipeline.m_alloc
      in
      match language with
      | Simpl -> through_pipeline (Msl_simpl.Compile.parse_compile d src)
      | Empl ->
          through_pipeline (Msl_empl.Compile.parse_compile ?use_microops d src)
      | Yalll -> through_pipeline (Msl_yalll.Compile.parse_compile d src)
      | Sstar ->
          (* the S* programmer composes the microinstructions: no MIR
             pipeline, so no passes to time or observe, and nothing for
             [capture] to validate against (there is no compaction) *)
          let insts, labels = Msl_sstar.Compile.parse_compile d src in
          of_insts language d insts labels None)

let compile ?options ?use_microops ?observe ?superopt_memo language d src =
  compile_hooked ?options ?use_microops ?observe ?superopt_memo language d src

type proof_inputs = {
  p_artifacts : Msl_mir.Tv.artifact list;
  p_rewrites : Msl_mir.Superopt.rewrite list;
}

(* Fresh buffers per call: a compile that raises takes its partial
   capture with it, so a retry starts from nothing. *)
let compile_for_proof ?options ?use_microops ?observe ?superopt_memo language
    d src =
  let artifacts = ref [] and rewrites = ref [] in
  let c =
    compile_hooked ?options ?use_microops ?observe
      ~capture:(fun a -> artifacts := a :: !artifacts)
      ?superopt_memo
      ~superopt_capture:(fun rw -> rewrites := rw :: !rewrites)
      language d src
  in
  (c, { p_artifacts = List.rev !artifacts; p_rewrites = List.rev !rewrites })

(* Each block's compaction against its selection, then each rewrite
   against the words it replaced: together they cover the program. *)
let prove d p =
  ( Msl_mir.Tv.validate_artifacts d p.p_artifacts,
    List.filter
      (fun rw -> Msl_mir.Superopt.replay d rw <> Msl_mir.Tv.Validated)
      p.p_rewrites )

(* Assemble a hand-written microprogram, with the same metrics. *)
let assemble (d : Desc.t) src =
  let insts, labels = Masm.parse d src in
  let labels = Hashtbl.fold (fun k v acc -> (k, v) :: acc) labels [] in
  of_insts Yalll d insts labels None

let load ?trap_mode (c : compiled) =
  let sim = Sim.create ?trap_mode c.c_machine in
  Sim.load_store sim c.c_insts;
  sim

let exec ?(fuel = 2_000_000) ~engine sim =
  match engine with
  | Interp -> Sim.run ~fuel sim
  | Compiled -> Simc.run ~fuel (Simc.translate sim)

let run_status ?(engine = Interp) ?(fuel = 2_000_000) ?(setup = fun _ -> ())
    (c : compiled) =
  let sim = load c in
  setup sim;
  (sim, exec ~fuel ~engine sim)

let run ?engine ?(fuel = 2_000_000) ?setup (c : compiled) =
  match run_status ?engine ~fuel ?setup c with
  | sim, Sim.Halted -> sim
  | sim, Sim.Out_of_fuel ->
      (* report where the program stood: a bare "did not halt" hides
         exactly the state a non-terminating microprogram needs shown *)
      Diag.error Diag.Execution
        "program did not halt within %d steps (pc=%d, %d cycles, %d \
         instructions executed)"
        fuel (Sim.pc sim) (Sim.cycles sim) (Sim.insts_executed sim)
