(* Translation validation: prove compacted microcode equivalent to the
   sequential schedule it was compacted from.

   The compactor's output for each MIR block is checked against the
   reference semantics — the selected microoperations executed one per
   word, in selection order — by executing both symbolically
   ({!Msl_machine.Symexec}) from a common store of fresh inputs and
   comparing the stores at every control exit.  Honest compiles prove by
   construction: both sides build the identical hash-consed terms, so
   every comparison is settled by pointer equality.  The layered decision
   procedure only works when a rewrite changed the term shape, and a
   concrete counterexample falls out whenever it refutes.

   Unlike Microlint, which re-derives the *resource* discipline, this pass
   checks the *dataflow* semantics — it is the static analogue of the
   engine differential oracle, and the proof gate the superoptimizer's
   rewrites must pass.  Verdicts:

     VALIDATED          proved equal on every exit
     REFUTED            provably different, usually with a concrete
                        counterexample store
     UNKNOWN            decision budget exhausted; nothing was proved *)

open Msl_machine
open Msl_bitvec
module Udiag = Msl_util.Diag

(* What the pipeline hands the validator for one block, captured inside
   [Pipeline.lower_block]: the selected ops before compaction, the
   sequencing tail, and the emitted word list after compaction and tail
   merging. *)
type artifact = {
  a_label : string;
  a_body : Inst.op list;
  a_tail : Select.tail_inst list;
  a_mis : (Inst.op list * Select.lnext) list;
}

type verdict =
  | Validated
  | Refuted of Symexec.assignment option  (* None: structural mismatch *)
  | Unknown

type result = {
  v_total : int;
  v_validated : int;
  v_dynamic : int;  (* always 0: every validated block was proved *)
  v_refuted : int;
  v_unknown : int;
  v_findings : Diag.finding list;
  v_counterexample : (Symexec.assignment * Diag.location) option;
}

let empty_result =
  {
    v_total = 0;
    v_validated = 0;
    v_dynamic = 0;
    v_refuted = 0;
    v_unknown = 0;
    v_findings = [];
    v_counterexample = None;
  }

(* -- symbolic walk of a word list ----------------------------------------- *)

(* A control exit of the walk: the observable points where the two sides
   must agree.  Falling off the end is an exit ([thread_jumps]: it
   halts); a branch is an exit (the taken path sees the store as of that
   word) *and* execution continues on the fall-through path; a call is an
   exit, after which the store is havocked — the microsubroutine's
   effects are unmodeled but identical on both sides. *)
type exit_point = E_fall | E_ctrl of Select.lnext

let walk ctx d (words : (Inst.op list * Select.lnext) list) =
  let store = Symexec.init_store ctx d in
  let exits = ref [] in
  let calls = ref 0 in
  let push e = exits := (e, Symexec.copy_store store) :: !exits in
  let rec go = function
    | [] -> ()
    | (ops, next) :: rest -> (
        Symexec.exec_word ctx d store ops;
        match next with
        | Select.L_next -> if rest = [] then push E_fall else go rest
        | Select.L_branch _ as n ->
            push (E_ctrl n);
            if rest = [] then push E_fall else go rest
        | Select.L_call _ as n ->
            push (E_ctrl n);
            incr calls;
            Symexec.havoc ~prefix:(Printf.sprintf "call%d:" !calls) ctx d store;
            if rest = [] then push E_fall else go rest
        | (Select.L_goto _ | Select.L_dispatch _ | Select.L_return
          | Select.L_halt) as n ->
            push (E_ctrl n))
  in
  (match words with [] -> push E_fall | ws -> go ws);
  List.rev !exits

(* The reference schedule: each selected op alone in its word, then the
   uncompacted sequencing tail — exactly what [Pipeline.lower_block]
   would emit with a unit-group compactor and no tail merge. *)
let reference_words (a : artifact) =
  List.map (fun op -> ([ op ], Select.L_next)) a.a_body
  @ List.map (fun t -> (t.Select.t_ops, t.Select.t_next)) a.a_tail

let compare_exit ctx d ((e1, s1), (e2, s2)) =
  if e1 <> e2 then `Structural
  else if Symexec.acks s1 <> Symexec.acks s2 then `Structural
  else
    match Symexec.decide (Symexec.store_pairs ctx d s1 s2) with
    | Symexec.Proved -> `Eq
    | Symexec.Refuted cx -> `Refuted cx
    | Symexec.Unknown -> `Unknown

(* -- concrete replay --------------------------------------------------------- *)

(* Seeded concrete input stores, as assignments over the same variable
   names the symbolic walk uses — store 0 is all-zeros, so a divergence
   found there replays on a freshly reset simulator. *)
let seeded_assignments (d : Desc.t) ~seed ~n =
  let rng = ref (Int64.of_int ((seed * 2654435761) + 17)) in
  let next () =
    let x = !rng in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    rng := x;
    x
  in
  List.init n (fun k ->
      let reg_val (r : Desc.reg) =
        if k = 0 then Bitvec.zero r.Desc.r_width
        else if k = 1 then Bitvec.ones r.Desc.r_width
        else Bitvec.of_int64 ~width:r.Desc.r_width (next ())
      in
      let flag_val _ = if k < 2 then k = 1 else Int64.rem (next ()) 2L = 0L in
      Array.to_list
        (Array.map
           (fun (r : Desc.reg) ->
             (Symexec.reg_var_name r.Desc.r_name, reg_val r))
           d.Desc.d_regs)
      @ List.map
          (fun f ->
            (Symexec.flag_var_name f, Bitvec.of_bool (flag_val f)))
          Rtl.all_flags)

(* Write an assignment (symbolic variable names) into a simulator.
   Unknown names — e.g. havoc-prefixed inputs — are skipped; the caller
   decides whether the replay is then meaningful. *)
let apply_assignment (d : Desc.t) sim (cx : Symexec.assignment) =
  List.iter
    (fun (name, v) ->
      match String.index_opt name ':' with
      | Some 1 when name.[0] = 'r' ->
          let rn = String.sub name 2 (String.length name - 2) in
          if Array.exists (fun (r : Desc.reg) -> r.Desc.r_name = rn) d.Desc.d_regs
          then Sim.set_reg sim rn v
      | Some 1 when name.[0] = 'f' -> (
          match String.sub name 2 (String.length name - 2) with
          | "C" -> Sim.set_flag sim Rtl.C (Bitvec.lsb v)
          | "V" -> Sim.set_flag sim Rtl.V (Bitvec.lsb v)
          | "Z" -> Sim.set_flag sim Rtl.Z (Bitvec.lsb v)
          | "N" -> Sim.set_flag sim Rtl.N (Bitvec.lsb v)
          | "U" -> Sim.set_flag sim Rtl.U (Bitvec.lsb v)
          | _ -> ())
      | _ -> ())
    cx

(* Replay one input store through a linked program on the interpreter:
   the halt status line and the architectural digest, or [fault:...] when
   the run stops on a fault.  Mutated programs can carry register ids the
   description does not have; [Sim] stops on those with
   [Invalid_argument], which is a fault like any other here. *)
let replay (d : Desc.t) insts (a : Symexec.assignment) =
  try
    let sim = Sim.create ~trap_mode:Sim.Fault_is_error d in
    Sim.load_store sim insts;
    apply_assignment d sim a;
    let status =
      match Sim.run ~fuel:4096 sim with
      | Sim.Halted -> "halted\n"
      | Sim.Out_of_fuel -> "fuel\n"
    in
    status ^ Sim.arch_digest sim
  with
  | Udiag.Error di -> "fault:" ^ di.Udiag.message
  | Invalid_argument m -> "fault:" ^ m

(* -- per-block validation --------------------------------------------------- *)

let validate_words d ~reference ~candidate =
  let ctx = Symexec.create_ctx () in
  try
    let ref_exits = walk ctx d reference in
    let cand_exits = walk ctx d candidate in
    if List.length ref_exits <> List.length cand_exits then Refuted None
    else begin
      let unknown = ref false in
      let rec cmp = function
        | [] -> if !unknown then Unknown else Validated
        | pair :: rest -> (
            match compare_exit ctx d pair with
            | `Eq -> cmp rest
            | `Structural -> Refuted None
            | `Refuted cx -> Refuted (Some cx)
            | `Unknown ->
                unknown := true;
                cmp rest)
      in
      cmp (List.combine ref_exits cand_exits)
    end
  with Udiag.Error _ -> Unknown

let validate_artifact d (a : artifact) =
  validate_words d ~reference:(reference_words a) ~candidate:a.a_mis

(* -- rewrite validation (the superoptimizer's proof gate) -------------------- *)

(* A superoptimizer window rewrite is proved by comparing *guarded
   outcomes* rather than [walk] exits.  Each way control can leave the
   window — a taken branch, a goto, halt/return, or falling past the last
   word into the layout successor ([fall]) — becomes a triple of
   destination, path guard (the conjunction of branch-condition terms
   along the path, as {!Symexec.cond_term}s over the evolving store) and
   the store at departure.  This admits rewrites [validate_words] must
   reject structurally: folding a goto word into its predecessor, or
   inverting a branch so the old fall-through path becomes the taken
   path.  Windows whose control the guard model cannot express — calls,
   dispatches, interrupt-pending tests — are [Unknown], never accepted. *)

type destination = D_label of string | D_halt | D_return

exception Unsupported_window

let outcomes ctx d ~fall (words : (Inst.op list * Select.lnext) list) =
  let store = Symexec.init_store ctx d in
  let guard = ref (Symexec.true_ ctx) in
  let outs = ref [] in
  let emit dst g = outs := (dst, g, Symexec.copy_store store) :: !outs in
  let fall_off () =
    match fall with
    | Some l -> emit (D_label l) !guard
    | None -> emit D_halt !guard
  in
  let rec go = function
    | [] -> fall_off ()
    | (ops, next) :: rest -> (
        Symexec.exec_word ctx d store ops;
        match next with
        | Select.L_next -> if rest = [] then fall_off () else go rest
        | Select.L_goto l -> emit (D_label l) !guard
        | Select.L_halt -> emit D_halt !guard
        | Select.L_return -> emit D_return !guard
        | Select.L_branch (c, l) -> (
            match Symexec.cond_term ctx d store c with
            | None -> raise Unsupported_window
            | Some t ->
                emit (D_label l) (Symexec.logand ctx !guard t);
                guard := Symexec.logand ctx !guard (Symexec.lognot ctx t);
                if rest = [] then fall_off () else go rest)
        | Select.L_call _ | Select.L_dispatch _ -> raise Unsupported_window)
  in
  (match words with [] -> fall_off () | ws -> go ws);
  List.rev !outs

let validate_rewrite d ~fall_ref ~fall_cand ~reference ~candidate =
  let ctx = Symexec.create_ctx () in
  try
    let ro = outcomes ctx d ~fall:fall_ref reference in
    let co = outcomes ctx d ~fall:fall_cand candidate in
    let dests os = List.map (fun (dst, _, _) -> dst) os in
    let rd = List.sort_uniq compare (dests ro) in
    let cd = List.sort_uniq compare (dests co) in
    (* destinations must match as sets, each reached along exactly one
       path per side — the guards then pair up unambiguously *)
    if
      rd <> cd
      || List.length rd <> List.length ro
      || List.length cd <> List.length co
    then Refuted None
    else begin
      let paired =
        List.map
          (fun (dst, g1, s1) ->
            let _, g2, s2 = List.find (fun (d2, _, _) -> d2 = dst) co in
            ((g1, s1), (g2, s2)))
          ro
      in
      if
        List.exists
          (fun ((_, s1), (_, s2)) ->
            Symexec.acks s1 <> Symexec.acks s2)
          paired
      then Refuted None
      else begin
        (* guards must agree, and the stores must agree unconditionally —
           stronger than equality-under-guard, which is exactly what makes
           the obligations a flat list of term pairs [decide] can settle *)
        let goals =
          List.concat_map
            (fun ((g1, s1), (g2, s2)) ->
              (g1, g2) :: Symexec.store_pairs ctx d s1 s2)
            paired
        in
        match Symexec.decide goals with
        | Symexec.Proved -> Validated
        | Symexec.Refuted cx -> Refuted (Some cx)
        | Symexec.Unknown -> Unknown
      end
    end
  with Unsupported_window | Udiag.Error _ -> Unknown

(* -- findings and aggregation ------------------------------------------------ *)

let cx_suffix = function
  | None -> " (structural mismatch)"
  | Some cx ->
      Format.asprintf "; counterexample %a" Symexec.pp_assignment cx

let tally verdict loc what (acc : result) =
  let acc = { acc with v_total = acc.v_total + 1 } in
  match verdict with
  | Validated -> { acc with v_validated = acc.v_validated + 1 }
  | Refuted cx ->
      let f =
        Diag.finding ~severity:Diag.Error ~loc ~code:"tv-refuted"
          "%s is not equivalent to its reference schedule%s" what
          (cx_suffix cx)
      in
      {
        acc with
        v_refuted = acc.v_refuted + 1;
        v_findings = f :: acc.v_findings;
        v_counterexample =
          (match (acc.v_counterexample, cx) with
          | None, Some c -> Some (c, loc)
          | prev, _ -> prev);
      }
  | Unknown ->
      let f =
        Diag.finding ~severity:Diag.Warning ~loc ~code:"tv-unknown"
          "%s: equivalence not decided within budget" what
      in
      {
        acc with
        v_unknown = acc.v_unknown + 1;
        v_findings = f :: acc.v_findings;
      }

let finish acc = { acc with v_findings = List.rev acc.v_findings }

let validate_artifacts d (artifacts : artifact list) =
  finish
    (List.fold_left
       (fun acc a ->
         let loc = Diag.L_block { block = a.a_label; stmt = None } in
         tally (validate_artifact d a) loc
           (Printf.sprintf "compacted block %S" a.a_label)
           acc)
       empty_result artifacts)

(* -- whole-program validation (linked word lists) --------------------------- *)

(* For mutants of a *linked* program — where no artifact exists — the two
   instruction lists are compared region by region: leaders are address 0,
   every control-flow target and every post-control address, over *both*
   programs; a region is the run between consecutive leaders, and by
   construction every word before a region's last is fall-through on both
   sides.  Each region is validated from its own fresh store, which
   composes: if every region is equivalent, the programs are. *)

let targets_of = function
  | Inst.Next -> []
  | Inst.Jump a -> [ a ]
  | Inst.Branch (_, a) -> [ a ]
  | Inst.Dispatch { hi; lo; base; _ } ->
      List.init (1 lsl (hi - lo + 1)) (fun k -> base + k)
  | Inst.Call a -> [ a ]
  | Inst.Return | Inst.Halt -> []

let region_bounds (progs : Inst.t array list) n =
  let leaders = Hashtbl.create 64 in
  Hashtbl.replace leaders 0 ();
  List.iter
    (fun arr ->
      Array.iteri
        (fun i (w : Inst.t) ->
          match w.Inst.next with
          | Inst.Next -> ()
          | nx ->
              if i + 1 < n then Hashtbl.replace leaders (i + 1) ();
              List.iter
                (fun t -> if t >= 0 && t < n then Hashtbl.replace leaders t ())
                (targets_of nx))
        arr)
    progs;
  let ls = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) leaders []) in
  let rec pair = function
    | [] -> []
    | [ l ] -> [ (l, n - 1) ]
    | l :: (l2 :: _ as rest) -> (l, l2 - 1) :: pair rest
  in
  pair ls

(* One region, symbolically.  The last words' sequencing must agree
   structurally; everything before it is fall-through on both sides. *)
let validate_region d (ra : Inst.t array) (ca : Inst.t array) (s, e) =
  let ctx = Symexec.create_ctx () in
  let sr = Symexec.init_store ctx d in
  let sc = Symexec.init_store ctx d in
  match
    for i = s to e do
      Symexec.exec_word ctx d sr ra.(i).Inst.ops;
      Symexec.exec_word ctx d sc ca.(i).Inst.ops
    done
  with
  | () ->
      if ra.(e).Inst.next <> ca.(e).Inst.next then Refuted None
      else if Symexec.acks sr <> Symexec.acks sc then Refuted None
      else (
        match Symexec.decide (Symexec.store_pairs ctx d sr sc) with
        | Symexec.Proved -> Validated
        | Symexec.Refuted cx -> Refuted (Some cx)
        | Symexec.Unknown -> Unknown)
  | exception Udiag.Error _ -> Unknown

let validate_program ?(labels = []) d ~reference
    ~candidate =
  let ra = Array.of_list reference and ca = Array.of_list candidate in
  if Array.length ra <> Array.length ca then
    finish
      (tally (Refuted None) Diag.L_none
         (Printf.sprintf "program of %d words vs %d" (Array.length ra)
            (Array.length ca))
         empty_result)
  else if Array.length ra = 0 then finish empty_result
  else begin
    let word_loc = Diag.word_loc labels in
    let regions = region_bounds [ ra; ca ] (Array.length ra) in
    finish
      (List.fold_left
         (fun acc (s, e) ->
           tally
             (validate_region d ra ca (s, e))
             (word_loc s)
             (Printf.sprintf "words %d..%d" s e)
             acc)
         empty_result regions)
  end

let pp_summary ppf r =
  Format.fprintf ppf
    "%d block%s: %d validated, %d refuted, %d unknown" r.v_total
    (if r.v_total = 1 then "" else "s")
    r.v_validated r.v_refuted r.v_unknown
