(* Microlint: independent static analysis of MIR and compacted microcode.

   Translation-validation-style checking: every verdict here is re-derived
   from the Desc resource model alone — never from the compactor's
   Conflict answers — so a bug shared with the scheduler cannot hide from
   the checker.  The machine checks must be exactly as strict as the
   resource model the compactor enforces: anything stricter produces
   false positives on honest output (e.g. same-phase write/read sharing
   is deterministic under transport-delay semantics and must pass), and
   anything looser misses the defects the L1 experiment injects. *)

open Msl_machine
module Uset = Set.Make (Int)

type config = { latency_budget : int option; pedantic : bool }

let default_config = { latency_budget = None; pedantic = false }

(* Mutated programs can carry register ids the description does not have;
   never let a diagnostic message raise. *)
let rname (d : Desc.t) r =
  if r >= 0 && r < Array.length d.Desc.d_regs then Desc.reg_name d r
  else Printf.sprintf "r#%d" r

(* -- uninitialized-register reads (MIR, forward dataflow) ---------------- *)

(* Virtual registers a statement may assign.  Barriers (Special, Intack)
   count as assigning everything: may-assigned union-join errs toward
   silence, so every report is a read no path can have initialized.
   Physical registers are machine state set at the console and are never
   flagged. *)
let stmt_vwrites universe stmt =
  let e = Cfg.stmt_effects stmt in
  if e.Cfg.e_barrier then universe
  else
    List.fold_left
      (fun acc r ->
        match r with Mir.Virt v -> Uset.add v acc | Mir.Phys _ -> acc)
      Uset.empty e.Cfg.e_writes

let check_uninit (p : Mir.program) =
  let cfg = Cfg.build p in
  let nodes = cfg.Cfg.c_nodes in
  let n = Array.length nodes in
  if n = 0 then []
  else begin
    let universe = Uset.of_list (Mir.program_vregs p) in
    let block_out assigned b =
      List.fold_left
        (fun acc s -> Uset.union acc (stmt_vwrites universe s))
        assigned b.Mir.b_stmts
    in
    let inn = Array.make n Uset.empty in
    let out = Array.make n Uset.empty in
    Array.iteri (fun i nd -> out.(i) <- block_out Uset.empty nd.Cfg.n_block) nodes;
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iteri
        (fun i nd ->
          let inew =
            List.fold_left
              (fun acc pr -> Uset.union acc out.(pr))
              Uset.empty nd.Cfg.n_pred
          in
          if not (Uset.equal inew inn.(i)) then begin
            inn.(i) <- inew;
            changed := true
          end;
          let onew = block_out inew nd.Cfg.n_block in
          if not (Uset.equal onew out.(i)) then begin
            out.(i) <- onew;
            changed := true
          end)
        nodes
    done;
    let reach = Cfg.reachable cfg in
    let findings = ref [] in
    let vname v = Fmt.str "%a" (Mir.pp_reg p.Mir.vreg_names) (Mir.Virt v) in
    let report b stmt v =
      findings :=
        Diag.finding ~code:"uninit-read"
          ~loc:(Diag.L_block { block = b.Mir.b_label; stmt })
          "%s is read but no path assigns it first" (vname v)
        :: !findings
    in
    Array.iteri
      (fun i nd ->
        if reach.(i) then begin
          let b = nd.Cfg.n_block in
          let assigned = ref inn.(i) in
          List.iteri
            (fun si s ->
              List.iter
                (fun r ->
                  match r with
                  | Mir.Virt v when not (Uset.mem v !assigned) ->
                      report b (Some si) v
                  | Mir.Virt _ | Mir.Phys _ -> ())
                (Mir.stmt_reads s);
              assigned := Uset.union !assigned (stmt_vwrites universe s))
            b.Mir.b_stmts;
          List.iter
            (fun r ->
              match r with
              | Mir.Virt v when not (Uset.mem v !assigned) -> report b None v
              | Mir.Virt _ | Mir.Phys _ -> ())
            (Mir.term_reads b.Mir.b_term)
        end)
      nodes;
    List.rev !findings
  end

(* -- binding violations (register-bound languages) ----------------------- *)

let check_bindings (d : Desc.t) (p : Mir.program) =
  let cfg = Cfg.build p in
  let reach = Cfg.reachable cfg in
  let nregs = Array.length d.Desc.d_regs in
  let findings = ref [] in
  let seen = Hashtbl.create 7 in
  let once key f = if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      findings := f () :: !findings
    end
  in
  Array.iteri
    (fun i nd ->
      if reach.(i) then begin
        let b = nd.Cfg.n_block in
        let label = b.Mir.b_label in
        let loc stmt = Diag.L_block { block = label; stmt } in
        let check_reg stmt r =
          match r with
          | Mir.Virt _ -> ()
          | Mir.Phys r when r < 0 || r >= nregs ->
              once (label, r) (fun () ->
                  Diag.finding ~code:"bad-reg" ~loc:(loc stmt)
                    "register id %d does not exist on %s (%d registers)" r
                    d.Desc.d_name nregs)
          | Mir.Phys _ -> ()
        in
        List.iteri
          (fun si s ->
            List.iter (check_reg (Some si)) (Mir.stmt_reads s);
            List.iter (check_reg (Some si)) (Mir.stmt_writes s))
          b.Mir.b_stmts;
        List.iter (check_reg None) (Mir.term_reads b.Mir.b_term)
      end)
    cfg.Cfg.c_nodes;
  List.rev !findings

(* -- intra-instruction races (machine level) ----------------------------- *)

let op_name (o : Inst.op) = o.Inst.op_t.Desc.t_name

let check_races ?(pedantic = false) ?(labels = []) (d : Desc.t) insts =
  let word_loc = Diag.word_loc labels in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  List.iteri
    (fun i (inst : Inst.t) ->
      let loc () = word_loc i in
      let nops = List.length inst.Inst.ops in
      if d.Desc.d_vertical && nops > 1 then
        add
          (Diag.finding ~code:"vertical-packed" ~loc:(loc ())
             "%d operations packed into one word of vertical machine %s" nops
             d.Desc.d_name);
      let rec pairs = function
        | [] -> ()
        | o1 :: rest ->
            let x1 = Desc.facts d o1.Inst.op_t in
            List.iter
              (fun o2 ->
                let x2 = Desc.facts d o2.Inst.op_t in
                (* literally identical instances request the same control
                   bits and are harmless together, exactly as the conflict
                   model exempts them *)
                if not (Inst.identical o1 o2) then begin
                  let p1 = Inst.op_phase o1 and p2 = Inst.op_phase o2 in
                  if p1 = p2 then begin
                    let w1 = Inst.op_writes d o1 and w2 = Inst.op_writes d o2 in
                    List.iter
                      (fun r ->
                        if List.exists (fun x -> x = r) w2 then
                          add
                            (Diag.finding ~code:"race-ww" ~loc:(loc ())
                               "%s and %s both write %s in phase %d: the \
                                committed value is undefined"
                               (op_name o1) (op_name o2) (rname d r) p1))
                      w1;
                    if x1.Desc.x_set_flags <> 0 && x2.Desc.x_set_flags <> 0 then
                      add
                        (Diag.finding ~code:"race-flag" ~loc:(loc ())
                           "%s and %s both update condition flags in phase %d"
                           (op_name o1) (op_name o2) p1);
                    (* the masks only rule out; names decide *)
                    (match
                       if x1.Desc.x_units land x2.Desc.x_units = 0 then None
                       else
                         List.find_opt
                           (fun u -> List.mem u o2.Inst.op_t.Desc.t_units)
                           o1.Inst.op_t.Desc.t_units
                     with
                    | Some u ->
                        add
                          (Diag.finding ~code:"unit-clash" ~loc:(loc ())
                             "%s and %s both occupy unit %s in phase %d"
                             (op_name o1) (op_name o2) u p1)
                    | None -> ());
                    if pedantic then begin
                      let r1 = Inst.op_reads d o1 and r2 = Inst.op_reads d o2 in
                      List.iter
                        (fun (w, r, a, b) ->
                          List.iter
                            (fun reg ->
                              if List.exists (fun x -> x = reg) r then
                                add
                                  (Diag.finding ~severity:Diag.Info
                                     ~code:"share-rw" ~loc:(loc ())
                                     "%s reads %s while %s writes it in phase \
                                      %d (legal: reads sample at phase start)"
                                     (op_name b) (rname d reg) (op_name a) p1))
                            w)
                        [ (w1, r2, o1, o2); (w2, r1, o2, o1) ]
                    end
                  end;
                  if x1.Desc.x_mem && x2.Desc.x_mem then
                    add
                      (Diag.finding ~code:"race-mem" ~loc:(loc ())
                         "%s and %s both use the single memory port"
                         (op_name o1) (op_name o2))
                end)
              rest;
            pairs rest
      in
      pairs inst.Inst.ops)
    insts;
  List.rev !findings

(* -- encoding consistency (machine level) -------------------------------- *)

(* The sequencing-field conventions and value guards are re-stated here on
   purpose: check_encoding first audits the word against this independent
   reading of the conventions, then cross-checks Encode itself by
   round-tripping, so a disagreement between the two implementations also
   surfaces as a finding. *)

let lint_cond_code = function
  | Desc.C_flag (f, true) -> 1 + Rtl.flag_index f
  | Desc.C_flag (f, false) -> 6 + Rtl.flag_index f
  | Desc.C_reg_zero (_, true) -> 11
  | Desc.C_reg_zero (_, false) -> 12
  | Desc.C_int_pending -> 13
  | Desc.C_reg_mask _ -> 14

let lint_mask_value mask =
  let v = ref 0 in
  Array.iteri
    (fun i m ->
      let code = match m with Desc.Mx -> 0 | Desc.Mf -> 1 | Desc.Mt -> 2 in
      v := !v lor (code lsl (2 * i)))
    mask;
  !v

(* Sequencing settings as (position in Desc.seq_fields, value):
   0 seq, 1 cond, 2 addr, 3 breg, 4 mask, 5 dspec. *)
let seq_settings (next : Inst.next) =
  match next with
  | Inst.Next -> [ (0, 0) ]
  | Inst.Jump a -> [ (0, 1); (2, a) ]
  | Inst.Branch (c, a) ->
      [ (0, 2); (1, lint_cond_code c); (2, a) ]
      @ (match c with
        | Desc.C_reg_zero (r, _) -> [ (3, r) ]
        | Desc.C_reg_mask (r, m) -> [ (3, r); (4, lint_mask_value m) ]
        | Desc.C_flag _ | Desc.C_int_pending -> [])
  | Inst.Dispatch { dreg; hi; lo; base } ->
      [ (0, 3); (3, dreg); (2, base); (5, (hi lsl 6) lor lo) ]
  | Inst.Call a -> [ (0, 4); (2, a) ]
  | Inst.Return -> [ (0, 5) ]
  | Inst.Halt -> [ (0, 6) ]

let field_fits (f : Desc.field) v =
  v >= 0 && (f.Desc.f_width >= 62 || v lsr f.Desc.f_width = 0)

(* Operand well-formedness, independently of Inst.make: a swap-fields
   mutant leaves an argument that no longer matches its operand spec. *)
let check_operands (d : Desc.t) loc (op : Inst.op) =
  let tm = op.Inst.op_t in
  let arity = Array.length tm.Desc.t_operands in
  if Array.length op.Inst.op_args <> arity then
    [
      Diag.finding ~code:"bad-operand" ~loc:(loc ())
        "%s takes %d operands, %d given"
        tm.Desc.t_name arity
        (Array.length op.Inst.op_args);
    ]
  else begin
    let findings = ref [] in
    Array.iteri
      (fun i arg ->
        let spec = tm.Desc.t_operands.(i) in
        match (arg, spec.Desc.o_kind) with
        | Inst.A_reg r, Desc.O_reg cls ->
            if r < 0 || r >= Array.length d.Desc.d_regs then
              findings :=
                Diag.finding ~code:"bad-operand" ~loc:(loc ())
                  "%s operand %s: register id %d does not exist on %s"
                  tm.Desc.t_name spec.Desc.o_name r d.Desc.d_name
                :: !findings
            else if not (Desc.reg_in_class (Desc.reg d r) cls) then
              findings :=
                Diag.finding ~code:"bad-operand" ~loc:(loc ())
                  "%s operand %s: %s is not in class %s" tm.Desc.t_name
                  spec.Desc.o_name (rname d r) cls
                :: !findings
        | Inst.A_imm v, Desc.O_imm w ->
            if Msl_bitvec.Bitvec.width v <> w then
              findings :=
                Diag.finding ~code:"bad-operand" ~loc:(loc ())
                  "%s operand %s: immediate is %d bits, field takes %d"
                  tm.Desc.t_name spec.Desc.o_name (Msl_bitvec.Bitvec.width v) w
                :: !findings
        | Inst.A_reg _, Desc.O_imm _ ->
            findings :=
              Diag.finding ~code:"bad-operand" ~loc:(loc ())
                "%s operand %s: register given where an immediate is expected"
                tm.Desc.t_name spec.Desc.o_name
              :: !findings
        | Inst.A_imm _, Desc.O_reg _ ->
            findings :=
              Diag.finding ~code:"bad-operand" ~loc:(loc ())
                "%s operand %s: immediate given where a register is expected"
                tm.Desc.t_name spec.Desc.o_name
              :: !findings)
      op.Inst.op_args;
    List.rev !findings
  end

let check_encoding ?(labels = []) (d : Desc.t) insts =
  let word_loc = Diag.word_loc labels in
  let findings = ref [] in
  List.iteri
    (fun i (inst : Inst.t) ->
      let loc () = word_loc i in
      let word_findings = ref [] in
      let add f = word_findings := f :: !word_findings in
      List.iter
        (fun op -> List.iter add (check_operands d loc op))
        inst.Inst.ops;
      (* Field settings of the whole word as (field position, value,
         setter): each op's, then the sequencer's, whose setter is the op
         count; a value that overflows its field is reported as it comes.
         An op whose settings name an operand its argument array lacks (a
         truncated mutant) has none; the operand check above already
         reported it. *)
      let nops = List.length inst.Inst.ops in
      let who w =
        if w = nops then "sequencer"
        else "op " ^ op_name (List.nth inst.Inst.ops w)
      in
      let fname slot = d.Desc.d_fields.(slot).Desc.f_name in
      let settings = ref [] in
      let set w slot v =
        let f = d.Desc.d_fields.(slot) in
        if not (field_fits f v) then
          add
            (Diag.finding ~code:"field-overflow" ~loc:(loc ())
               "%s: value %d does not fit the %d-bit field %s" (who w) v
               f.Desc.f_width f.Desc.f_name);
        settings := (slot, v, w) :: !settings
      in
      List.iteri
        (fun w (op : Inst.op) ->
          let x = Desc.facts d op.Inst.op_t in
          let nargs = Array.length op.Inst.op_args in
          if Array.for_all (fun v -> v >= 0 || -1 - v < nargs) x.Desc.x_values
          then
            Array.iteri
              (fun k slot -> set w slot (Inst.setting_value x op k))
              x.Desc.x_slots)
        inst.Inst.ops;
      List.iter
        (fun (k, v) ->
          match d.Desc.d_seq_slots.(k) with
          | -1 ->
              add
                (Diag.finding ~code:"bad-field" ~loc:(loc ())
                   "sequencer sets field %s, which %s does not have"
                   Desc.seq_fields.(k) d.Desc.d_name)
          | slot -> set nops slot v)
        (seq_settings inst.Inst.next);
      let settings = List.rev !settings in
      let rec clashes = function
        | [] -> ()
        | (s1, v1, w1) :: rest ->
            (match
               List.find_opt (fun (s2, v2, _) -> s1 = s2 && v1 <> v2) rest
             with
            | Some (_, v2, w2) ->
                add
                  (Diag.finding ~code:"field-clash" ~loc:(loc ())
                     "field %s needed with values %d (%s) and %d (%s)"
                     (fname s1) v1 (who w1) v2 (who w2))
            | None -> ());
            clashes (List.filter (fun (s2, _, _) -> s2 <> s1) rest)
      in
      clashes settings;
      (* Cross-check the encoder itself only on words we believe clean:
         a disagreement in either direction is a finding. *)
      if !word_findings = [] then begin
        match Msl_util.Diag.protect (fun () -> Encode.encode_inst d inst) with
        | Error e ->
            add
              (Diag.finding ~code:"encode-mismatch" ~loc:(loc ())
                 "encoder rejects a word the analyzer accepts: %s"
                 e.Msl_util.Diag.message)
        | Ok wd ->
            List.iter
              (fun (slot, v, w) ->
                let v' = Encode.read_field wd d.Desc.d_fields.(slot) in
                if v' <> v then
                  add
                    (Diag.finding ~code:"decode-mismatch" ~loc:(loc ())
                       "field %s set to %d by %s reads back as %d" (fname slot)
                       v (who w) v'))
              settings
      end;
      findings := List.rev_append !word_findings !findings)
    insts;
  List.rev !findings

(* -- dead microcode and target validity (machine level) ------------------ *)

(* Successor model shared with the latency check.  A Call flows both into
   the callee and past it (the return continuation); Return's address is
   dynamic, so its paths end there and resume at the call sites' i+1. *)
let word_succs (inst : Inst.t) i =
  match inst.Inst.next with
  | Inst.Next -> ([], [ i + 1 ])
  | Inst.Jump a -> ([ a ], [])
  | Inst.Branch (_, a) -> ([ a ], [ i + 1 ])
  | Inst.Call a -> ([ a ], [ i + 1 ])
  | Inst.Return | Inst.Halt -> ([], [])
  | Inst.Dispatch { base; hi; lo; _ } ->
      if hi < lo || hi - lo + 1 > 24 then ([ base ], [])
      else (List.init (1 lsl (hi - lo + 1)) (fun k -> base + k), [])

let all_succs inst i =
  let explicit, fallthru = word_succs inst i in
  explicit @ fallthru

let check_dead ?(labels = []) (d : Desc.t) insts =
  let arr = Array.of_list insts in
  let n = Array.length arr in
  let word_loc = Diag.word_loc labels in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  if n > d.Desc.d_store_words then
    add
      (Diag.finding ~code:"store-overflow"
         "program is %d words but %s has a %d-word control store" n
         d.Desc.d_name d.Desc.d_store_words);
  Array.iteri
    (fun i inst ->
      let loc = word_loc i in
      (match inst.Inst.next with
      | Inst.Dispatch { hi; lo; _ } when hi < lo || hi - lo + 1 > 24 ->
          add
            (Diag.finding ~code:"bad-dispatch" ~loc
               "dispatch selects bits %d..%d: not a valid bit range" hi lo)
      | _ -> ());
      let explicit, fallthru = word_succs inst i in
      List.iter
        (fun t ->
          if t < 0 || t >= n then
            add
              (Diag.finding ~code:"bad-target" ~loc
                 "branch target %d is outside the program (%d words)" t n))
        explicit;
      List.iter
        (fun t ->
          if t >= n then
            add
              (Diag.finding ~code:"fall-off-end" ~loc
                 "control falls off the end of the program"))
        fallthru)
    arr;
  (* Reachability from word 0 over in-range successors. *)
  if n > 0 then begin
    let reach = Array.make n false in
    let rec visit i =
      if i >= 0 && i < n && not reach.(i) then begin
        reach.(i) <- true;
        List.iter visit (all_succs arr.(i) i)
      end
    in
    visit 0;
    (* Empty words are exempt: the survey-faithful -O0 pipeline keeps
       empty join blocks, which assemble to inert padding.  A word with
       operations that can never execute is lost work worth reporting. *)
    Array.iteri
      (fun i r ->
        if (not r) && arr.(i).Inst.ops <> [] then
          add
            (Diag.finding ~code:"dead-code" ~loc:(word_loc i)
               "control word is unreachable from the entry"))
      reach
  end;
  List.rev !findings

(* -- worst-case interrupt-poll latency (machine level) ------------------- *)

let is_poll (inst : Inst.t) =
  (match inst.Inst.next with
  | Inst.Branch (Desc.C_int_pending, _) -> true
  | _ -> false)
  || List.exists
       (fun op -> List.mem Rtl.Int_ack op.Inst.op_t.Desc.t_actions)
       inst.Inst.ops

let check_latency ?(labels = []) ~budget (d : Desc.t) insts =
  ignore d;
  let arr = Array.of_list insts in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let word_loc = Diag.word_loc labels in
    let poll = Array.map is_poll arr in
    let cost i = 1 + Inst.inst_extra_cycles arr.(i) in
    let succs i =
      all_succs arr.(i) i |> List.filter (fun s -> s >= 0 && s < n)
    in
    (* g i = worst microcycles from i inclusive until the next poll (or
       the end of every path); None when a poll-free cycle is reachable.
       Recursion never enters a poll word, so a gray hit is a genuine
       poll-free cycle. *)
    let memo = Array.make n `White in
    let cycle_word = ref None in
    let rec g i =
      match memo.(i) with
      | `Done v -> v
      | `Gray ->
          if !cycle_word = None then cycle_word := Some i;
          None
      | `White ->
          memo.(i) <- `Gray;
          let tail =
            List.fold_left
              (fun acc s ->
                match acc with
                | None -> None
                | Some best -> (
                    match if poll.(s) then Some 0 else g s with
                    | None -> None
                    | Some sv -> Some (max best sv)))
              (Some 0) (succs i)
          in
          let v = Option.map (fun t -> cost i + t) tail in
          memo.(i) <- `Done v;
          v
    in
    let starts =
      0
      :: List.concat
           (List.init n (fun i -> if poll.(i) then succs i else []))
    in
    let worst =
      List.fold_left
        (fun acc s ->
          match acc with
          | None -> None
          | Some best -> (
              match if poll.(s) then Some 0 else g s with
              | None -> None
              | Some v -> Some (max best v)))
        (Some 0) starts
    in
    match worst with
    | None ->
        let loc =
          match !cycle_word with
          | Some i -> word_loc i
          | None -> Diag.L_none
        in
        [
          Diag.finding ~code:"poll-unbounded" ~loc
            "a loop contains no interrupt poll: poll latency is unbounded";
        ]
    | Some w when w > budget ->
        [
          Diag.finding ~code:"poll-gap"
            "worst-case interrupt-poll gap is %d microcycles (budget %d)" w
            budget;
        ]
    | Some _ -> []
  end

(* -- entry points -------------------------------------------------------- *)

let validate_machine ?(labels = []) d insts =
  check_races ~labels d insts
  @ check_encoding ~labels d insts
  @ check_dead ~labels d insts

let run ?(config = default_config) ?mir ?(labels = []) d insts =
  let mir_findings =
    match mir with
    | None -> []
    | Some p -> check_uninit p @ check_bindings d p
  in
  let machine =
    check_races ~pedantic:config.pedantic ~labels d insts
    @ check_encoding ~labels d insts
    @ check_dead ~labels d insts
  in
  let latency =
    match config.latency_budget with
    | None -> []
    | Some budget -> check_latency ~labels ~budget d insts
  in
  Diag.by_location (mir_findings @ machine @ latency)
