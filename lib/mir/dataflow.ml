(* Dependence analysis.

   Two granularities:
   - machine microoperations (Inst.op), feeding the compaction algorithms
     of §2.1.4 (data dependence; resource dependence is Conflict's job);
   - MIR statements, feeding the SIMPL single-identity experiment (F1).

   The single identity principle of SIMPL (survey §2.2.1) — "S1 should be
   executed before any Si which uses x; and each such Si should be executed
   before Sn+1" — is exactly the RAW + WAR + WAW partial order computed
   here, so one implementation serves both. *)

open Msl_machine

(* An edge into an op from an earlier one, [e_src]: the dependent op must
   be placed at least [e_delta] words later; 0 means the two may share a
   word. *)
type edge = { e_src : int; e_delta : int }

let inter a b = List.exists (fun x -> List.mem x b) a

(* -- dependence over machine microoperations ----------------------------- *)

type op_info = {
  i_reads : int list;
  i_writes : int list;
  i_freads : int;
  i_fwrites : int;
  i_mem : bool;
  i_phase : int;
}

let op_info d (op : Inst.op) =
  let x = Desc.facts d op.Inst.op_t in
  {
    i_reads = Inst.op_reads d op;
    i_writes = Inst.op_writes d op;
    i_freads = x.Desc.x_read_flags;
    i_fwrites = x.Desc.x_set_flags;
    i_mem = x.Desc.x_mem;
    i_phase = op.Inst.op_t.Desc.t_phase;
  }

(* Do two sorted register lists share an element? *)
let meets a b = Inst.first_common a b >= 0

(* The least word distance from op [a] to a later op [b], or -1 when [b]
   does not depend on [a].  Every dependence between the two counts:

   - memory, flag RAW and flag WAW never share a word (conservative);
   - RAW/WAW on registers share only by transport chaining: [chain]
     enabled and the producer's phase strictly earlier;
   - WAR (registers or flags): the reader samples the phase-start state,
     so the writer may share iff it commits in the reader's phase or
     later. *)
let delta ~chain a b =
  let flow = meets a.i_writes b.i_reads || meets a.i_writes b.i_writes in
  let anti = meets a.i_reads b.i_writes || a.i_freads land b.i_fwrites <> 0 in
  if
    (a.i_mem && b.i_mem)
    || a.i_fwrites land (b.i_freads lor b.i_fwrites) <> 0
    || (flow && not (chain && a.i_phase < b.i_phase))
    || (anti && b.i_phase < a.i_phase)
  then 1
  else if flow || anti then 0
  else -1

type graph = { g_preds : edge list array; g_paths : int array }

let graph ~chain d (ops : Inst.op array) =
  let infos = Array.map (op_info d) ops in
  let n = Array.length ops in
  let preds = Array.make n [] in
  for j = 1 to n - 1 do
    for i = j - 1 downto 0 do
      let e_delta = delta ~chain infos.(i) infos.(j) in
      if e_delta >= 0 then preds.(j) <- { e_src = i; e_delta } :: preds.(j)
    done
  done;
  (* Longest chain, in words, starting at each op.  Every successor of [j]
     comes later in source order, so [j]'s length is final by the time it
     is pushed back to [j]'s predecessors. *)
  let paths = Array.make n 1 in
  for j = n - 1 downto 0 do
    List.iter
      (fun e -> paths.(e.e_src) <- max paths.(e.e_src) (paths.(j) + e.e_delta))
      preds.(j)
  done;
  { g_preds = preds; g_paths = paths }

(* -- dependence over MIR statements (single-identity order, F1) ---------- *)

(* The least level distance from statement [a] to a later statement [b]
   under the single-identity order, or -1 when [b] does not depend on
   [a].  Only a WAR dependence allows the same level (the write commits
   after the read). *)
let stmt_delta (a : Mir.stmt) (b : Mir.stmt) =
  let is_mem = function
    | Mir.Store _ | Mir.Store_abs _ | Mir.Special _
    | Mir.Assign { rv = Mir.R_mem _; _ }
    | Mir.Assign { rv = Mir.R_mem_abs _; _ } ->
        true
    | Mir.Assign _ | Mir.Test _ | Mir.Intack -> false
  in
  let sets_flags = function
    | Mir.Test _ | Mir.Special _ -> true  (* Special: conservative *)
    | Mir.Assign { set_flags; _ } -> set_flags
    | Mir.Store _ | Mir.Store_abs _ | Mir.Intack -> false
  in
  let wa = Mir.stmt_writes a and wb = Mir.stmt_writes b in
  if
    inter wa (Mir.stmt_reads b)
    || inter wa wb
    || (is_mem a && is_mem b)
    || (sets_flags a && sets_flags b)
  then 1
  else if inter (Mir.stmt_reads a) wb then 0
  else -1

(* ASAP level of each statement under the single-identity partial order:
   level 0 statements could all start together given unlimited resources. *)
let stmt_levels stmts =
  let arr = Array.of_list stmts in
  let level = Array.make (Array.length arr) 0 in
  Array.iteri
    (fun j b ->
      for i = 0 to j - 1 do
        let d = stmt_delta arr.(i) b in
        if d >= 0 then level.(j) <- max level.(j) (level.(i) + d)
      done)
    arr;
  Array.to_list level

(* Available parallelism measure used by experiment F1: statements divided
   by dependence levels. *)
let parallelism stmts =
  match stmt_levels stmts with
  | [] -> 1.0
  | levels ->
      let depth = 1 + List.fold_left max 0 levels in
      float_of_int (List.length levels) /. float_of_int depth
