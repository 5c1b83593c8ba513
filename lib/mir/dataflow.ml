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

type ekind = Raw | War | Waw | Mem | Flag_raw | Flag_war | Flag_waw

type edge = { e_src : int; e_dst : int; e_kind : ekind }

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

(* Dependence edges between ops [i] and [j] with i < j in source order. *)
let pair_edges infos i j =
  let a = infos.(i) and b = infos.(j) in
  let e kind = { e_src = i; e_dst = j; e_kind = kind } in
  let acc = if a.i_mem && b.i_mem then [ e Mem ] else [] in
  let acc = if meets a.i_writes b.i_reads then e Raw :: acc else acc in
  let acc = if meets a.i_reads b.i_writes then e War :: acc else acc in
  let acc = if meets a.i_writes b.i_writes then e Waw :: acc else acc in
  let fw = a.i_fwrites and fr = a.i_freads in
  let acc = if fw land b.i_freads <> 0 then e Flag_raw :: acc else acc in
  let acc = if fr land b.i_fwrites <> 0 then e Flag_war :: acc else acc in
  let acc = if fw land b.i_fwrites <> 0 then e Flag_waw :: acc else acc in
  acc

let build d (ops : Inst.op array) =
  let infos = Array.map (op_info d) ops in
  let edges = ref [] in
  let n = Array.length ops in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := pair_edges infos i j @ !edges
    done
  done;
  (infos, List.rev !edges)

(* May the dependent op share a microinstruction with its source?

   - WAR: the reader samples the phase-start state, so the writer may share
     iff it commits in the reader's phase or later.
   - RAW/WAW on registers: only by transport chaining (the producer's phase
     strictly precedes the consumer's), and only when [chain] is enabled.
   - flag and memory edges never share (conservative). *)
let same_mi_ok ~chain infos e =
  let a = infos.(e.e_src) and b = infos.(e.e_dst) in
  match e.e_kind with
  | War -> b.i_phase >= a.i_phase
  | Flag_war -> b.i_phase >= a.i_phase
  | Raw | Waw -> chain && a.i_phase < b.i_phase
  | Flag_raw | Flag_waw | Mem -> false

(* Minimum microinstruction distance implied by an edge. *)
let min_delta ~chain infos e = if same_mi_ok ~chain infos e then 0 else 1

(* Predecessor edge lists, indexed by destination op. *)
let preds_by_dst n edges =
  let preds = Array.make n [] in
  List.iter (fun e -> preds.(e.e_dst) <- e :: preds.(e.e_dst)) edges;
  preds

let succs_by_src n edges =
  let succs = Array.make n [] in
  List.iter (fun e -> succs.(e.e_src) <- e :: succs.(e.e_src)) edges;
  succs

(* Length (in microinstructions) of the longest dependence chain starting
   at each op: the list-scheduling priority and the B&B lower bound. *)
let path_lengths ~chain infos edges =
  let n = Array.length infos in
  let succs = succs_by_src n edges in
  let len = Array.make n 1 in
  for i = n - 1 downto 0 do
    List.iter
      (fun e ->
        len.(i) <- max len.(i) (len.(e.e_dst) + min_delta ~chain infos e))
      succs.(i)
  done;
  len

let critical_path ~chain infos edges =
  Array.fold_left max 0 (path_lengths ~chain infos edges)

(* -- dependence over MIR statements (single-identity order, F1) ---------- *)

let stmt_edges (stmts : Mir.stmt list) =
  let arr = Array.of_list stmts in
  let n = Array.length arr in
  let reads i = Mir.stmt_reads arr.(i) in
  let writes i = Mir.stmt_writes arr.(i) in
  let is_mem i =
    match arr.(i) with
    | Mir.Store _ | Mir.Store_abs _ | Mir.Special _
    | Mir.Assign { rv = Mir.R_mem _; _ }
    | Mir.Assign { rv = Mir.R_mem_abs _; _ } ->
        true
    | Mir.Assign _ | Mir.Test _ | Mir.Intack -> false
  in
  let sets_flags i =
    match arr.(i) with
    | Mir.Test _ | Mir.Special _ -> true  (* Special: conservative *)
    | Mir.Assign { set_flags; _ } -> set_flags
    | Mir.Store _ | Mir.Store_abs _ | Mir.Intack -> false
  in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let e kind = edges := { e_src = i; e_dst = j; e_kind = kind } :: !edges in
      if inter (writes i) (reads j) then e Raw;
      if inter (reads i) (writes j) then e War;
      if inter (writes i) (writes j) then e Waw;
      if is_mem i && is_mem j then e Mem;
      if sets_flags i && sets_flags j then e Flag_waw
    done
  done;
  List.rev !edges

(* ASAP level of each statement under the single-identity partial order:
   level 0 statements could all start together given unlimited resources.
   WAR edges allow the same level (write commits after the read). *)
let stmt_levels stmts =
  let n = List.length stmts in
  let edges = stmt_edges stmts in
  let level = Array.make n 0 in
  List.iter
    (fun e ->
      let d = match e.e_kind with War | Flag_war -> 0 | _ -> 1 in
      level.(e.e_dst) <- max level.(e.e_dst) (level.(e.e_src) + d))
    edges;
  Array.to_list level

(* Available parallelism measure used by experiment F1: statements divided
   by dependence levels. *)
let parallelism stmts =
  match stmt_levels stmts with
  | [] -> 1.0
  | levels ->
      let depth = 1 + List.fold_left max 0 levels in
      float_of_int (List.length levels) /. float_of_int depth
