(* Whole-program control-flow graph and block-level liveness.

   The per-block [Dataflow] module orders statements inside one block;
   this module connects the blocks, so the machine-independent optimizer
   (Opt) can reason about the program as a graph: which blocks are
   reachable, which registers are live across block boundaries, and —
   crucially — which statements touch state the register-level analyses
   cannot see (memory, flags, raw microoperations).  The survey draws
   this machine-independent line in §2.1.4; everything below it is the
   composition problem, everything above it is classical flow analysis. *)

(* -- statement effects ------------------------------------------------------ *)

(* What a statement does beyond its register reads/writes.  [Store] and
   [Store_abs] write memory that register-level liveness cannot see, so
   any analysis deleting "dead" code must consult [mem_write]/[barrier]
   instead of assuming [Mir.stmt_writes] tells the whole story.  A
   [Special] is a raw machine microoperation: it may read or write
   anything, so it is a full barrier. *)
type effects = {
  e_reads : Mir.reg list;
  e_writes : Mir.reg list;  (* definite register writes *)
  e_mem_read : bool;
  e_mem_write : bool;
  e_sets_flags : bool;
  e_barrier : bool;  (* unknown reads/writes: treat as touching everything *)
  e_removable : bool;  (* deletable when every written register is dead *)
}

let stmt_effects (s : Mir.stmt) : effects =
  match s with
  | Mir.Assign { dst; rv; set_flags } ->
      let mem_read =
        match rv with Mir.R_mem _ | Mir.R_mem_abs _ -> true | _ -> false
      in
      {
        e_reads = Mir.rvalue_reads rv;
        e_writes = [ dst ];
        e_mem_read = mem_read;
        e_mem_write = false;
        e_sets_flags = set_flags;
        e_barrier = false;
        (* a flag-setting assignment feeds a later flag test, and a load
           may fault (the trap machinery of §2.1.5 observes it); deleting
           either would be visible even when [dst] is dead *)
        e_removable = (not set_flags) && not mem_read;
      }
  | Mir.Store { addr; src } ->
      {
        e_reads = [ addr; src ];
        e_writes = [];
        e_mem_read = false;
        e_mem_write = true;
        e_sets_flags = false;
        e_barrier = false;
        e_removable = false;
      }
  | Mir.Store_abs { src; _ } ->
      {
        e_reads = [ src ];
        e_writes = [];
        e_mem_read = false;
        e_mem_write = true;
        e_sets_flags = false;
        e_barrier = false;
        e_removable = false;
      }
  | Mir.Test r ->
      {
        e_reads = [ r ];
        e_writes = [];
        e_mem_read = false;
        e_mem_write = false;
        e_sets_flags = true;
        e_barrier = false;
        e_removable = false;
      }
  | Mir.Intack ->
      {
        e_reads = [];
        e_writes = [];
        e_mem_read = false;
        e_mem_write = false;
        e_sets_flags = false;
        e_barrier = true;  (* acknowledges an interrupt: never move/delete *)
        e_removable = false;
      }
  | Mir.Special { args; _ } ->
      {
        e_reads = args;
        e_writes = [];  (* only *may* write its args; kill nothing *)
        e_mem_read = true;
        e_mem_write = true;
        e_sets_flags = true;
        e_barrier = true;
        e_removable = false;
      }

(* -- the graph -------------------------------------------------------------- *)

type node = {
  n_block : Mir.block;
  n_succ : int list;  (* indices into [nodes] *)
  n_pred : int list;
}

type t = {
  c_program : Mir.program;
  c_nodes : node array;
  c_index : (Mir.label, int) Hashtbl.t;  (* block label -> node index *)
  c_proc_entry : (Mir.label, Mir.label) Hashtbl.t;  (* proc name -> entry *)
}

(* Indices of the blocks a terminator may transfer to.  A [Call] can reach
   both the procedure's entry and — through the matching [Ret] — its
   continuation, so both are successors; [Ret] and [Halt] leave the
   graph. *)
let term_succ_labels proc_entry (t : Mir.term) =
  let resolve l =
    match Hashtbl.find_opt proc_entry l with Some e -> e | None -> l
  in
  List.map resolve (Mir.term_targets t)

let build (p : Mir.program) : t =
  let blocks = Array.of_list (Mir.all_blocks p) in
  let index = Hashtbl.create (Array.length blocks * 2) in
  Array.iteri (fun i b -> Hashtbl.replace index b.Mir.b_label i) blocks;
  let proc_entry = Hashtbl.create 8 in
  List.iter
    (fun pr ->
      match pr.Mir.p_blocks with
      | b :: _ -> Hashtbl.replace proc_entry pr.Mir.p_name b.Mir.b_label
      | [] -> ())
    p.Mir.procs;
  let succ i =
    term_succ_labels proc_entry blocks.(i).Mir.b_term
    |> List.filter_map (Hashtbl.find_opt index)
    |> List.sort_uniq compare
  in
  let succs = Array.init (Array.length blocks) succ in
  let preds = Array.make (Array.length blocks) [] in
  Array.iteri
    (fun i ss -> List.iter (fun s -> preds.(s) <- i :: preds.(s)) ss)
    succs;
  {
    c_program = p;
    c_nodes =
      Array.init (Array.length blocks) (fun i ->
          { n_block = blocks.(i); n_succ = succs.(i); n_pred = preds.(i) });
    c_index = index;
    c_proc_entry = proc_entry;
  }

let block_index cfg l = Hashtbl.find_opt cfg.c_index l

(* Blocks reachable from the entry of [main], following calls into
   procedure bodies. *)
let reachable (cfg : t) : bool array =
  let n = Array.length cfg.c_nodes in
  let seen = Array.make n false in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter visit cfg.c_nodes.(i).n_succ
    end
  in
  if n > 0 then visit 0;
  seen

(* -- block-level liveness ---------------------------------------------------- *)

module RSet = Set.Make (struct
  type t = Mir.reg

  let compare = compare
end)

type liveness = { live_in : RSet.t array; live_out : RSet.t array }

(* Every register the program mentions; nothing outside it can ever be
   read, so it is the analysis universe. *)
let universe (p : Mir.program) : RSet.t =
  let add acc r = RSet.add r acc in
  List.fold_left
    (fun acc b ->
      let acc =
        List.fold_left
          (fun acc s ->
            let e = stmt_effects s in
            List.fold_left add (List.fold_left add acc e.e_reads) e.e_writes)
          acc b.Mir.b_stmts
      in
      List.fold_left add acc (Mir.term_reads b.Mir.b_term))
    RSet.empty (Mir.all_blocks p)

(* Live registers at program exit.  A halted microprogram leaves its
   machine registers observable — they *are* the architecture — so every
   physical register stays live at [Halt].  Virtual registers are the
   compiler's symbolic variables and die with the program.  At [Ret]
   control returns to an unknown continuation, so everything stays
   live. *)
let exit_live ~univ = function
  | Mir.Halt -> RSet.filter (function Mir.Phys _ -> true | _ -> false) univ
  | Mir.Ret -> univ
  | _ -> RSet.empty

(* Transfer one statement backwards over a live set. *)
let live_before ~univ (s : Mir.stmt) live =
  let e = stmt_effects s in
  if e.e_barrier then univ  (* may read anything *)
  else
    let live =
      List.fold_left (fun acc w -> RSet.remove w acc) live e.e_writes
    in
    List.fold_left (fun acc r -> RSet.add r acc) live e.e_reads

let block_live_in ~univ (b : Mir.block) live_out =
  let live =
    List.fold_left
      (fun acc r -> RSet.add r acc)
      live_out
      (Mir.term_reads b.Mir.b_term)
  in
  List.fold_right (live_before ~univ) b.Mir.b_stmts live

let liveness (cfg : t) : liveness =
  let n = Array.length cfg.c_nodes in
  let univ = universe cfg.c_program in
  let live_in = Array.make n RSet.empty in
  let live_out = Array.make n RSet.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      let node = cfg.c_nodes.(i) in
      let out =
        List.fold_left
          (fun acc s -> RSet.union acc live_in.(s))
          (exit_live ~univ node.n_block.Mir.b_term)
          node.n_succ
      in
      let inl = block_live_in ~univ node.n_block out in
      if not (RSet.equal out live_out.(i) && RSet.equal inl live_in.(i))
      then begin
        live_out.(i) <- out;
        live_in.(i) <- inl;
        changed := true
      end
    done
  done;
  { live_in; live_out }
