(* The compiler back end: MIR program -> control store image.

   The middle-end is a Passmgr pass list built from [options]:
     validate -> (const-fold -> copy-prop -> branch-simplify ->
     jump-thread -> dce, at -O1) -> lower -> (trapsafe) -> (pollpoints)
     -> (regalloc)
   followed by the machine-dependent back end: Select per block,
   Compaction per block, layout & link.  The optimizer runs *before*
   lowering on purpose — folding a constant multiply deletes the whole
   shift-and-add expansion it would otherwise become (§2.1.4's
   machine-independent line).

   The same pipeline serves all four frontends; S* additionally uses the
   lower-level [link] entry point directly because its programmer composes
   microinstructions by hand (cobegin/cocycle), bypassing compaction. *)

open Msl_machine
module Diag = Msl_util.Diag
module Trace = Msl_util.Trace

type options = {
  algo : Compaction.algo;
  chain : bool;  (* allow transport chaining on polyphase machines *)
  strategy : Regalloc.strategy;
  pool_limit : int option;  (* cap on allocatable registers (T5 sweep) *)
  poll : bool;  (* insert interrupt poll points on back edges *)
  trap_safe : bool;  (* restart-safe recompilation (survey §2.1.5) *)
  opt_level : int;  (* 0: survey-faithful, no optimizer; >= 1: Opt passes *)
  bb_budget : int;  (* branch-and-bound node budget (Optimal only) *)
  superopt : bool;  (* post-compaction window superoptimizer (implied by -O2) *)
}

let default_options =
  {
    algo = Compaction.Critical_path;
    chain = true;
    strategy = Regalloc.Priority;
    pool_limit = None;
    poll = false;
    trap_safe = false;
    opt_level = 1;
    bb_budget = Compaction.default_node_budget;
    superopt = false;
  }

(* The canonical textual identity of an option record, sitting next to
   the type on purpose: the record pattern below names every field, so
   adding a field without extending the id is a compile error (warning 9
   is fatal in the dev profile) — the service's cache keys can never go
   stale against the type again. *)
let options_id (o : options) =
  let { algo; chain; strategy; pool_limit; poll; trap_safe; opt_level;
        bb_budget; superopt } =
    o
  in
  String.concat ""
    [
      "algo="; Compaction.algo_name algo;
      ";chain="; string_of_bool chain;
      ";strategy="; Regalloc.strategy_name strategy;
      ";pool="; (match pool_limit with None -> "all" | Some n -> string_of_int n);
      ";poll="; string_of_bool poll;
      ";trap_safe="; string_of_bool trap_safe;
      ";opt="; string_of_int opt_level;
      ";bb="; string_of_int bb_budget;
      ";superopt="; string_of_bool superopt;
    ]

type metrics = {
  m_instructions : int;  (* control-store words used *)
  m_ops : int;  (* microoperations emitted *)
  m_bits : int;  (* control-store bits used *)
  m_blocks : int;
  m_alloc : Regalloc.stats option;
  m_search_nodes : int;  (* B&B nodes, when the Optimal algo ran *)
  m_inexact_blocks : int;  (* blocks whose B&B search hit the budget *)
  m_superopt : Superopt.stats option;  (* when the superoptimizer ran *)
  m_timings : Passmgr.timing list;  (* per-pass elapsed time, execution order *)
}

(* A block lowered to concrete microinstructions with labelled targets. *)
type linked_block = {
  k_label : string;
  k_mis : (Inst.op list * Select.lnext) list;  (* at least one element *)
}

(* -- linking: layout, address resolution, fallthrough cleanup -------------- *)

(* Peephole cleanup at link time: a block that is a single empty word —
   pure fall-through or a bare goto — is dropped and its label redirected
   (jump threading).  The first block is kept so execution still starts at
   address 0.  Goto cycles are left alone. *)
let thread_jumps (blocks : linked_block list) =
  let aliases : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let rec resolve seen l =
    match Hashtbl.find_opt aliases l with
    | Some l' when not (List.mem l' seen) -> resolve (l :: seen) l'
    | _ -> l
  in
  let keep = ref [] in
  (* whether control can fall off the end of the previous (original) block
     into this one: dropping a bare-goto word is only safe when it cannot *)
  let prev_falls = ref false in
  let falls_out (b : linked_block) =
    match List.rev b.k_mis with
    | (_, (Select.L_goto _ | Select.L_halt | Select.L_return)) :: _ -> false
    | _ -> true  (* L_next, L_branch else-path, L_call continuation, ... *)
  in
  List.iteri
    (fun i b ->
      match b.k_mis with
      | [ ([], Select.L_next) ] when i > 0 ->
          keep := `Fallthrough b.k_label :: !keep
          (* an empty fall-through word is an identity for incoming flow,
             so [prev_falls] is unchanged *)
      | [ ([], Select.L_goto l) ] when i > 0 && l <> b.k_label && not !prev_falls ->
          Hashtbl.replace aliases b.k_label l;
          keep := `Dropped b.k_label :: !keep;
          prev_falls := false
      | _ ->
          keep := `Block b :: !keep;
          prev_falls := falls_out b)
    blocks;
  (* a dropped fall-through block aliases to the next surviving block *)
  let rec assign_fallthroughs acc = function
    | [] -> List.rev acc
    | `Fallthrough label :: rest -> (
        (* alias to whatever comes next in the original layout; dropped and
           fall-through successors chain through their own aliases *)
        let next_label = function
          | `Block b :: _ -> Some b.k_label
          | `Fallthrough l2 :: _ -> Some l2
          | `Dropped l2 :: _ -> Some l2
          | [] -> None
        in
        match next_label rest with
        | Some target ->
            Hashtbl.replace aliases label target;
            assign_fallthroughs acc rest
        | None ->
            (* nothing follows: keep the word, falling off the end halts *)
            assign_fallthroughs
              (`Block { k_label = label; k_mis = [ ([], Select.L_halt) ] }
              :: acc)
              rest)
    | `Dropped _ :: rest -> assign_fallthroughs acc rest
    | `Block b :: rest -> assign_fallthroughs (`Block b :: acc) rest
  in
  let survivors =
    assign_fallthroughs [] (List.rev !keep)
    |> List.filter_map (function `Block b -> Some b | _ -> None)
  in
  let rewrite l = resolve [] l in
  let rewrite_next = function
    | Select.L_goto l -> Select.L_goto (rewrite l)
    | Select.L_branch (c, l) -> Select.L_branch (c, rewrite l)
    | Select.L_dispatch { dreg; hi; lo; table } ->
        Select.L_dispatch { dreg; hi; lo; table = List.map rewrite table }
    | Select.L_call l -> Select.L_call (rewrite l)
    | (Select.L_next | Select.L_return | Select.L_halt) as n -> n
  in
  let survivors =
    List.map
      (fun b ->
        { b with
          k_mis = List.map (fun (ops, n) -> (ops, rewrite_next n)) b.k_mis })
      survivors
  in
  (survivors, rewrite)

let link ?(aliases = []) (_d : Desc.t) (blocks : linked_block list) :
    Inst.t list * (string * int) list =
  let blocks, thread = thread_jumps blocks in
  let aliases = List.map (fun (n, l) -> (n, thread l)) aliases in
  (* expand dispatch tables into explicit jump rows *)
  let expand_mis (ops, next) =
    match next with
    | Select.L_dispatch { dreg; hi; lo; table } ->
        (ops, Select.L_dispatch { dreg; hi; lo; table })
        :: List.map (fun tgt -> ([], Select.L_goto tgt)) table
    | _ -> [ (ops, next) ]
  in
  let blocks =
    List.map
      (fun b -> { b with k_mis = List.concat_map expand_mis b.k_mis })
      blocks
  in
  (* assign addresses *)
  let addr = ref 0 in
  let label_map =
    List.map
      (fun b ->
        let a = !addr in
        addr := a + List.length b.k_mis;
        (b.k_label, a))
      blocks
  in
  (* resolution is the hot loop of linking (once per emitted word), so
     index labels and aliases in hash tables; first binding wins, like
     the assoc lists they replace *)
  let index pairs =
    let tbl = Hashtbl.create (2 * List.length pairs) in
    List.iter
      (fun (k, v) -> if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k v)
      pairs;
    tbl
  in
  let label_tbl = index label_map in
  let alias_tbl = index aliases in
  let resolve l =
    match Hashtbl.find_opt label_tbl l with
    | Some a -> a
    | None -> (
        (* procedure names alias their entry block's label *)
        match Hashtbl.find_opt alias_tbl l with
        | Some entry -> (
            match Hashtbl.find_opt label_tbl entry with
            | Some a -> a
            | None -> Diag.error Diag.Codegen "undefined code label %S" entry)
        | None -> Diag.error Diag.Codegen "undefined code label %S" l)
  in
  let insts =
    List.concat_map
      (fun b ->
        List.map (fun (ops, next) -> (ops, next)) b.k_mis)
      blocks
  in

  let final =
    List.mapi
      (fun i (ops, next) ->
        let next =
          match next with
          | Select.L_next -> Inst.Next
          | Select.L_goto l ->
              let a = resolve l in
              if a = i + 1 then Inst.Next else Inst.Jump a
          | Select.L_branch (c, l) -> Inst.Branch (c, resolve l)
          | Select.L_dispatch { dreg; hi; lo; _ } ->
              (* the table rows immediately follow this instruction *)
              Inst.Dispatch { dreg; hi; lo; base = i + 1 }
          | Select.L_call l -> Inst.Call (resolve l)
          | Select.L_return -> Inst.Return
          | Select.L_halt -> Inst.Halt
        in
        { Inst.ops; next })
      insts
  in
  (final, label_map)

(* -- per-block code generation ---------------------------------------------- *)

let lower_block ~options ?capture ctx d nodes_acc inexact_acc (b : Mir.block) :
    linked_block =
  let lb = Select.select_block ctx b in
  let result =
    Compaction.compact ~chain:options.chain ~node_budget:options.bb_budget
      ~algo:options.algo d lb.Select.lb_body
  in
  nodes_acc := !nodes_acc + result.Compaction.nodes;
  if not result.Compaction.exact then incr inexact_acc;
  let body_mis = List.map (fun g -> (g, Select.L_next)) result.Compaction.groups in
  let mis =
    match lb.Select.lb_tail with
    | [] -> body_mis  (* cannot happen: every terminator yields a tail *)
    | first :: rest ->
        let rest_mis =
          List.map (fun t -> (t.Select.t_ops, t.Select.t_next)) rest
        in
        if first.Select.t_ops = [] && body_mis <> [] then begin
          (* merge the branch into the last body microinstruction *)
          let rec merge = function
            | [ (ops, Select.L_next) ] -> [ (ops, first.Select.t_next) ]
            | mi :: tl -> mi :: merge tl
            | [] -> assert false
          in
          merge body_mis @ rest_mis
        end
        else
          body_mis
          @ ((first.Select.t_ops, first.Select.t_next) :: rest_mis)
  in
  let mis = if mis = [] then [ ([], Select.L_next) ] else mis in
  (match capture with
  | Some f ->
      f
        {
          Tv.a_label = b.Mir.b_label;
          a_body = lb.Select.lb_body;
          a_tail = lb.Select.lb_tail;
          a_mis = mis;
        }
  | None -> ());
  { k_label = b.Mir.b_label; k_mis = mis }

(* -- the middle-end as a pass list ------------------------------------------- *)

(* Build the MIR pass pipeline for [options].  The optimizer passes are
   gated on the level; trapsafe/pollpoints on their flags; regalloc on
   whether the program *reaching it* still has virtual registers —
   trapsafe introduces vregs into all-physical programs, which is
   exactly why the predicate takes the current program. *)
let mir_passes ~options d ~alloc_stats =
  let o1 = Passmgr.make ~enabled:(fun _ -> options.opt_level >= 1) in
  [
    Passmgr.make ~descr:"check label and block invariants" "validate"
      Mir.validate;
    o1 ~descr:"constant folding and propagation" "const-fold"
      Opt.constant_fold;
    o1 ~descr:"copy propagation" "copy-prop" Opt.copy_prop;
    o1 ~descr:"decide branches on known conditions" "branch-simplify"
      Opt.branch_simplify;
    o1 ~descr:"thread jumps, drop unreachable blocks" "jump-thread"
      Opt.jump_thread;
    o1 ~descr:"dead-assignment elimination" "dce" Opt.dce;
    Passmgr.make ~descr:"machine-dependent expansion (mul, div, switch)"
      "lower"
      (fun p -> Lower.expand d p);
    Passmgr.make
      ~enabled:(fun _ -> options.trap_safe)
      ~descr:"restart-safe rewriting of faulting blocks" "trapsafe"
      (fun p -> Trapsafe.rewrite d p);
    Passmgr.make
      ~enabled:(fun _ -> options.poll)
      ~descr:"interrupt poll points on back edges" "pollpoints"
      Pollpoints.insert;
    Passmgr.make
      ~enabled:(fun p -> Mir.program_vregs p <> [])
      ~descr:"virtual register allocation" "regalloc"
      (fun p ->
        let p', stats =
          Regalloc.run ~strategy:options.strategy
            ?pool_limit:options.pool_limit d p
        in
        alloc_stats := Some stats;
        p');
  ]

(* Every middle-end pass name compile can run, in pipeline order (for
   --dump-after validation and documentation). *)
let pass_names =
  [ "validate"; "const-fold"; "copy-prop"; "branch-simplify"; "jump-thread";
    "dce"; "lower"; "trapsafe"; "pollpoints"; "regalloc" ]

(* -- entry point -------------------------------------------------------------- *)

let compile ?(options = default_options) ?observe ?capture ?superopt_memo
    ?superopt_capture (d : Desc.t) (p : Mir.program) =
  let alloc_stats = ref None in
  let p, timings =
    Trace.with_span ~cat:"pipeline" "middle-end"
      ~args:[ ("machine", Trace.A_string d.Desc.d_name) ]
      (fun () -> Passmgr.run ?observe (mir_passes ~options d ~alloc_stats) p)
  in
  let ctx = Select.make_ctx d in
  let nodes_acc = ref 0 in
  let inexact_acc = ref 0 in
  (* the back-end pseudo-passes time themselves through the same
     Trace.timed the pass manager uses, so --time-passes and --trace
     report them identically *)
  let blocks, select_ms =
    Trace.timed ~cat:"pipeline" "select+compact" (fun () ->
        List.map
          (lower_block ~options ?capture ctx d nodes_acc inexact_acc)
          (Mir.all_blocks p))
  in
  let aliases =
    List.filter_map
      (fun pr ->
        match pr.Mir.p_blocks with
        | b :: _ -> Some (pr.Mir.p_name, b.Mir.b_label)
        | [] -> None)
      p.Mir.procs
  in
  (* the superoptimizer sits between per-block compaction and linking:
     it still sees labels (so its windows can span block seams) but the
     schedule it refines is final *)
  let blocks, superopt_stats, superopt_ms =
    if not (options.superopt || options.opt_level >= 2) then (blocks, None, 0.)
    else
      let (pairs, stats), ms =
        Trace.timed ~cat:"pipeline" "superopt" (fun () ->
            Superopt.run ?memo:superopt_memo ?observe:superopt_capture
              ~chain:options.chain ~node_budget:options.bb_budget
              ~extra_refs:(List.map snd aliases) d
              (List.map (fun b -> (b.k_label, b.k_mis)) blocks))
      in
      ( List.map (fun (l, ws) -> { k_label = l; k_mis = ws }) pairs,
        Some stats,
        ms )
  in
  let (insts, label_map), link_ms =
    Trace.timed ~cat:"pipeline" "link" (fun () -> link ~aliases d blocks)
  in
  let timings =
    timings
    @ [ { Passmgr.t_pass = "select+compact"; t_ms = select_ms } ]
    @ (match superopt_stats with
      | Some _ -> [ { Passmgr.t_pass = "superopt"; t_ms = superopt_ms } ]
      | None -> [])
    @ [ { Passmgr.t_pass = "link"; t_ms = link_ms } ]
  in
  if Trace.enabled () then begin
    Trace.counter ~cat:"compaction" "search_nodes" !nodes_acc;
    if !inexact_acc > 0 then
      Trace.counter ~cat:"compaction" "inexact_blocks" !inexact_acc
  end;
  let metrics =
    {
      m_instructions = List.length insts;
      m_ops =
        List.fold_left (fun acc i -> acc + List.length i.Inst.ops) 0 insts;
      m_bits = Encode.program_bits d insts;
      m_blocks = List.length blocks;
      m_alloc = !alloc_stats;
      m_search_nodes = !nodes_acc;
      m_inexact_blocks = !inexact_acc;
      m_superopt = superopt_stats;
      m_timings = timings;
    }
  in
  (insts, label_map, metrics)

(* Compile and load into a fresh simulator. *)
let load ?(options = default_options) ?trap_mode d p =
  let insts, labels, metrics = compile ~options d p in
  let sim = Sim.create ?trap_mode d in
  Sim.load_store sim insts;
  (sim, labels, metrics)
