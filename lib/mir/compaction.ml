(* Microinstruction composition ("compaction"): packing a straight-line
   sequence of microoperations into as few horizontal microinstructions as
   data dependence (Dataflow) and resource/encoding conflicts (Conflict)
   allow.  This is the problem the survey says has been "overemphasized"
   (§3) — here it earns its keep as experiment T4.

   Algorithms, following the survey's references:
   - [Sequential]     no packing: what a vertical machine does anyway;
   - [Fcfs]           first-come-first-served linear placement, in the
                      spirit of Dasgupta & Tartar [3];
   - [Critical_path]  list scheduling by longest-path priority, in the
                      spirit of Tsuchiya & Gonzalez [22];
   - [Optimal]        branch-and-bound exact minimum, in the spirit of
                      Tokoro et al. [21] (exponential; falls back to the
                      critical-path answer beyond a node budget).

   [chain] enables transport chaining on polyphase machines: a dependent
   op may share a microinstruction with its producer when the producer's
   phase strictly precedes (H1's three-phase cycle). *)

open Msl_machine
module Diag = Msl_util.Diag
module Trace = Msl_util.Trace

type algo = Sequential | Fcfs | Critical_path | Optimal

let algo_name = function
  | Sequential -> "sequential"
  | Fcfs -> "fcfs"
  | Critical_path -> "critical-path"
  | Optimal -> "branch-and-bound"

type result = {
  groups : Inst.op list list;  (* one element per microinstruction *)
  r_algo : algo;  (* the algorithm *requested* by the caller *)
  forced_sequential : bool;  (* vertical machine overrode it to Sequential *)
  nodes : int;  (* search nodes (Optimal only) *)
  exact : bool;  (* Optimal completed within its node budget *)
}

(* Is [groups] a schedule of [arr]: every op placed once, every edge of
   its dependence graph [g] respected, every word conflict-free?  [compact]
   runs it on every result, against the graph the algorithm used. *)
let valid (g : Dataflow.graph) d arr groups =
  let n = Array.length arr in
  let place = Array.make n (-1) in
  (* match each placed op back to an unused source index; physical equality
     first so that duplicated identical instances resolve distinctly *)
  let locate op =
    let rec find pred i =
      if i >= n then None
      else if place.(i) = -1 && pred arr.(i) op then Some i
      else find pred (i + 1)
    in
    match find ( == ) 0 with Some i -> Some i | None -> find ( = ) 0
  in
  List.iteri
    (fun k group ->
      List.iter
        (fun op ->
          match locate op with
          | Some i -> place.(i) <- k
          | None -> Diag.error Diag.Compaction "schedule invented an op")
        group)
    groups;
  Array.for_all (fun p -> p >= 0) place
  && Array.for_all2
       (fun p preds ->
         List.for_all
           (fun (e : Dataflow.edge) -> p - place.(e.e_src) >= e.e_delta)
           preds)
       place g.Dataflow.g_preds
  && List.for_all
       (fun group ->
         Result.is_ok (Conflict.check_inst d { Inst.ops = group; next = Inst.Next }))
       groups

let check ~chain d ops groups =
  let arr = Array.of_list ops in
  valid (Dataflow.graph ~chain d arr) d arr groups

(* [check] accepts no grouping shorter than the longest dependence chain
   or than a clique of pairwise conflicting ops, one word each. *)
let lower_bound ~chain d ops =
  let g = Dataflow.graph ~chain d (Array.of_list ops) in
  let clique =
    List.fold_left
      (fun clique op ->
        if List.for_all (fun c -> Conflict.pair_conflict d c op <> None) clique
        then op :: clique
        else clique)
      [] ops
  in
  max (Array.fold_left max 0 g.Dataflow.g_paths) (List.length clique)

let sequential ops = List.map (fun op -> [ op ]) ops

(* Every algorithm below schedules [arr] from its dependence graph [g].  An
   op is ready for word [k] once each predecessor [e_src] is placed at
   least [e_delta] words before it: a predecessor placed in word [k]
   itself is then one that may share it. *)
let ready (g : Dataflow.graph) place k j =
  place.(j) = -1
  && List.for_all
       (fun (e : Dataflow.edge) ->
         let p = place.(e.e_src) in
         p <> -1 && p + e.e_delta <= k)
       g.g_preds.(j)

(* -- first-come-first-served --------------------------------------------- *)

let fcfs (g : Dataflow.graph) d arr =
  let n = Array.length arr in
  let place = Array.make n (-1) in
  (* microinstructions under construction: a doubling dynamic array of
     *reversed* op accumulators.  The conflict model is pairwise, so the
     order [fits] sees does not matter; placement order is restored by one
     [List.rev] per word at the end. *)
  let mis : Inst.op list array ref = ref (Array.make 8 []) in
  let count = ref 0 in
  let mi_get k = !mis.(k) in
  let mi_add k op = !mis.(k) <- op :: !mis.(k) in
  let new_mi () =
    if !count = Array.length !mis then begin
      let a = Array.make (2 * !count) [] in
      Array.blit !mis 0 a 0 !count;
      mis := a
    end;
    incr count;
    !count - 1
  in
  for j = 0 to n - 1 do
    (* every predecessor is placed; from [earliest] on, one in the same
       word is one that may share it *)
    let earliest =
      List.fold_left
        (fun acc (e : Dataflow.edge) -> max acc (place.(e.e_src) + e.e_delta))
        0 g.g_preds.(j)
    in
    let rec scan k =
      if k >= !count then new_mi ()
      else if Result.is_ok (Conflict.fits d (mi_get k) arr.(j)) then k
      else scan (k + 1)
    in
    let k = scan earliest in
    mi_add k arr.(j);
    place.(j) <- k
  done;
  List.init !count (fun k -> List.rev !mis.(k))

(* -- critical-path list scheduling --------------------------------------- *)

(* Fill each word in turn with the ready op of highest priority (longest
   chain, then source order) that fits it.  The priority is static, so the
   op indices are sorted by it once and each placement scans that order. *)
let critical_path (g : Dataflow.graph) d arr =
  let n = Array.length arr in
  let prio = g.Dataflow.g_paths in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match Int.compare prio.(b) prio.(a) with 0 -> Int.compare a b | c -> c)
    order;
  let place = Array.make n (-1) in
  let scheduled = ref 0 in
  let groups = ref [] in
  let k = ref 0 in
  while !scheduled < n do
    (* the word under construction, reversed (see [fcfs]) *)
    let current = ref [] in
    let rec pick i =
      if i < n then begin
        let j = order.(i) in
        if ready g place !k j && Result.is_ok (Conflict.fits d !current arr.(j))
        then begin
          current := arr.(j) :: !current;
          place.(j) <- !k;
          incr scheduled;
          pick 0
        end
        else pick (i + 1)
      end
    in
    pick 0;
    if !current = [] then
      (* cannot happen on a DAG, but fail loudly rather than spin *)
      Diag.error Diag.Compaction "list scheduler wedged at cycle %d" !k;
    groups := List.rev !current :: !groups;
    incr k
  done;
  List.rev !groups

(* -- branch and bound ----------------------------------------------------- *)

let default_node_budget = 300_000

let optimal (g : Dataflow.graph) ~node_budget d arr =
  let n = Array.length arr in
  if n = 0 then ([], 0, true)
  else begin
    let chains = g.Dataflow.g_paths in
    let init = critical_path g d arr in
    let best = ref init in
    let best_len = ref (List.length init) in
    let place = Array.make n (-1) in
    let nodes = ref 0 in
    let exhausted = ref false in
    (* DFS: [k] is the current microinstruction index, [current] its ops
       (indices, increasing), [done_] how many ops are scheduled. *)
    (* Budget check happens *before* the node is counted, so the reported
       [nodes] can never exceed [node_budget]. *)
    let rec go k current done_ last_idx mis_rev =
      if !nodes >= node_budget then exhausted := true
      else if (incr nodes; done_ = n) then begin
        let final =
          if current = [] then List.rev mis_rev
          else List.rev (List.rev_map (fun j -> arr.(j)) current :: mis_rev)
        in
        let len = List.length final in
        if len < !best_len then begin
          best := final;
          best_len := len
        end
      end
      else begin
        (* lower bound: finished MIs + longest chain among unscheduled *)
        let lb = ref 0 in
        for j = 0 to n - 1 do
          if place.(j) = -1 then lb := max !lb chains.(j)
        done;
        let n_closed = List.length mis_rev in
        let cur_count = if current = [] then 0 else 1 in
        if n_closed + max !lb cur_count >= !best_len then ()
        else begin
          let current_ops = List.rev_map (fun j -> arr.(j)) current in
          (* extend the current MI with any ready op of larger index *)
          for j = last_idx + 1 to n - 1 do
            if (not !exhausted) && ready g place k j
               && Result.is_ok (Conflict.fits d current_ops arr.(j))
            then begin
              place.(j) <- k;
              go k (j :: current) (done_ + 1) j mis_rev;
              place.(j) <- -1
            end
          done;
          (* or close it and start the next one *)
          if (not !exhausted) && current <> [] then
            go (k + 1) [] done_ (-1)
              (List.rev_map (fun j -> arr.(j)) current :: mis_rev)
        end
      end
    in
    go 0 [] 0 (-1) [];
    (!best, !nodes, not !exhausted)
  end

(* -- entry point ---------------------------------------------------------- *)

let compact ?(chain = true) ?(node_budget = default_node_budget) ~algo
    (d : Desc.t) (ops : Inst.op list) =
  (* A vertical machine packs one op per word regardless of the requested
     algorithm.  Keep the override, but *report* the algorithm the caller
     asked for, with [forced_sequential] recording that it was ignored —
     T4 tables and trace rows must not mislabel vertical rows. *)
  let forced_sequential = d.Desc.d_vertical && algo <> Sequential in
  let effective = if d.Desc.d_vertical then Sequential else algo in
  (* one dependence graph per block: the algorithm schedules from it and
     the result is checked against it *)
  let arr = Array.of_list ops in
  let g = Dataflow.graph ~chain d arr in
  let groups, nodes, exact =
    match effective with
    | Sequential -> (sequential ops, 0, true)
    | Fcfs -> (fcfs g d arr, 0, true)
    | Critical_path -> (critical_path g d arr, 0, true)
    | Optimal -> optimal g ~node_budget d arr
  in
  let groups = List.filter (fun ws -> ws <> []) groups in
  if not (valid g d arr groups) then
    Diag.error Diag.Compaction "%s produced an invalid schedule"
      (algo_name effective);
  if Trace.enabled () then begin
    Trace.instant ~cat:"compaction" "block"
      ~args:
        [
          ("algo", Trace.A_string (algo_name algo));
          ("forced_sequential", Trace.A_bool forced_sequential);
          ("ops", Trace.A_int (List.length ops));
          ("words", Trace.A_int (List.length groups));
          ("nodes", Trace.A_int nodes);
          ("exact", Trace.A_bool exact);
        ];
    if not exact then
      Trace.instant ~cat:"compaction" "bb_budget_exhausted"
        ~args:
          [
            ("nodes", Trace.A_int nodes);
            ("budget", Trace.A_int node_budget);
            ("ops", Trace.A_int (List.length ops));
          ]
  end;
  { groups; r_algo = algo; forced_sequential; nodes; exact }
