(* Peephole superoptimization of compacted microcode (-O2).

   The per-block compactor (Compaction) cannot move work across block
   boundaries or into the sequencing tail, which is exactly where the T2
   experiment finds the gap to hand-written microcode: branch-bearing
   words, jump-to-jump seams, fall-through arms split by layout.  This
   pass slides short windows over the lowered word lists — after
   compaction, before linking — and proposes three rewrite classes:

     repack         re-schedule a window's ops with the branch-and-bound
                    compactor, spanning a merged block boundary; a window
                    whose Compaction.lower_bound already equals its word
                    count is not searched, since no packing can beat it;
     goto-fold      absorb an op-free control word into the L_next word
                    before it (the collapse Pipeline.thread_jumps must
                    refuse when control falls in);
     branch-invert  complementary branch over a bare goto, deleting the
                    goto word.

   Nothing here is trusted: every candidate must be proved equivalent by
   Tv.validate_rewrite (Unknown and Refuted are rejections — the pass
   can only fail to improve, never miscompile) and must not add
   Microlint race or encoding findings.  Windows touching an Int_ack
   word, a call, a dispatch or an interrupt-pending test are skipped.
   Accepted rewrites strictly shrink their window, so -O2 never emits
   more words than -O1. *)

open Msl_machine
module Trace = Msl_util.Trace

type words = (Inst.op list * Select.lnext) list

type kind = K_repack | K_fold | K_invert

let kind_name = function
  | K_repack -> "repack"
  | K_fold -> "goto-fold"
  | K_invert -> "branch-invert"

type rewrite = {
  rw_label : string;
  rw_kind : kind;
  rw_ref : words;
  rw_cand : words;
  rw_fall_ref : string option;
  rw_fall_cand : string option;
  rw_saved : int;
}

type stats = {
  mutable s_windows : int;
  mutable s_bounded : int;
  mutable s_accepted : int;
  mutable s_words_saved : int;
  mutable s_merges : int;
  mutable s_rejected : int;
  mutable s_skipped_ack : int;
  mutable s_search_nodes : int;
  mutable s_memo_hits : int;
  mutable s_memo_misses : int;
}

let empty_stats () =
  {
    s_windows = 0;
    s_bounded = 0;
    s_accepted = 0;
    s_words_saved = 0;
    s_merges = 0;
    s_rejected = 0;
    s_skipped_ack = 0;
    s_search_nodes = 0;
    s_memo_hits = 0;
    s_memo_misses = 0;
  }

type memo = {
  memo_find : string -> string option;
  memo_add : string -> string -> unit;
}

(* Windows ending mid-block continue into the same following words on
   both sides; a reserved label no frontend can produce pairs those
   fall-off outcomes. *)
let continue_label = "*superopt-continue*"

let min_window = 2
let max_window = 8
let max_rounds = 4

(* -- predicates -------------------------------------------------------------- *)

let op_acks (op : Inst.op) = List.mem Rtl.Int_ack op.Inst.op_t.Desc.t_actions
let words_ack ws = List.exists (fun (ops, _) -> List.exists op_acks ops) ws

let targets_of_next = function
  | Select.L_goto l | Select.L_branch (_, l) | Select.L_call l -> [ l ]
  | Select.L_dispatch { table; _ } -> table
  | Select.L_next | Select.L_return | Select.L_halt -> []

(* How many ways control can enter a label: the entry block and
   procedure entries (extra_refs) count as unknowable (2, never
   absorbable), every branch / goto / dispatch / call target as one
   each.  Only sufficiently-unreferenced blocks may be absorbed into a
   predecessor — an op executed on the jump path of a referenced label
   would be a miscompile no window proof could see.  Counting (rather
   than a set) is what lets a goto thread into its layout successor:
   the goto itself is the successor's sole reference (count = 1), and
   the merge deletes it. *)
let ref_counts ~extra_refs (blocks : (string * words) list) =
  let tbl = Hashtbl.create 64 in
  let bump ?(by = 1) l =
    Hashtbl.replace tbl l
      ((try Hashtbl.find tbl l with Not_found -> 0) + by)
  in
  (match blocks with (l, _) :: _ -> bump ~by:2 l | [] -> ());
  List.iter (fun l -> bump ~by:2 l) extra_refs;
  List.iter
    (fun (_, ws) ->
      List.iter (fun (_, n) -> List.iter bump (targets_of_next n)) ws)
    blocks;
  tbl

let ref_count tbl l = try Hashtbl.find tbl l with Not_found -> 0

let split_last ws =
  match List.rev ws with
  | last :: rinit -> (List.rev rinit, last)
  | [] -> invalid_arg "Superopt: empty block"

(* -- the gates ---------------------------------------------------------------- *)

(* Microlint's race and encoding re-checks on the rewritten window.
   Both analyses are per-word, so unresolved labels are stood in by
   placeholder addresses.  The bar is "no new findings": a window the
   original code already flagged cannot get worse, and a clean window
   must stay clean. *)
let lint_insts (ws : words) =
  List.map
    (fun (ops, n) ->
      let next =
        match n with
        | Select.L_next -> Inst.Next
        | Select.L_goto _ -> Inst.Jump 0
        | Select.L_branch (c, _) -> Inst.Branch (c, 0)
        | Select.L_call _ -> Inst.Call 0
        | Select.L_dispatch { dreg; hi; lo; _ } ->
            Inst.Dispatch { dreg; hi; lo; base = 0 }
        | Select.L_return -> Inst.Return
        | Select.L_halt -> Inst.Halt
      in
      { Inst.ops; next })
    ws

let lint_ok d ~reference ~candidate =
  let races ws = List.length (Lint.check_races d (lint_insts ws)) in
  let enc ws = List.length (Lint.check_encoding d (lint_insts ws)) in
  races candidate <= races reference && enc candidate <= enc reference

let proved d ~fall_ref ~fall_cand ~reference ~candidate =
  Tv.validate_rewrite d ~fall_ref ~fall_cand ~reference ~candidate
  = Tv.Validated

(* Replay an accepted rewrite's proof obligation — what the validate
   gates and the tests call on everything [observe] reported. *)
let replay d (rw : rewrite) =
  Tv.validate_rewrite d ~fall_ref:rw.rw_fall_ref ~fall_cand:rw.rw_fall_cand
    ~reference:rw.rw_ref ~candidate:rw.rw_cand

(* Gate one candidate: proof first, then lint.  On acceptance the
   rewrite record goes to the observer (the batch validate gate and the
   tests replay the proof from it). *)
let attempt stats observe d ~label ~kind ~fall_ref ~fall_cand ~reference
    ~candidate =
  let saved = List.length reference - List.length candidate in
  if saved <= 0 then false
  else if
    proved d ~fall_ref ~fall_cand ~reference ~candidate
    && lint_ok d ~reference ~candidate
  then begin
    stats.s_accepted <- stats.s_accepted + 1;
    stats.s_words_saved <- stats.s_words_saved + saved;
    (match observe with
    | Some f ->
        f
          {
            rw_label = label;
            rw_kind = kind;
            rw_ref = reference;
            rw_cand = candidate;
            rw_fall_ref = fall_ref;
            rw_fall_cand = fall_cand;
            rw_saved = saved;
          }
    | None -> ());
    if Trace.enabled () then
      Trace.instant ~cat:"superopt" "rewrite"
        ~args:
          [
            ("block", Trace.A_string label);
            ("kind", Trace.A_string (kind_name kind));
            ("saved", Trace.A_int saved);
          ];
    true
  end
  else begin
    stats.s_rejected <- stats.s_rejected + 1;
    false
  end

(* -- fallthrough merging ------------------------------------------------------ *)

(* A block ending in [L_next] — or a goto to the very next label —
   absorbs an unreferenced successor.  Word-count neutral (the linker
   emits the same fall-through either way), but it is what puts both
   sides of a block boundary inside one window. *)
let merge_pass stats refs (blocks : (string * words) list) =
  let changed = ref false in
  let rec go = function
    | ((la, wa) as a) :: ((lb, wb) :: rest as tl) -> (
        match split_last wa with
        (* the terminal goto is itself one reference to [lb]; when it is
           the only one, threading it away leaves none *)
        | init, (ops, Select.L_goto l) when l = lb && ref_count refs lb = 1
          ->
            changed := true;
            stats.s_merges <- stats.s_merges + 1;
            go ((la, init @ ((ops, Select.L_next) :: wb)) :: rest)
        | _, (_, Select.L_next) when ref_count refs lb = 0 ->
            changed := true;
            stats.s_merges <- stats.s_merges + 1;
            go ((la, wa @ wb) :: rest)
        | _ -> a :: go tl)
    | bl -> bl
  in
  (go blocks, !changed)

(* -- branch inversion --------------------------------------------------------- *)

(* [...; (ops, branch c lt); ([], goto le)] at the end of a block whose
   layout successor is [lt] becomes [...; (ops, branch c' le)] with [c']
   the complementary test: the old taken path becomes the fall-through
   and the goto word disappears.  The bare goto may also sit in its own
   unreferenced successor block (a fall-through arm split by layout); it
   is absorbed as part of the same rewrite. *)
let invert_pass stats observe d refs (blocks : (string * words) list) =
  let changed = ref false in
  let try_invert la wa_eff succ =
    match List.rev wa_eff with
    | ([], Select.L_goto le) :: (ops, Select.L_branch (c, lt)) :: rprefix
      when lt = succ -> (
        match Desc.negate_cond c with
        | None -> None
        | Some c' ->
            let reference =
              [ (ops, Select.L_branch (c, lt)); ([], Select.L_goto le) ]
            in
            let candidate = [ (ops, Select.L_branch (c', le)) ] in
            if words_ack reference then begin
              stats.s_skipped_ack <- stats.s_skipped_ack + 1;
              None
            end
            else begin
              stats.s_windows <- stats.s_windows + 1;
              if
                attempt stats observe d ~label:la ~kind:K_invert
                  ~fall_ref:(Some lt) ~fall_cand:(Some lt) ~reference
                  ~candidate
              then Some (List.rev_append rprefix candidate)
              else None
            end)
    | _ -> None
  in
  let rec go = function
    | ((la, wa) as a) :: ((lb, wb) :: rest2 as tl) -> (
        match try_invert la wa lb with
        | Some wa' ->
            changed := true;
            go ((la, wa') :: tl)
        | None -> (
            (* the goto in its own unreferenced single-word block *)
            match (wb, rest2) with
            | [ ([], Select.L_goto _) ], (lc, _) :: _
              when ref_count refs lb = 0 -> (
                match try_invert la (wa @ wb) lc with
                | Some wa' ->
                    changed := true;
                    go ((la, wa') :: rest2)
                | None -> a :: go tl)
            | _ -> a :: go tl))
    | bl -> bl
  in
  (go blocks, !changed)

(* -- goto folding ------------------------------------------------------------- *)

(* [(ops, L_next); ([], ctrl)] becomes [(ops, ctrl)]: the op-free control
   word rides along on its predecessor.  Calls and dispatches are left
   alone (the guard model cannot express them, and a dispatch word's
   table rows must stay put). *)
let foldable = function
  | Select.L_next | Select.L_goto _ | Select.L_branch _ | Select.L_halt
  | Select.L_return ->
      true
  | Select.L_call _ | Select.L_dispatch _ -> false

let fold_block stats observe d ~succ ((label, ws) : string * words) =
  let changed = ref false in
  let rec scan = function
    | ((ops1, Select.L_next) as w1) :: ([], n2) :: rest when foldable n2 ->
        if List.exists op_acks ops1 then begin
          stats.s_skipped_ack <- stats.s_skipped_ack + 1;
          w1 :: scan (([], n2) :: rest)
        end
        else begin
          stats.s_windows <- stats.s_windows + 1;
          let fall = if rest = [] then succ else Some continue_label in
          let reference = [ w1; ([], n2) ] in
          let candidate = [ (ops1, n2) ] in
          if
            attempt stats observe d ~label ~kind:K_fold ~fall_ref:fall
              ~fall_cand:fall ~reference ~candidate
          then begin
            changed := true;
            scan ((ops1, n2) :: rest)
          end
          else w1 :: scan (([], n2) :: rest)
        end
    | w :: rest -> w :: scan rest
    | [] -> []
  in
  let ws' = scan ws in
  ((label, ws'), !changed)

(* -- window repacking --------------------------------------------------------- *)

(* The memo key is content-addressed: the machine's digest, each window
   op as its template's position and its arguments, and the search
   options.  The packing is stored as flat-op index groups — never the
   ops themselves — and is re-checked against the dependence/conflict
   model and the full proof gate on every use, so corrupt or colliding
   entries cost a re-search, never a wrong answer. *)
let window_key d ~chain ~node_budget (ops : Inst.op list) =
  let op (o : Inst.op) = (Desc.template_index d o.Inst.op_t, o.Inst.op_args) in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (d.Desc.d_digest, chain, node_budget, List.map op ops)
          []))

let indices_of_groups (flat : Inst.op array) groups =
  let n = Array.length flat in
  let used = Array.make n false in
  let locate op =
    let rec find pred i =
      if i >= n then None
      else if (not used.(i)) && pred flat.(i) op then Some i
      else find pred (i + 1)
    in
    match find ( == ) 0 with Some i -> Some i | None -> find ( = ) 0
  in
  try
    Some
      (List.map
         (List.map (fun op ->
              match locate op with
              | Some i ->
                  used.(i) <- true;
                  i
              | None -> raise Exit))
         groups)
  with Exit -> None

let groups_of_indices (flat : Inst.op array) idxs =
  let n = Array.length flat in
  let used = Array.make n false in
  try
    Some
      (List.map
         (List.map (fun i ->
              if i < 0 || i >= n || used.(i) then raise Exit
              else begin
                used.(i) <- true;
                flat.(i)
              end))
         idxs)
  with Exit -> None

let optimal_groups stats d ~chain ~node_budget ops =
  let r =
    Compaction.compact ~chain ~node_budget ~algo:Compaction.Optimal d ops
  in
  stats.s_search_nodes <- stats.s_search_nodes + r.Compaction.nodes;
  r.Compaction.groups

(* The minimal packing of [flat], through the memo when one is wired. *)
let search_packing stats memo d ~chain ~node_budget (flat : Inst.op array) =
  let ops = Array.to_list flat in
  let fresh () =
    let groups = optimal_groups stats d ~chain ~node_budget ops in
    (match memo with
    | Some m -> (
        match indices_of_groups flat groups with
        | Some idxs ->
            m.memo_add
              (window_key d ~chain ~node_budget ops)
              (Marshal.to_string (idxs : int list list) [])
        | None -> ())
    | None -> ());
    groups
  in
  match memo with
  | None -> fresh ()
  | Some m -> (
      let miss () =
        stats.s_memo_misses <- stats.s_memo_misses + 1;
        fresh ()
      in
      match m.memo_find (window_key d ~chain ~node_budget ops) with
      | None -> miss ()
      | Some s -> (
          match
            try Some (Marshal.from_string s 0 : int list list) with _ -> None
          with
          | None -> miss ()
          | Some idxs -> (
              match groups_of_indices flat idxs with
              | Some groups when Compaction.check ~chain d ops groups ->
                  stats.s_memo_hits <- stats.s_memo_hits + 1;
                  groups
              | _ -> miss ())))

let repack_block stats observe memo d ~chain ~node_budget ~succ
    ((label, ws) : string * words) =
  let changed = ref false in
  let current = ref (Array.of_list ws) in
  let improved = ref true in
  while !improved do
    improved := false;
    let a = !current in
    let n = Array.length a in
    let i = ref 0 in
    while (not !improved) && !i < n do
      (* the farthest index a window starting at [i] may close on: the
         first controlled word, the window cap, or the block end *)
      let limit = ref !i in
      while !limit < n - 1 && snd a.(!limit) = Select.L_next do incr limit done;
      let jmax = min !limit (min (n - 1) (!i + max_window - 1)) in
      let j = ref jmax in
      while (not !improved) && !j >= !i + min_window - 1 do
        let window = Array.to_list (Array.sub a !i (!j - !i + 1)) in
        let last_ctrl = snd a.(!j) in
        if not (foldable last_ctrl) then ()
        else if words_ack window then
          stats.s_skipped_ack <- stats.s_skipped_ack + 1
        else begin
          let flat =
            Array.of_list (List.concat_map (fun (ops, _) -> ops) window)
          in
          if Array.length flat >= 2 then begin
            stats.s_windows <- stats.s_windows + 1;
            (* every packing, the search's included, has at least
               [lower_bound] words, so a window already that short can
               yield no candidate *)
            if
              Compaction.lower_bound ~chain d (Array.to_list flat)
              >= List.length window
            then stats.s_bounded <- stats.s_bounded + 1
            else
              Trace.with_span ~cat:"superopt" "window"
                ~args:
                  [
                    ("block", Trace.A_string label);
                    ("start", Trace.A_int !i);
                    ("words", Trace.A_int (List.length window));
                    ("ops", Trace.A_int (Array.length flat));
                  ]
                (fun () ->
                  let groups =
                    search_packing stats memo d ~chain ~node_budget flat
                  in
                  if List.length groups < List.length window then begin
                    let candidate =
                      match split_last groups with
                      | init, last ->
                          List.map (fun g -> (g, Select.L_next)) init
                          @ [ (last, last_ctrl) ]
                    in
                    let fall =
                      if !j = n - 1 then succ else Some continue_label
                    in
                    if
                      attempt stats observe d ~label ~kind:K_repack
                        ~fall_ref:fall ~fall_cand:fall ~reference:window
                        ~candidate
                    then begin
                      changed := true;
                      improved := true;
                      let prefix = Array.to_list (Array.sub a 0 !i) in
                      let suffix =
                        Array.to_list (Array.sub a (!j + 1) (n - !j - 1))
                      in
                      current := Array.of_list (prefix @ candidate @ suffix)
                    end
                  end)
          end
        end;
        decr j
      done;
      incr i
    done
  done;
  ((label, Array.to_list !current), !changed)

(* -- driver ------------------------------------------------------------------- *)

let run ?memo ?observe ~chain ~node_budget ~extra_refs (d : Desc.t)
    (blocks : (string * words) list) =
  let stats = empty_stats () in
  match blocks with
  | [] -> ([], stats)
  | _ ->
      let bl = ref blocks in
      let progress = ref true in
      let rounds = ref 0 in
      while !progress && !rounds < max_rounds do
        incr rounds;
        progress := false;
        let refs = ref_counts ~extra_refs !bl in
        let bl1, ch1 = invert_pass stats observe d refs !bl in
        let refs = ref_counts ~extra_refs bl1 in
        let bl2, ch2 = merge_pass stats refs bl1 in
        let rec with_succ = function
          | [] -> []
          | [ b ] -> [ (b, None) ]
          | b :: ((l2, _) :: _ as rest) -> (b, Some l2) :: with_succ rest
        in
        let ch3 = ref false in
        let bl3 =
          List.map
            (fun (b, succ) ->
              let b, c1 = fold_block stats observe d ~succ b in
              let b, c2 =
                repack_block stats observe memo d ~chain ~node_budget ~succ b
              in
              if c1 || c2 then ch3 := true;
              b)
            (with_succ bl2)
        in
        bl := bl3;
        if ch1 || ch2 || !ch3 then progress := true
      done;
      if Trace.enabled () then begin
        Trace.counter ~cat:"superopt" "windows" stats.s_windows;
        Trace.counter ~cat:"superopt" "rewrites" stats.s_accepted;
        Trace.counter ~cat:"superopt" "words_saved" stats.s_words_saved
      end;
      (!bl, stats)
