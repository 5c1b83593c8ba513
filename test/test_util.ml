(* Unit tests for the utility layer: locations, diagnostics, the scanner
   and the table renderer. *)

module Loc = Msl_util.Loc
module Diag = Msl_util.Diag
module Scanner = Msl_util.Scanner
module Tbl = Msl_util.Tbl
module Safe_queue = Msl_util.Safe_queue
module Clock = Msl_util.Clock

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- locations ------------------------------------------------------------ *)

let test_loc () =
  let p1 = { Loc.line = 2; col = 3; offset = 10 } in
  let p2 = { Loc.line = 2; col = 9; offset = 16 } in
  let l = Loc.make ~file:"f.mc" ~start_pos:p1 ~end_pos:p2 in
  check_str "same-line span" "f.mc:2.3-9" (Loc.to_string l);
  let p3 = { Loc.line = 4; col = 1; offset = 30 } in
  let l2 = Loc.make ~file:"f.mc" ~start_pos:p2 ~end_pos:p3 in
  check_str "multi-line span" "f.mc:2.9-4.1" (Loc.to_string l2);
  check_bool "dummy" true (Loc.is_dummy Loc.dummy);
  let m = Loc.merge l l2 in
  check_str "merge covers both" "f.mc:2.3-4.1" (Loc.to_string m);
  check_str "merge with dummy" (Loc.to_string l)
    (Loc.to_string (Loc.merge Loc.dummy l))

(* -- diagnostics ----------------------------------------------------------- *)

let test_diag () =
  (match Diag.error Diag.Parsing "bad %s at %d" "token" 7 with
  | exception Diag.Error d ->
      check_str "message formatted" "bad token at 7" d.Diag.message;
      check_bool "phase" true (d.Diag.phase = Diag.Parsing);
      check_str "rendering" "parse error: bad token at 7" (Diag.to_string d)
  | _ -> Alcotest.fail "expected a diagnostic");
  match Diag.protect (fun () -> Diag.error Diag.Codegen "nope") with
  | Error d -> check_bool "protect captures" true (d.Diag.phase = Diag.Codegen)
  | Ok _ -> Alcotest.fail "expected Error"

(* -- scanner ---------------------------------------------------------------- *)

let test_scanner () =
  let sc = Scanner.make ~file:"t" "ab cd\nef" in
  check_str "ident" "ab" (Scanner.ident sc);
  Scanner.skip_spaces sc;
  check_str "second ident" "cd" (Scanner.ident sc);
  Scanner.skip_spaces sc;
  let pos = Scanner.pos sc in
  check_int "line tracked" 2 pos.Loc.line;
  check_int "col tracked" 1 pos.Loc.col;
  check_bool "eat" true (Scanner.eat sc 'e');
  check_bool "eat wrong" false (Scanner.eat sc 'x');
  check_bool "peek" true (Scanner.peek sc = 'f');
  Scanner.advance sc;
  check_bool "eof" true (Scanner.eof sc);
  (* at end of input, advance is a no-op and peek reads NUL *)
  Scanner.advance sc;
  let pos = Scanner.pos sc in
  check_int "offset stays" 8 pos.Loc.offset;
  check_int "col stays" 3 pos.Loc.col;
  check_bool "peek at eof" true (Scanner.peek sc = '\000');
  check_bool "eat at eof" false (Scanner.eat sc '\000');
  (* a NUL byte in the source is a character, not the end *)
  let sc = Scanner.make ~file:"t" "\000" in
  check_bool "NUL is not eof" false (Scanner.eof sc);
  check_bool "eat NUL" true (Scanner.eat sc '\000');
  (* take_while returns exactly the text it consumed; skip_while stops at
     the same place without copying it *)
  let src = "  x1 y\n\n  z" in
  let a = Scanner.make ~file:"t" src and b = Scanner.make ~file:"t" src in
  let pred c = c <> 'z' in
  let text = Scanner.take_while a pred in
  Scanner.skip_while b pred;
  check_str "taken text" "  x1 y\n\n  " text;
  check_bool "same position" true (Scanner.pos a = Scanner.pos b);
  let pos = Scanner.pos b in
  check_int "line after skipped newlines" 3 pos.Loc.line;
  check_int "col after skipped newlines" 3 pos.Loc.col;
  check_int "offset after skip" (String.length text) pos.Loc.offset;
  (* one number reader; its diagnostic carries the caller's phase *)
  let sc = Scanner.make ~file:"t" "0x1F;12ab" in
  check_bool "number" true (Scanner.number sc Diag.Lexing Int64.of_string = 31L);
  check_bool "eat ;" true (Scanner.eat sc ';');
  (match Scanner.number sc Diag.Assembly int_of_string with
  | exception Diag.Error d ->
      check_bool "phase" true (d.Diag.phase = Diag.Assembly);
      check_str "message" "malformed number \"12ab\"" d.Diag.message;
      check_str "at the end of the text" "t:1.10-10" (Loc.to_string d.Diag.loc)
  | _ -> Alcotest.fail "12ab read as a number");
  check_str "keyword spelling folds case" "begin"
    (Scanner.keyword_spelling "BeGIN");
  List.iter
    (fun w ->
      check_bool ("no copy of " ^ w) true (Scanner.keyword_spelling w == w))
    [ "begin"; "V0"; "Begin_"; "x1" ]

let test_scanner_hspaces () =
  let sc = Scanner.make ~file:"t" "  \t x\ny" in
  Scanner.skip_hspaces sc;
  check_bool "stops at x" true (Scanner.peek sc = 'x');
  Scanner.advance sc;
  Scanner.skip_hspaces sc;
  check_bool "does not cross newline" true (Scanner.peek sc = '\n')

(* -- tables ------------------------------------------------------------------ *)

let test_tbl () =
  let t = Tbl.make ~title:"demo" ~aligns:[ Tbl.Left; Tbl.Right ] [ "name"; "n" ] in
  Tbl.add_row t [ "alpha"; "1" ];
  Tbl.add_row t [ "b"; "22" ];
  let r = Tbl.render t in
  check_bool "title present" true
    (String.length r > 0 && String.sub r 0 7 = "== demo");
  (* right-aligned numeric column *)
  check_bool "alignment" true
    (let lines = String.split_on_char '\n' r in
     List.exists (fun l -> l = "b      22") lines);
  check_int "rows" 2 (List.length (Tbl.rows t));
  (match Tbl.add_row t [ "only-one" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected arity failure");
  check_str "pct" "+50.0%" (Tbl.cell_pct 9 6);
  check_str "pct n/a" "n/a" (Tbl.cell_pct 9 0)

(* -- the work queue -------------------------------------------------------- *)

let test_queue_fifo () =
  let q = Safe_queue.create () in
  check_bool "push 1" true (Safe_queue.push q 1);
  check_bool "push 2" true (Safe_queue.push q 2);
  check_int "length" 2 (Safe_queue.length q);
  Safe_queue.close q;
  let p1 = Safe_queue.pop q in
  let p2 = Safe_queue.pop q in
  let p3 = Safe_queue.pop q in
  Alcotest.(check (list (option int)))
    "drained in order"
    [ Some 1; Some 2; None ]
    [ p1; p2; p3 ]

(* The push-after-close race: a producer racing close must see a
   rejected push, not an exception that would kill its domain. *)
let test_queue_push_after_close () =
  let q = Safe_queue.create () in
  check_bool "open push accepted" true (Safe_queue.push q 1);
  Safe_queue.close q;
  check_bool "closed push rejected" false (Safe_queue.push q 2);
  check_int "rejected push dropped" 1 (Safe_queue.length q);
  (* the already-enqueued job still drains; the dropped one never shows *)
  let p1 = Safe_queue.pop q in
  let p2 = Safe_queue.pop q in
  Alcotest.(check (list (option int))) "drain after close" [ Some 1; None ]
    [ p1; p2 ];
  (* close is idempotent and pushes stay rejected *)
  Safe_queue.close q;
  check_bool "still rejected" false (Safe_queue.push q 3)

(* -- the bounded queue (pushback-style negotiated flow) -------------------- *)

(* A bounded push beyond capacity must block until a consumer pops; the
   blocked pusher runs in its own domain so the test can observe the
   block from outside. *)
let test_queue_bounded_blocks () =
  let q = Safe_queue.create ~capacity:2 () in
  check_bool "push 1" true (Safe_queue.push q 1);
  check_bool "push 2" true (Safe_queue.push q 2);
  let entered = Atomic.make false in
  let pushed = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Atomic.set entered true;
        let r = Safe_queue.push q 3 in
        Atomic.set pushed true;
        r)
  in
  (* give the pusher ample time to block on the full queue *)
  while not (Atomic.get entered) do Domain.cpu_relax () done;
  Unix.sleepf 0.05;
  check_bool "push at capacity is blocked" false (Atomic.get pushed);
  check_int "queue holds exactly capacity" 2 (Safe_queue.length q);
  (* one pop frees one slot and unblocks the pusher *)
  Alcotest.(check (option int)) "pop head" (Some 1) (Safe_queue.pop q);
  check_bool "blocked push completed after pop" true (Domain.join d);
  check_int "bound still holds" 2 (Safe_queue.length q);
  Safe_queue.close q;
  (* bind each pop: list elements evaluate right-to-left *)
  let p1 = Safe_queue.pop q in
  let p2 = Safe_queue.pop q in
  let p3 = Safe_queue.pop q in
  Alcotest.(check (list (option int)))
    "drains in order" [ Some 2; Some 3; None ] [ p1; p2; p3 ]

(* close must wake a pusher blocked on a full queue, which then reports
   the rejected push instead of sleeping forever. *)
let test_queue_bounded_close_wakes_pusher () =
  let q = Safe_queue.create ~capacity:1 () in
  check_bool "push 1" true (Safe_queue.push q 1);
  let d = Domain.spawn (fun () -> Safe_queue.push q 2) in
  Unix.sleepf 0.05;
  Safe_queue.close q;
  check_bool "woken pusher sees the close" false (Domain.join d);
  let p1 = Safe_queue.pop q in
  let p2 = Safe_queue.pop q in
  Alcotest.(check (list (option int)))
    "only the accepted item drains" [ Some 1; None ] [ p1; p2 ]

let test_queue_bad_capacity () =
  match Safe_queue.create ~capacity:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for capacity 0"

(* -- the monotonic clock --------------------------------------------------- *)

(* The regression half of the Service clock switch: the source used for
   deadlines/backoff/queue-wait must never go backwards (gettimeofday
   can, under an NTP step) and must track real elapsed time. *)
let test_clock_monotone () =
  let prev = ref (Clock.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Clock.now_ns () in
    if Int64.compare t !prev < 0 then
      Alcotest.failf "clock went backwards: %Ld after %Ld" t !prev;
    prev := t
  done;
  let t0 = Clock.now_s () in
  Unix.sleepf 0.05;
  let dt = Clock.elapsed_s t0 in
  if dt < 0.04 || dt > 5.0 then
    Alcotest.failf "elapsed_s across a 50 ms sleep: %.4f s" dt

let () =
  Alcotest.run "util"
    [
      ( "util",
        [
          Alcotest.test_case "locations" `Quick test_loc;
          Alcotest.test_case "diagnostics" `Quick test_diag;
          Alcotest.test_case "scanner" `Quick test_scanner;
          Alcotest.test_case "scanner hspaces" `Quick test_scanner_hspaces;
          Alcotest.test_case "tables" `Quick test_tbl;
          Alcotest.test_case "queue fifo" `Quick test_queue_fifo;
          Alcotest.test_case "queue push after close" `Quick
            test_queue_push_after_close;
          Alcotest.test_case "bounded queue blocks at capacity" `Quick
            test_queue_bounded_blocks;
          Alcotest.test_case "bounded queue close wakes pushers" `Quick
            test_queue_bounded_close_wakes_pusher;
          Alcotest.test_case "bounded queue rejects capacity 0" `Quick
            test_queue_bad_capacity;
          Alcotest.test_case "monotonic clock" `Quick test_clock_monotone;
        ] );
    ]
