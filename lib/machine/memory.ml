(* Word-addressed, paged main memory.

   Pages can be marked absent so that accesses raise [Page_fault] — the
   microtrap of survey §2.1.5.  The simulator decides how a fault is
   serviced; this module only detects it. *)

open Msl_bitvec

exception Page_fault of int  (* faulting word address *)

type t = {
  word_width : int;
  words : Bitvec.t array;
  present : bool array;
  mutable reads : int;
  mutable writes : int;
  mutable faults : int;
}

let page_size = 256 (* words per page *)

let create ~word_width ~words =
  if words <= 0 then invalid_arg "Memory.create: size must be positive";
  let npages = (words + page_size - 1) / page_size in
  {
    word_width;
    words = Array.make words (Bitvec.zero word_width);
    present = Array.make npages true;
    reads = 0;
    writes = 0;
    faults = 0;
  }

let size t = Array.length t.words
let word_width t = t.word_width

let page_of _ addr = addr / page_size

(* The raising paths are outlined so [check] stays small enough for the
   compiler to inline into the simulators' per-word memory accesses. *)
let[@inline never] out_of_range addr =
  raise
    (Msl_util.Diag.Error
       {
         phase = Msl_util.Diag.Execution;
         loc = Msl_util.Loc.dummy;
         message = Printf.sprintf "memory address %d out of range" addr;
       })

let[@inline never] fault t addr =
  t.faults <- t.faults + 1;
  raise (Page_fault addr)

let[@inline] check t addr =
  if addr < 0 || addr >= Array.length t.words then out_of_range addr;
  if not t.present.(addr / page_size) then fault t addr

let read t addr =
  check t addr;
  t.reads <- t.reads + 1;
  t.words.(addr)

(* Unboxed fast path for the compiled engine: the stored word's bits,
   with the same bounds/fault discipline and read accounting. *)
let[@inline] read_int64 t addr =
  check t addr;
  t.reads <- t.reads + 1;
  Bitvec.to_int64 t.words.(addr)

let write t addr v =
  check t addr;
  t.writes <- t.writes + 1;
  t.words.(addr) <- Bitvec.resize ~width:t.word_width v

(* Non-faulting, non-counted access for test setup and inspection. *)
let peek t addr = t.words.(addr)
let poke t addr v = t.words.(addr) <- Bitvec.resize ~width:t.word_width v

let mark_absent t ~page =
  if page < 0 || page >= Array.length t.present then
    invalid_arg "Memory.mark_absent: no such page";
  t.present.(page) <- false

let mark_present t ~page =
  if page < 0 || page >= Array.length t.present then
    invalid_arg "Memory.mark_present: no such page";
  t.present.(page) <- true

let load t ~base values =
  List.iteri (fun i v -> poke t (base + i) v) values

let load_ints t ~base values =
  List.iteri
    (fun i v -> poke t (base + i) (Bitvec.of_int ~width:t.word_width v))
    values

let reads t = t.reads
let writes t = t.writes
let faults t = t.faults

let reset_counters t =
  t.reads <- 0;
  t.writes <- 0;
  t.faults <- 0

(* In place, because the simulator (and the compiled engine's closures)
   capture the [t] itself: a reset must not swap the arrays out from
   under them. *)
let reset t =
  Array.fill t.words 0 (Array.length t.words) (Bitvec.zero t.word_width);
  Array.fill t.present 0 (Array.length t.present) true;
  reset_counters t
