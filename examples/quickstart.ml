(* Quickstart: compile a YALLL program, inspect the horizontal microcode,
   and run it on the HP3 machine model.

     dune exec examples/quickstart.exe *)

open Msl_machine
module Toolkit = Msl_core.Toolkit

let program =
  "reg total\n\
   reg i\n\
   set total, 0\n\
   set i, 10\n\
   loop:\n\
  \  add total, total, i\n\
  \  dec i, i\n\
  \  jump loop if i <> 0\n\
  \  exit total\n"

let () =
  let d = Machines.hp3 in
  Fmt.pr "Compiling a YALLL program for %s (%d-bit, %d-bit control word)@.@."
    d.Desc.d_name d.Desc.d_word d.Desc.d_word_bits;
  let c = Toolkit.compile Toolkit.Yalll d program in
  Fmt.pr "%s@." (Masm.print d c.Toolkit.c_insts);
  Fmt.pr "%d control-store words, %d microoperations, %d bits@.@."
    c.Toolkit.c_words c.Toolkit.c_ops c.Toolkit.c_bits;
  (* the first word, as the hardware would see it *)
  (match c.Toolkit.c_insts with
  | first :: _ ->
      Fmt.pr "first control word: 0x%s@.@."
        (Encode.word_to_hex (Encode.encode_inst d first))
  | [] -> ());
  let sim = Toolkit.run c in
  Fmt.pr "halted after %d cycles; exit value (R0) = %d@."
    (Sim.cycles sim)
    (Msl_bitvec.Bitvec.to_int (Sim.get_reg sim "R0"))
