(* Retargetability: one program, four microarchitectures.

   Compiles the same SIMPL multiply loop to all four machine models and
   compares the generated microcode — the survey's core question of what
   a machine-independent microprogramming language costs on machines it
   was not designed for.

     dune exec examples/retarget.exe *)

open Msl_bitvec
open Msl_machine
module Toolkit = Msl_core.Toolkit
module Tbl = Msl_util.Tbl

let src = Msl_core.Handcoded.simpl_mpy

let () =
  Fmt.pr "SIMPL source:@.%s@." src;
  let t =
    Tbl.make ~title:"one SIMPL program on four machines"
      ~aligns:[ Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right ]
      [ "machine"; "words"; "microops"; "word bits"; "cycles (11*9)" ]
  in
  List.iter
    (fun d ->
      let c = Toolkit.compile Toolkit.Simpl d src in
      let sim =
        Toolkit.run c ~setup:(fun sim ->
            Sim.set_reg_int sim "R1" 11;
            Sim.set_reg_int sim "R2" 9)
      in
      assert (Bitvec.to_int (Sim.get_reg sim "R3") = 99);
      Tbl.add_row t
        [
          d.Desc.d_name;
          Tbl.cell_int c.Toolkit.c_words;
          Tbl.cell_int c.Toolkit.c_ops;
          Tbl.cell_int d.Desc.d_word_bits;
          Tbl.cell_int (Sim.cycles sim);
        ])
    Machines.all;
  Tbl.print t
