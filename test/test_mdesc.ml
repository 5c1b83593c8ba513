(* The .mdesc machine-description format.

   Three claims are held here.  First, the byte-identity regression: the
   shipped machines/*.mdesc files, elaborated through Mdesc, encode
   every examples/* program at -O0 and -O1 to the exact control-store
   bytes the original hand-written OCaml descriptions produced (the
   golden digests below were generated against those modules before they
   were deleted).  Second, elaboration is a faithful round trip:
   [to_source] then [parse] reproduces a description exactly.  Third,
   malformed input is answered with located diagnostics — the golden
   corpus asserts the phase, line and message of each rejection, and the
   new Desc.validate invariants each have a direct unit test. *)

open Msl_machine
module Core = Msl_core
module Toolkit = Core.Toolkit
module Diag = Msl_util.Diag
module Pipeline = Msl_mir.Pipeline

let examples_dir =
  if Sys.file_exists "../examples" then "../examples" else "examples"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* -- byte-identical encodings over the example corpus -------------------- *)

let lang_of_file f =
  if Filename.check_suffix f ".yll" then Some Toolkit.Yalll
  else if Filename.check_suffix f ".simpl" then Some Toolkit.Simpl
  else if Filename.check_suffix f ".empl" then Some Toolkit.Empl
  else None

let encoding_digest d insts =
  let words = List.map (Encode.encode_inst d) insts in
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map Encode.word_to_hex words)))

(* (example, machine, opt level, MD5 of the hex control words) — captured
   from the hand-written h1.ml/hp3.ml/v11.ml/b17.ml before their
   deletion.  A change here means the .mdesc data no longer encodes what
   the original modules did. *)
let goldens =
  [
    ("cascade.simpl", "HP3", 0, "99fb6b723876058c59dddbd323c5ad55");
    ("cascade.simpl", "HP3", 1, "9ada2746decfae4fe94f0e30c2a2001c");
    ("cascade.simpl", "H1", 0, "eec9d368a0eef5cf4f1f85e0e9a7b429");
    ("cascade.simpl", "H1", 1, "01f26199d0a61efafc3ed2ad3499e4ac");
    ("cascade.simpl", "B17", 0, "80c9b4f53c9cf67d05ee78c1385edf5b");
    ("cascade.simpl", "B17", 1, "e2c6061c46c278345f1c6333d0aa16ef");
    ("fold.empl", "HP3", 0, "8e82970b04ab4882c366746529b29994");
    ("fold.empl", "HP3", 1, "a167f00ff90c127b60273fe035e9a503");
    ("fold.empl", "B17", 0, "afc6ef4506304b6362d114d180511ceb");
    ("fold.empl", "B17", 1, "c64273297afc1ad82ffd83fa2f820c6f");
    ("gcd.yll", "HP3", 0, "cbeec0aa0332acba44e636f79d891a87");
    ("gcd.yll", "HP3", 1, "7cc7ac1efea335b80597664a57fcaafc");
    ("gcd.yll", "V11", 0, "53530a6ca28060d9c7bda67ade49895e");
    ("gcd.yll", "V11", 1, "5f837ca50ea0771005e7c699929a4525");
    ("gcd.yll", "B17", 0, "652f69400245221255ebb6b86240625d");
    ("gcd.yll", "B17", 1, "fd621c1a5725451f05a7acf0370d988f");
    ("mpy.simpl", "HP3", 0, "0b52be29e8b42fa0460e5f23aaec048d");
    ("mpy.simpl", "HP3", 1, "0b52be29e8b42fa0460e5f23aaec048d");
    ("mpy.simpl", "H1", 0, "ddbf15303badb4db20118b9b93b30b2a");
    ("mpy.simpl", "H1", 1, "ddbf15303badb4db20118b9b93b30b2a");
    ("mpy.simpl", "B17", 0, "fbc6025906f46fc1be7da110529efcb0");
    ("mpy.simpl", "B17", 1, "fbc6025906f46fc1be7da110529efcb0");
    ("shifts.yll", "HP3", 0, "5d7a6ef13d1d68c50e9f0c110a3f7a8e");
    ("shifts.yll", "HP3", 1, "d0ebdd614aba630cfef5a61c8e926fd0");
    ("shifts.yll", "V11", 0, "86f3de34aaac4bc3d2f27e6a7c00d153");
    ("shifts.yll", "V11", 1, "b0949ba5e56b4eff3094965f0e015efb");
    ("shifts.yll", "B17", 0, "b8378f01cc62245a7b656ffa8b8ce001");
    ("shifts.yll", "B17", 1, "ff5d064191575acf2dbca3d316f4eade");
    ("sum_loop.yll", "HP3", 0, "4c7a02308bf905fde164f22d5019b92f");
    ("sum_loop.yll", "HP3", 1, "e230026afa1dfbdb22e0ba15c145203f");
    ("sum_loop.yll", "V11", 0, "9949e36e431f8139eeb27e0b17c0b8d3");
    ("sum_loop.yll", "V11", 1, "9ce7f55c5fe29bb99cbc8dca9383909c");
    ("sum_loop.yll", "B17", 0, "a35f698834612540c9bb24840007fdb6");
    ("sum_loop.yll", "B17", 1, "c50575efd3540f98578428d1a84e2011");
    ("sum_while.simpl", "HP3", 0, "527b4dde805e4a8e1303b059aba3edb2");
    ("sum_while.simpl", "HP3", 1, "527b4dde805e4a8e1303b059aba3edb2");
    ("sum_while.simpl", "H1", 0, "fc85886735bbb3debf88ef2a41e1531e");
    ("sum_while.simpl", "H1", 1, "fc85886735bbb3debf88ef2a41e1531e");
    ("sum_while.simpl", "B17", 0, "be4a3e1b2339de9b2fed1b81b77a23c2");
    ("sum_while.simpl", "B17", 1, "be4a3e1b2339de9b2fed1b81b77a23c2");
  ]

let test_byte_identity () =
  List.iter
    (fun (file, mname, opt, expected) ->
      let lang =
        match lang_of_file file with
        | Some l -> l
        | None -> Alcotest.fail ("unknown language for " ^ file)
      in
      let src = read_file (Filename.concat examples_dir file) in
      let options =
        { Pipeline.default_options with Pipeline.opt_level = opt }
      in
      let d = Machines.get mname in
      let c = Toolkit.compile ~options lang d src in
      let got = encoding_digest d c.Toolkit.c_insts in
      Alcotest.(check string)
        (Printf.sprintf "%s on %s -O%d" file mname opt)
        expected got)
    goldens

let test_goldens_cover_corpus () =
  (* every example x target machine x opt level has a golden row, so a
     new example cannot silently skip the regression *)
  let machines_of = function
    | Toolkit.Yalll -> [ "HP3"; "V11"; "B17" ]
    | Toolkit.Simpl -> [ "HP3"; "H1"; "B17" ]
    | Toolkit.Empl -> [ "HP3"; "B17" ]
    | Toolkit.Sstar -> []
  in
  Sys.readdir examples_dir |> Array.to_list |> List.sort compare
  |> List.iter (fun file ->
         match lang_of_file file with
         | None -> ()
         | Some lang ->
             List.iter
               (fun m ->
                 List.iter
                   (fun opt ->
                     if
                       not
                         (List.exists
                            (fun (f, m', o, _) -> f = file && m' = m && o = opt)
                            goldens)
                     then
                       Alcotest.fail
                         (Printf.sprintf "no golden for %s on %s -O%d" file m
                            opt))
                   [ 0; 1 ])
               (machines_of lang))

(* -- round trip ---------------------------------------------------------- *)

let test_round_trip () =
  List.iter
    (fun d ->
      let src = Mdesc.to_source d in
      let d' = Mdesc.parse ~file:(d.Desc.d_name ^ ".mdesc") src in
      Alcotest.(check string)
        (d.Desc.d_name ^ " round trip")
        src (Mdesc.to_source d'))
    Machines.all

let test_inventory () =
  let pin name words regs phases =
    let d = Machines.get name in
    Alcotest.(check int) (name ^ " word bits") words d.Desc.d_word_bits;
    Alcotest.(check int) (name ^ " registers") regs (Array.length d.Desc.d_regs);
    Alcotest.(check int) (name ^ " phases") phases d.Desc.d_phases
  in
  pin "H1" 167 19 3;
  pin "HP3" 170 32 2;
  pin "V11" 61 16 1;
  pin "B17" 59 32 1

(* -- the malformed-input golden corpus ----------------------------------- *)

(* A minimal valid machine the malformed cases are variations of. *)
let base_src =
  "machine T {\n\
  \  word 16\n\
  \  addr 8\n\
  \  phases 2\n\
  \  store 256\n\
  \  caps [flag]\n\
  \  units [alu]\n\
  \  field seq 3 0\n\
  \  field cond 4 3\n\
  \  field addr 8 7\n\
  \  field breg 4 15\n\
  \  field op 4 19\n\
  \  field a 4 23\n\
  \  field b 4 27\n\
  \  field d 4 31\n\
  \  field imm 16 35\n\
  \  reg R0 16 [gpr alloc]\n\
  \  reg R1 16 [gpr alloc]\n\
  \  reg AT 16 [gpr at]\n\
  \  tmpl add {\n\
  \    sem binop add\n\
  \    phase 0\n\
  \    units [alu]\n\
  \    op dst reg gpr write\n\
  \    op a reg gpr read\n\
  \    op b reg gpr read\n\
  \    result operands\n\
  \    enc op 1\n\
  \    enc d @dst\n\
  \    enc a @a\n\
  \    enc b @b\n\
  \    act arithq add @dst, @a, @b\n\
  \  }\n\
  \  tmpl nop { sem nop phase 0 units [] result none }\n\
  }\n"

let test_base_is_valid () =
  let d = Mdesc.parse ~file:"base.mdesc" base_src in
  Alcotest.(check string) "name" "T" d.Desc.d_name;
  Alcotest.(check int) "templates" 2 (Array.length d.Desc.d_templates)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* [with_line n s] is [base_src] with 1-based line [n] replaced by [s];
   every malformed case below is one such single-line variation, so the
   expected diagnostic line is the edited line itself. *)
let with_line n s =
  base_src |> String.split_on_char '\n'
  |> List.mapi (fun i line -> if i + 1 = n then s else line)
  |> String.concat "\n"

(* (name, source, phase, 1-based line, message fragment) *)
let malformed =
  [
    ("stray-character", with_line 2 "  word 16 %", Diag.Lexing, 2,
     "stray character");
    ("unterminated-string", with_line 5 "  note \"oops", Diag.Lexing, 5,
     "string literal");
    ("bad-escape", with_line 5 "  note \"a\\q\"", Diag.Lexing, 5,
     "unknown escape");
    ("missing-brace", with_line 35 "", Diag.Parsing, 36, "expected");
    ("not-a-machine", "widget T { }", Diag.Parsing, 1, "expected 'machine'");
    ("trailing-tokens", base_src ^ "machine U { }", Diag.Parsing, 36,
     "expected end of input");
    ("word-out-of-range", with_line 2 "  word 96", Diag.Semantic, 2,
     "outside 1..64");
    ("phases-out-of-range", with_line 4 "  phases 0", Diag.Semantic, 4,
     "outside 1..16");
    ("duplicate-scalar", with_line 3 "  word 16", Diag.Semantic, 3,
     "duplicate 'word' declaration");
    ("unknown-cap", with_line 6 "  caps [banana]", Diag.Semantic, 6,
     "unknown condition capability");
    ("duplicate-field-ci", with_line 12 "  field SEQ 4 19", Diag.Semantic, 12,
     "duplicate field name");
    ("field-overlap", with_line 12 "  field op 4 2", Diag.Semantic, 12,
     "overlaps field");
    ("field-width-zero", with_line 12 "  field op 0 19", Diag.Semantic, 12,
     "outside 1..62");
    ("duplicate-reg-ci", with_line 18 "  reg r0 16 [gpr]", Diag.Semantic, 18,
     "duplicate register name");
    ("empty-class-list", with_line 18 "  reg R1 16 []", Diag.Semantic, 18,
     "empty class list");
    ("macro-as-class", with_line 18 "  reg R1 16 [macro]", Diag.Semantic, 18,
     "'macro' is not a register class");
    ("unknown-sem", with_line 21 "    sem binop frobnicate", Diag.Semantic, 21,
     "unknown ALU operator");
    ("template-phase-range", with_line 22 "    phase 7", Diag.Semantic, 22,
     "outside 0..1");
    ("unknown-unit", with_line 23 "    units [fpu]", Diag.Semantic, 23,
     "unknown unit");
    ("no-reg-in-class", with_line 24 "    op dst reg vec write",
     Diag.Semantic, 24, "no register carries class");
    ("duplicate-operand", with_line 25 "    op dst reg gpr read",
     Diag.Semantic, 25, "duplicate operand name");
    ("unknown-enc-field", with_line 28 "    enc opcode 1", Diag.Semantic, 28,
     "unknown field");
    ("enc-value-overflow", with_line 28 "    enc op 99", Diag.Semantic, 28,
     "does not fit field");
    ("unknown-operand-ref", with_line 29 "    enc d @dest", Diag.Semantic, 29,
     "unknown operand");
    ("write-to-read-only", with_line 32 "    act arithq add @a, @dst, @b",
     Diag.Semantic, 20, "writes read-only operand");
    ("unknown-action", with_line 32 "    act frob add @dst, @a, @b",
     Diag.Parsing, 32, "unknown action kind");
    ("slice-bounds", with_line 32 "    act assign @dst, slice(@a, 2, 9)",
     Diag.Semantic, 32, "slice low bit");
    ("const-too-wide", with_line 32 "    act assign @dst, 9:2", Diag.Semantic,
     32, "does not fit");
    ("unknown-flag", with_line 32 "    act setflag Q, @a", Diag.Semantic, 32,
     "unknown flag");
    ("duplicate-template-ci", with_line 34
       "  tmpl ADD { sem nop phase 0 units [] result none }",
     Diag.Semantic, 34, "duplicate template name");
    ("missing-sem", with_line 34 "  tmpl nop { phase 0 units [] result none }",
     Diag.Semantic, 34, "missing 'sem'");
    ("no-registers",
     "machine T { word 16 addr 8 phases 1 store 64 units []\n\
     \  field seq 3 0\n\
      tmpl nop { sem nop phase 0 units [] result none } }",
     Diag.Semantic, 1, "declares no registers");
  ]

let test_malformed_corpus () =
  List.iter
    (fun (name, src, phase, line, frag) ->
      match Mdesc.parse ~file:"t.mdesc" src with
      | _ -> Alcotest.fail (name ^ ": malformed input was accepted")
      | exception Diag.Error d ->
          Alcotest.(check string)
            (name ^ ": phase")
            (Diag.phase_name phase)
            (Diag.phase_name d.Diag.phase);
          Alcotest.(check int)
            (name ^ ": line")
            line d.Diag.loc.Msl_util.Loc.start_pos.Msl_util.Loc.line;
          if not (contains d.Diag.message frag) then
            Alcotest.fail
              (Printf.sprintf "%s: diagnostic %S does not mention %S" name
                 d.Diag.message frag))
    malformed

(* -- Desc.validate invariants, hit directly ------------------------------ *)

let mk ?(regs = [ Desc.mkreg ~classes:[ "gpr" ] 0 "R0" 16 ])
    ?(fields = [ { Desc.f_name = "op"; f_width = 4; f_lo = 0 } ])
    ?(templates = []) ?(units = []) () =
  Desc.make ~name:"T" ~word:16 ~addr:8 ~phases:1 ~regs ~units ~fields
    ~templates ~cond_caps:[] ~mem_extra_cycles:0 ~store_words:64
    ~vertical:false ~scratch_base:32 ~note:"" ()

let rejected name frag f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": invalid description was accepted")
  | exception Invalid_argument msg ->
      if not (contains msg frag) then
        Alcotest.fail
          (Printf.sprintf "%s: error %S does not mention %S" name msg frag)

let nop_tmpl ?(fields = []) ?(actions = []) name =
  {
    Desc.t_name = name;
    t_sem = Desc.S_nop;
    t_operands = [||];
    t_result = Desc.R_none;
    t_phase = 0;
    t_units = [];
    t_fields = fields;
    t_actions = actions;
    t_extra_cycles = 0;
    t_facts = Desc.unresolved;
  }

let test_validate_invariants () =
  ignore (mk ());
  rejected "duplicate reg names (case-insensitive)" "duplicate register name"
    (fun () ->
      mk
        ~regs:
          [
            Desc.mkreg ~classes:[ "gpr" ] 0 "R0" 16;
            Desc.mkreg ~classes:[ "gpr" ] 1 "r0" 16;
          ]
        ());
  rejected "duplicate field names (case-insensitive)" "duplicate field name"
    (fun () ->
      mk
        ~fields:
          [
            { Desc.f_name = "op"; f_width = 4; f_lo = 0 };
            { Desc.f_name = "OP"; f_width = 4; f_lo = 4 };
          ]
        ());
  rejected "duplicate template names (case-insensitive)"
    "duplicate template name" (fun () ->
      mk ~templates:[ nop_tmpl "nop"; nop_tmpl "NOP" ] ());
  rejected "duplicate unit names (case-insensitive)" "duplicate unit name"
    (fun () -> mk ~units:[ "alu"; "ALU" ] ());
  rejected "more units than a mask holds" "more than 62" (fun () ->
      mk ~units:(List.init 63 (Printf.sprintf "u%d")) ());
  rejected "overlapping fields" "overlap" (fun () ->
      mk
        ~fields:
          [
            { Desc.f_name = "op"; f_width = 4; f_lo = 0 };
            { Desc.f_name = "a"; f_width = 4; f_lo = 3 };
          ]
        ());
  rejected "field at negative offset" "negative offset" (fun () ->
      mk ~fields:[ { Desc.f_name = "op"; f_width = 4; f_lo = -1 } ] ());
  rejected "field width out of range" "width" (fun () ->
      mk ~fields:[ { Desc.f_name = "op"; f_width = 63; f_lo = 0 } ] ());
  rejected "constant too wide for field" "does not fit field" (fun () ->
      mk
        ~templates:
          [
            nop_tmpl "nop"
              ~fields:[ { Desc.fs_field = "op"; fs_value = Desc.Fv_const 16 } ];
          ]
        ());
  rejected "unresolved field reference" "unknown field" (fun () ->
      mk
        ~templates:
          [
            nop_tmpl "nop"
              ~fields:[ { Desc.fs_field = "zap"; fs_value = Desc.Fv_const 0 } ];
          ]
        ());
  rejected "unresolved operand reference" "operand" (fun () ->
      mk
        ~templates:
          [
            nop_tmpl "nop"
              ~fields:[ { Desc.fs_field = "op"; fs_value = Desc.Fv_opnd 2 } ];
          ]
        ());
  rejected "empty register class behind an operand" "class" (fun () ->
      mk
        ~templates:
          [
            {
              (nop_tmpl "mov") with
              Desc.t_sem = Desc.S_move;
              t_operands =
                [|
                  {
                    Desc.o_name = "dst";
                    o_kind = Desc.O_reg "vec";
                    o_role = Desc.Write;
                  };
                |];
              t_result = Desc.R_operands;
            };
          ]
        ())

(* -- registry and file loading ------------------------------------------- *)

let test_unknown_machine () =
  match Machines.get "Z80" with
  | _ -> Alcotest.fail "unknown machine was accepted"
  | exception Diag.Error d ->
      Alcotest.(check string) "phase"
        (Diag.phase_name Diag.Semantic)
        (Diag.phase_name d.Diag.phase);
      List.iter
        (fun frag ->
          if not (contains d.Diag.message frag) then
            Alcotest.fail
              (Printf.sprintf "diagnostic %S does not mention %S"
                 d.Diag.message frag))
        [ "unknown machine"; "Z80"; "H1"; "HP3"; "V11"; "B17" ]

let test_find_case_insensitive () =
  (match Machines.find "hp3" with
  | Some d -> Alcotest.(check string) "find hp3" "HP3" d.Desc.d_name
  | None -> Alcotest.fail "find hp3 returned None");
  Alcotest.(check bool) "find nope" true (Machines.find "nope" = None)

let test_load_file () =
  let tmp = Filename.temp_file "mdesc_test" ".mdesc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out_bin tmp in
      output_string oc base_src;
      close_out oc;
      let d = Machines.load_file tmp in
      Alcotest.(check string) "loaded name" "T" d.Desc.d_name);
  (* missing file: a located diagnostic, not a Sys_error *)
  (match Machines.load_file "/nonexistent/no.mdesc" with
  | _ -> Alcotest.fail "missing file was accepted"
  | exception Diag.Error d ->
      if not (contains d.Diag.message "cannot read machine description") then
        Alcotest.fail ("unexpected message: " ^ d.Diag.message));
  (* invalid contents: the parser's diagnostic carries the path *)
  let tmp2 = Filename.temp_file "mdesc_test" ".mdesc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp2)
    (fun () ->
      let oc = open_out_bin tmp2 in
      output_string oc "machine Bad {";
      close_out oc;
      match Machines.load_file tmp2 with
      | _ -> Alcotest.fail "truncated file was accepted"
      | exception Diag.Error d ->
          Alcotest.(check string) "file in loc" tmp2 d.Diag.loc.Msl_util.Loc.file)

(* -- derived template facts ------------------------------------------------ *)

(* The oracle: each fact re-derived the way consumers derived it per op
   before Desc.make resolved templates, by walking the RTL and matching
   names. *)
let oracle_regs d names =
  List.sort_uniq compare (List.map (fun n -> (Desc.get_reg d n).Desc.r_id) names)

let oracle_flags (tm : Desc.template) of_action =
  List.sort_uniq compare (List.concat_map of_action tm.Desc.t_actions)

let flags_of_mask m =
  List.filter (fun f -> m land (1 lsl Rtl.flag_index f) <> 0) Rtl.all_flags

let roles (tm : Desc.template) keep =
  List.filter
    (fun i -> keep tm.Desc.t_operands.(i).Desc.o_role)
    (List.init (Array.length tm.Desc.t_operands) Fun.id)

(* Today's per-op register sets, for ops drawn from the block generator. *)
let oracle_op_regs d (op : Inst.op) keep of_action =
  let operands =
    Array.to_list op.Inst.op_args
    |> List.filteri (fun i _ -> keep op.Inst.op_t.Desc.t_operands.(i).Desc.o_role)
    |> List.filter_map (function Inst.A_reg r -> Some r | Inst.A_imm _ -> None)
  in
  let named =
    List.concat_map of_action op.Inst.op_t.Desc.t_actions
    |> List.map (fun n -> (Desc.get_reg d n).Desc.r_id)
  in
  List.sort_uniq compare (operands @ named)

let reads = function Desc.Read | Desc.Read_write -> true | Desc.Write -> false
let writes = function Desc.Write | Desc.Read_write -> true | Desc.Read -> false

let check_facts (d : Desc.t) =
  let name = d.Desc.d_name in
  let ints what = Alcotest.(check (list int)) (name ^ " " ^ what) in
  let fields = Array.to_list d.Desc.d_fields in
  ints "word bits"
    [ List.fold_left (fun a (f : Desc.field) -> max a (f.f_lo + f.f_width)) 0 fields ]
    [ d.Desc.d_word_bits ];
  Array.iteri
    (fun k fname ->
      let expect =
        match List.find_index (fun (f : Desc.field) -> f.f_name = fname) fields with
        | Some i -> i
        | None -> -1
      in
      ints ("slot of " ^ fname) [ expect ] [ d.Desc.d_seq_slots.(k) ])
    Desc.seq_fields;
  Array.iteri
    (fun i (tm : Desc.template) ->
      let x = Desc.facts d tm in
      let what s = tm.Desc.t_name ^ " " ^ s in
      let acts = tm.Desc.t_actions in
      Alcotest.(check bool) (name ^ " " ^ what "is resolved") true (x == tm.Desc.t_facts);
      ints (what "index") [ i ] [ x.Desc.x_index ];
      ints (what "read operands") (roles tm reads) (Array.to_list x.Desc.x_read_opnds);
      ints (what "written operands") (roles tm writes) (Array.to_list x.Desc.x_write_opnds);
      ints (what "read registers")
        (oracle_regs d (List.concat_map Rtl.action_reads acts)) x.Desc.x_read_regs;
      ints (what "written registers")
        (oracle_regs d (List.concat_map (fun a -> fst (Rtl.action_writes a)) acts))
        x.Desc.x_write_regs;
      Alcotest.(check (list string)) (name ^ " " ^ what "read flags")
        (List.map Rtl.flag_name (oracle_flags tm Rtl.action_reads_flags))
        (List.map Rtl.flag_name (flags_of_mask x.Desc.x_read_flags));
      Alcotest.(check (list string)) (name ^ " " ^ what "set flags")
        (List.map Rtl.flag_name (oracle_flags tm Rtl.action_sets_flags))
        (List.map Rtl.flag_name (flags_of_mask x.Desc.x_set_flags));
      Alcotest.(check bool) (name ^ " " ^ what "memory")
        (List.exists Rtl.action_touches_memory acts) x.Desc.x_mem;
      Alcotest.(check (list string)) (name ^ " " ^ what "units")
        (List.filter (fun u -> List.mem u tm.Desc.t_units) d.Desc.d_units)
        (List.filteri (fun j _ -> x.Desc.x_units land (1 lsl j) <> 0) d.Desc.d_units);
      Alcotest.(check (list (pair string int))) (name ^ " " ^ what "settings")
        (List.map
           (fun (fs : Desc.field_setting) ->
             ( fs.fs_field,
               match fs.fs_value with Desc.Fv_const c -> c | Desc.Fv_opnd o -> -1 - o ))
           tm.Desc.t_fields)
        (List.mapi
           (fun k slot -> (d.Desc.d_fields.(slot).Desc.f_name, x.Desc.x_values.(k)))
           (Array.to_list x.Desc.x_slots));
      (* a copy the machine did not resolve has no facts and no index *)
      let copy = { tm with Desc.t_phase = tm.Desc.t_phase } in
      let refused f =
        match f () with _ -> false | exception Invalid_argument _ -> true
      in
      Alcotest.(check bool) (name ^ " " ^ what "copy has no facts") true
        (refused (fun () -> Desc.facts d copy));
      Alcotest.(check bool) (name ^ " " ^ what "copy has no index") true
        (refused (fun () -> Desc.template_index d copy)))
    d.Desc.d_templates

let test_facts_shipped () = List.iter check_facts Machines.all

let test_facts_generated () =
  for seed = 1 to 50 do
    check_facts
      (Mdesc.parse ~file:(Printf.sprintf "gen-%d.mdesc" seed)
         (Core.Workloads.gen_machine ~seed))
  done

let test_facts_ops () =
  List.iter
    (fun d ->
      for seed = 1 to 20 do
        List.iter
          (fun (op : Inst.op) ->
            let what s = d.Desc.d_name ^ " " ^ op.Inst.op_t.Desc.t_name ^ " " ^ s in
            Alcotest.(check (list int)) (what "reads")
              (oracle_op_regs d op reads Rtl.action_reads)
              (Inst.op_reads d op);
            Alcotest.(check (list int)) (what "writes")
              (oracle_op_regs d op writes (fun a -> fst (Rtl.action_writes a)))
              (Inst.op_writes d op))
          (Core.Workloads.compaction_block d ~seed ~n:12 ~p_dep:40)
      done)
    [ Machines.hp3; Machines.h1; Machines.b17 ]

let () =
  Alcotest.run "mdesc"
    [
      ( "byte-identity",
        [
          Alcotest.test_case "examples encode to golden bytes" `Slow
            test_byte_identity;
          Alcotest.test_case "goldens cover the corpus" `Quick
            test_goldens_cover_corpus;
        ] );
      ( "round-trip",
        [
          Alcotest.test_case "to_source/parse fixpoint" `Quick test_round_trip;
          Alcotest.test_case "machine inventory" `Quick test_inventory;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "base source is valid" `Quick test_base_is_valid;
          Alcotest.test_case "malformed corpus" `Quick test_malformed_corpus;
          Alcotest.test_case "Desc.validate invariants" `Quick
            test_validate_invariants;
        ] );
      ( "facts",
        [
          Alcotest.test_case "shipped machines: facts = RTL walk" `Quick
            test_facts_shipped;
          Alcotest.test_case "50 generated machines: facts = RTL walk" `Quick
            test_facts_generated;
          Alcotest.test_case "op register sets = RTL walk" `Quick test_facts_ops;
        ] );
      ( "registry",
        [
          Alcotest.test_case "unknown machine" `Quick test_unknown_machine;
          Alcotest.test_case "find is case-insensitive" `Quick
            test_find_case_insensitive;
          Alcotest.test_case "load_file" `Quick test_load_file;
        ] );
    ]
