(* The survey's comparison of the ten languages as queryable data.

   The 1980 paper carries this comparison in prose; §3 summarises it:
   "From the ten languages reviewed in the previous paragraphs, eight
   allow complete sequential specification while only two (S* and CHAMIL)
   leave composition of microinstructions to the programmer. ... only two
   or three (EMPL, PL/MP and in a certain sense YALLL) allow the
   programmer to work with symbolic variables ... No language supports
   the passing of parameters to subroutines."  Experiment T1 recomputes
   those tallies from this table. *)

type parallelism =
  | Sequential  (* compiler composes microinstructions *)
  | Explicit  (* programmer composes microinstructions *)

type variables =
  | Registers  (* variables are bound to machine registers *)
  | Symbolic  (* compiler allocates registers *)
  | Partly_symbolic  (* YALLL: binding optional / special registers fixed *)

type implementation =
  | Implemented of int  (* number of target machines *)
  | Partial  (* some compiler passes completed *)
  | Not_implemented

type t = {
  name : string;
  year : int;
  designers : string;
  section : string;  (* where the survey discusses it *)
  primitives : string;  (* design issue 2.1.2 *)
  variables : variables;  (* 2.1.3 *)
  parallelism : parallelism;  (* 2.1.4 *)
  interrupts_addressed : bool;  (* 2.1.5: "no attention whatever" *)
  subroutine_parameters : bool;  (* §3: none have them *)
  control : string;  (* 2.1.6 *)
  datatypes : string;  (* 2.1.7 *)
  verification : bool;  (* proof-oriented design: Strum, S-star *)
  implementation : implementation;  (* 2.1.8 *)
  in_toolkit : bool;  (* reimplemented in this repository *)
}

let languages =
  [
    {
      name = "SIMPL";
      year = 1974;
      designers = "Ramamoorthy & Tsuchiya";
      section = "2.2.1";
      primitives = "fixed operator set (+ - & | xor not shifts)";
      variables = Registers;
      parallelism = Sequential;
      interrupts_addressed = false;
      subroutine_parameters = false;
      control = "blocks, procedures, if/while/for, case";
      datatypes = "integer only";
      verification = false;
      implementation = Implemented 1;
      in_toolkit = true;
    };
    {
      name = "EMPL";
      year = 1976;
      designers = "DeWitt";
      section = "2.2.2";
      primitives = "small base set + user-declared operators (MICROOP)";
      variables = Symbolic;
      parallelism = Sequential;
      interrupts_addressed = false;
      subroutine_parameters = false;
      control = "if/while/goto, procedures (no parameters), operators";
      datatypes = "integer + class-like extension types";
      verification = false;
      implementation = Partial;
      in_toolkit = true;
    };
    {
      name = "S*";
      year = 1978;
      designers = "Dasgupta";
      section = "2.2.3";
      primitives = "language schema: the machine's microoperations";
      variables = Registers;
      parallelism = Explicit;
      interrupts_addressed = false;
      subroutine_parameters = false;
      control = "cobegin/cocycle/dur/region, if-elif, while, repeat";
      datatypes = "bit, seq, array, tuple, stack; syn renaming";
      verification = true;
      implementation = Not_implemented;
      in_toolkit = true;
    };
    {
      name = "YALLL";
      year = 1979;
      designers = "Patterson, Lew & Tuck";
      section = "2.2.4";
      primitives = "commonly available microinstructions";
      variables = Partly_symbolic;
      parallelism = Sequential;
      interrupts_addressed = false;
      subroutine_parameters = false;
      control = "assembly-style: jumps, call/return, exit, mask branch";
      datatypes = "none (5 constant notations)";
      verification = false;
      implementation = Implemented 2;
      in_toolkit = true;
    };
    {
      name = "MPL";
      year = 1971;
      designers = "Eckhouse";
      section = "2.2.5";
      primitives = "fixed set, vertical target";
      variables = Registers;
      parallelism = Sequential;
      interrupts_addressed = false;
      subroutine_parameters = false;
      control = "SIMPL-like";
      datatypes = "1-D arrays, concatenated virtual registers";
      verification = false;
      implementation = Partial;
      in_toolkit = false;
    };
    {
      name = "Strum";
      year = 1976;
      designers = "Patterson";
      section = "2.2.5";
      primitives = "Burroughs D-machine operations";
      variables = Registers;
      parallelism = Sequential;
      interrupts_addressed = false;
      subroutine_parameters = false;
      control = "structured, with assertions";
      datatypes = "machine level";
      verification = true;
      implementation = Implemented 1;
      in_toolkit = false;
    };
    {
      name = "MPGL";
      year = 1977;
      designers = "Baba";
      section = "2.2.5";
      primitives = "machine primitives via a machine specification";
      variables = Registers;
      parallelism = Sequential;
      interrupts_addressed = false;
      subroutine_parameters = false;
      control = "poor structuring; explicit intermediate registers";
      datatypes = "machine level";
      verification = false;
      implementation = Implemented 1;
      in_toolkit = false;
    };
    {
      name = "Malik-Lewis";
      year = 1978;
      designers = "Malik & Lewis";
      section = "2.2.5";
      primitives = "declared emulator primitives (registers, stacks)";
      variables = Registers;
      parallelism = Sequential;
      interrupts_addressed = false;
      subroutine_parameters = false;
      control = "emulator-oriented";
      datatypes = "emulated-machine objects";
      verification = false;
      implementation = Not_implemented;
      in_toolkit = false;
    };
    {
      name = "CHAMIL";
      year = 1980;
      designers = "Weidner";
      section = "2.2.5";
      primitives = "datapath transfers (indirect paths allowed)";
      variables = Registers;
      parallelism = Explicit;
      interrupts_addressed = false;
      subroutine_parameters = false;
      control = "PASCAL-based, adequate";
      datatypes = "PASCAL-like structuring";
      verification = false;
      implementation = Implemented 1;
      in_toolkit = false;
    };
    {
      name = "PL/MP";
      year = 1978;
      designers = "IBM (Tan, Kim)";
      section = "2.2.5";
      primitives = "PL/I subset";
      variables = Symbolic;
      parallelism = Sequential;
      interrupts_addressed = false;
      subroutine_parameters = false;
      control = "PL/I subset";
      datatypes = "PL/I subset";
      verification = false;
      implementation = Partial;
      in_toolkit = false;
    };
  ]

(* -- the §3 tallies ---------------------------------------------------------- *)

let count pred = List.length (List.filter pred languages)

let sequential_count = count (fun l -> l.parallelism = Sequential)
let explicit_count = count (fun l -> l.parallelism = Explicit)
let symbolic_count =
  count (fun l -> l.variables = Symbolic || l.variables = Partly_symbolic)
let parameter_passing_count = count (fun l -> l.subroutine_parameters)
let interrupts_count = count (fun l -> l.interrupts_addressed)

let variables_name = function
  | Registers -> "registers"
  | Symbolic -> "symbolic"
  | Partly_symbolic -> "partly symbolic"

let parallelism_name = function
  | Sequential -> "sequential"
  | Explicit -> "explicit"

let implementation_name = function
  | Implemented n -> Printf.sprintf "yes (%d machine%s)" n (if n = 1 then "" else "s")
  | Partial -> "partial"
  | Not_implemented -> "no"

let to_table () =
  let open Msl_util.Tbl in
  let t =
    make ~title:"T1: the survey's language matrix (10 languages x design issues)"
      ~aligns:[ Left; Right; Left; Left; Left; Left; Left; Left ]
      [ "language"; "year"; "variables"; "parallelism"; "verif"; "impl";
        "datatypes"; "reimplemented" ]
  in
  List.iter
    (fun l ->
      add_row t
        [
          l.name;
          string_of_int l.year;
          variables_name l.variables;
          parallelism_name l.parallelism;
          (if l.verification then "yes" else "no");
          implementation_name l.implementation;
          l.datatypes;
          (if l.in_toolkit then "yes" else "-");
        ])
    languages;
  t

let tallies_table () =
  let open Msl_util.Tbl in
  let t =
    make ~title:"T1b: the survey's section-3 tallies, recomputed"
      ~aligns:[ Left; Right; Left ]
      [ "claim"; "count"; "survey text" ]
  in
  add_row t
    [ "sequential specification"; string_of_int sequential_count;
      "\"eight allow complete sequential specification\"" ];
  add_row t
    [ "explicit composition"; string_of_int explicit_count;
      "\"only two (S* and CHAMIL)\"" ];
  add_row t
    [ "symbolic variables"; string_of_int symbolic_count;
      "\"only two or three (EMPL, PL/MP and in a certain sense YALLL)\"" ];
  add_row t
    [ "parameter passing"; string_of_int parameter_passing_count;
      "\"No language supports the passing of parameters\"" ];
  add_row t
    [ "interrupt/trap handling"; string_of_int interrupts_count;
      "\"has even been completely neglected\"" ];
  t
