(* The survey's kernels: the T2 compiled-versus-hand pairs, and the seeded
   inputs, OCaml reference results and two-engine execution check shared
   by the workloads that run generated microcode. *)

open Msl_machine
module Toolkit = Msl_core.Toolkit
module Handcoded = Msl_core.Handcoded
module Pipeline = Msl_mir.Pipeline

let level n = { Pipeline.default_options with Pipeline.opt_level = n }

(* -- T2: compiled against hand-written code size -------------------------- *)

type t2 = {
  t_name : string;  (** <kernel>-<machine> *)
  t_language : Toolkit.language;
  t_machine : string;
  t_source : string;
  t_hand : string;
}

let t2 =
  let p t_name t_language t_machine t_source t_hand =
    { t_name; t_language; t_machine; t_source; t_hand }
  in
  [
    p "translit-hp3" Toolkit.Yalll "hp3" Handcoded.yalll_translit
      Handcoded.translit_hp3;
    p "translit-v11" Toolkit.Yalll "v11" Handcoded.yalll_translit_v11
      Handcoded.translit_v11;
    p "fpmul-h1" Toolkit.Simpl "h1" Handcoded.simpl_fpmul Handcoded.fpmul_h1;
    p "mpy-h1" Toolkit.Simpl "h1" Handcoded.simpl_mpy Handcoded.mpy_h1;
    p "dot-hp3" Toolkit.Yalll "hp3" Handcoded.yalll_dot Handcoded.dot_hp3;
  ]

let hand_words t =
  (Toolkit.assemble (Machines.get t.t_machine) t.t_hand).Toolkit.c_words

(* The worst gap, in percent of the hand-coded size, over (words, hand)
   pairs. *)
let worst_overhead pairs =
  List.fold_left
    (fun acc (words, hand) ->
      Float.max acc (100. *. float_of_int (words - hand) /. float_of_int hand))
    neg_infinity pairs

(* -- kernel inputs and references ------------------------------------------ *)

(* The multiply loop runs [n] iterations whatever the multiplicand, and
   the dot product's inner loop runs once per unit of each y element, so
   y is a seeded permutation of a fixed multiset: the seed changes the
   data, never the simulated cycle count. *)
type input =
  | Mpy of { n : int; b : int }  (** R1 = n, R2 = b; product in R3 *)
  | Dot of { x : int list; y : int list }
      (** x at 1024, y at 2048, R3 = length; result in R0 *)

let mpy_input rng ~n = Mpy { n; b = 1 + Random.State.int rng 99 }

let dot_input rng ~n =
  let x = List.init n (fun _ -> 1 + Random.State.int rng 97) in
  let y = Common.shuffle rng (List.init n (fun i -> ((i * 53) mod 89) + 1)) in
  Dot { x; y }

let apply input sim =
  match input with
  | Mpy { n; b } ->
      Sim.set_reg_int sim "R1" n;
      Sim.set_reg_int sim "R2" b
  | Dot { x; y } ->
      Memory.load_ints (Sim.memory sim) ~base:1024 x;
      Memory.load_ints (Sim.memory sim) ~base:2048 y;
      Sim.set_reg_int sim "R1" 1024;
      Sim.set_reg_int sim "R2" 2048;
      Sim.set_reg_int sim "R3" (List.length x)

(* The result register and its value, computed in OCaml at the machine's
   datapath width. *)
let reference input (d : Desc.t) =
  let v =
    match input with
    | Mpy { n; b } -> n * b
    | Dot { x; y } -> List.fold_left2 (fun acc a b -> acc + (a * b)) 0 x y
  in
  let v = if d.Desc.d_word >= 62 then v else v land ((1 lsl d.Desc.d_word) - 1) in
  ((match input with Mpy _ -> "R3" | Dot _ -> "R0"), v)

let result_ok input sim =
  let reg, v = reference input (Sim.desc sim) in
  Msl_bitvec.Bitvec.to_int (Sim.get_reg sim reg) = v

(* -- the two-engine execution check ------------------------------------------ *)

type exec = {
  x_cycles : int;
  x_interp_s : float;  (** the interpreter's run *)
  x_compiled_s : float;  (** the compiled engine's run *)
  x_load_s : float;  (** one [Toolkit.load] *)
  x_translate_s : float;  (** one [Simc.translate] *)
  x_interp_w : float;  (** minor words allocated by each run *)
  x_compiled_w : float;
  x_native : int;
  x_words : int;
  x_error : string option;
}

(* Load [c] twice, run [input] on each engine, and require both to halt
   with identical state digests and the OCaml reference result. *)
let exec_both (c : Toolkit.compiled) input =
  let interp, load_s = Common.timed (fun () -> Toolkit.load c) in
  apply input interp;
  let w0 = Gc.minor_words () in
  let st_i, interp_s = Common.timed (fun () -> Sim.run interp) in
  let interp_w = Gc.minor_words () -. w0 in
  let compiled = Toolkit.load c in
  apply input compiled;
  let engine, translate_s = Common.timed (fun () -> Simc.translate compiled) in
  let w0 = Gc.minor_words () in
  let st_c, compiled_s = Common.timed (fun () -> Simc.run engine) in
  let compiled_w = Gc.minor_words () -. w0 in
  let error =
    if st_i <> Sim.Halted || st_c <> Sim.Halted then Some "did not halt"
    else if Sim.state_digest interp <> Sim.state_digest compiled then
      Some "engine state digests differ"
    else if not (result_ok input interp) then Some "wrong result"
    else None
  in
  {
    x_cycles = Sim.cycles interp;
    x_interp_s = interp_s;
    x_compiled_s = compiled_s;
    x_load_s = load_s;
    x_translate_s = translate_s;
    x_interp_w = interp_w;
    x_compiled_w = compiled_w;
    x_native = Simc.native_words engine;
    x_words = Simc.words engine;
    x_error = error;
  }

(* -- engine accounting ------------------------------------------------------ *)

type engine_acc = {
  mutable e_cycles : int;
  mutable e_s : float;  (** host seconds in the engine's run calls *)
  mutable e_w : float;  (** minor words they allocated *)
}

type kernel_acc = { interp : engine_acc; compiled : engine_acc }

type acc = {
  kernels : (string, kernel_acc) Hashtbl.t;
  mutable loads : int;
  mutable load_s : float;
  mutable translates : int;
  mutable translate_s : float;
  mutable native : int;
  mutable words : int;
}

let acc () =
  {
    kernels = Hashtbl.create 8;
    loads = 0;
    load_s = 0.;
    translates = 0;
    translate_s = 0.;
    native = 0;
    words = 0;
  }

let kernel a name =
  match Hashtbl.find_opt a.kernels name with
  | Some k -> k
  | None ->
      let e () = { e_cycles = 0; e_s = 0.; e_w = 0. } in
      let k = { interp = e (); compiled = e () } in
      Hashtbl.add a.kernels name k;
      k

let add_run (e : engine_acc) ~cycles ~s ~w =
  e.e_cycles <- e.e_cycles + cycles;
  e.e_s <- e.e_s +. s;
  e.e_w <- e.e_w +. w

let add_exec a name x =
  let k = kernel a name in
  add_run k.interp ~cycles:x.x_cycles ~s:x.x_interp_s ~w:x.x_interp_w;
  add_run k.compiled ~cycles:x.x_cycles ~s:x.x_compiled_s ~w:x.x_compiled_w;
  a.loads <- a.loads + 1;
  a.load_s <- a.load_s +. x.x_load_s;
  a.translates <- a.translates + 1;
  a.translate_s <- a.translate_s +. x.x_translate_s;
  a.native <- a.native + x.x_native;
  a.words <- a.words + x.x_words

(* The simulator layer metrics of README.md from an accumulator. *)
let layer_metrics (m : Common.table) a =
  let mcycles_per_s e =
    if e.e_s = 0. then 0. else float_of_int e.e_cycles /. e.e_s /. 1e6
  in
  Hashtbl.iter
    (fun name k ->
      Common.set m ("sim." ^ name ^ ".mcycles_per_s") (mcycles_per_s k.interp);
      Common.set m ("simc." ^ name ^ ".mcycles_per_s") (mcycles_per_s k.compiled))
    a.kernels;
  let w_per_kcycle pick =
    let c, w =
      Hashtbl.fold
        (fun _ k (c, w) -> (c + (pick k).e_cycles, w +. (pick k).e_w))
        a.kernels (0, 0.)
    in
    if c = 0 then 0. else w /. (float_of_int c /. 1000.)
  in
  Common.set m "sim.interp_alloc_w_per_kcycle" (w_per_kcycle (fun k -> k.interp));
  Common.set m "simc.alloc_w_per_kcycle" (w_per_kcycle (fun k -> k.compiled));
  Common.set m "simc.native_word_pct"
    (Common.pct (float_of_int a.native) (float_of_int a.words));
  Common.set m "sim.load_us" (a.load_s *. 1e6 /. float_of_int (max 1 a.loads));
  Common.set m "simc.translate_us"
    (a.translate_s *. 1e6 /. float_of_int (max 1 a.translates))
