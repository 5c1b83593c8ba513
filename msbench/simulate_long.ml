(* simulate-long: the S4 kernel set on both engines, tens of thousands of
   simulated cycles per run and no compiling in the timed loop, so nearly
   all the time is the engines' inner loops.

   Each kernel is compiled at -O2, loaded and Simc.translate'd once in
   set-up; a job is one reset + input set-up + run on one engine.  A
   round runs every kernel once on the interpreter and twice on the
   compiled engine, in a seeded order: 21 jobs, so the median job falls
   inside one kernel's distribution rather than between two. *)

open Msl_machine
module Toolkit = Msl_core.Toolkit
module Handcoded = Msl_core.Handcoded
module Workloads = Msl_core.Workloads
open Common

type kernel = {
  k_name : string;  (** <kernel>-<machine>, as in Metrics.sim_kernels *)
  k_words : int;
  k_hand : int option;  (** hand-coded words, for the T2 pairs *)
  k_compiled : Toolkit.compiled;
  k_sim : Sim.t;
  k_engine : Simc.t;
  k_input : Kernels.input;
  k_interrupts : int list;
  k_cycles : int;  (** per run, from the set-up reference run *)
  k_digest : string;
}

let prepare ~seed () =
  let rng = Random.State.make [| seed; 3 |] in
  let mpy = Kernels.mpy_input rng ~n:30_000 in
  let dot = Kernels.dot_input rng ~n:256 in
  let hand name =
    List.find_map
      (fun (t : Kernels.t2) ->
        if t.t_name = name then Some (Kernels.hand_words t) else None)
      Kernels.t2
  in
  let kernel ?(poll = false) ?(interrupts = []) name language source input m =
    let options = { (Kernels.level 2) with Msl_mir.Pipeline.poll } in
    let c = Toolkit.compile ~options language (Machines.get m) source in
    let sim = Toolkit.load c in
    let arm () =
      Kernels.apply input sim;
      Sim.schedule_interrupts sim interrupts
    in
    arm ();
    (match Sim.run sim with
    | Sim.Halted -> ()
    | Sim.Out_of_fuel -> failwith (name ^ " did not halt in set-up"));
    let k_name = name ^ "-" ^ m in
    {
      k_name;
      k_words = c.Toolkit.c_words;
      k_hand = (if poll then None else hand k_name);
      k_compiled = c;
      k_sim = sim;
      k_engine = Simc.translate sim;
      k_input = input;
      k_interrupts = interrupts;
      k_cycles = Sim.cycles sim;
      k_digest = Sim.state_digest sim;
    }
  in
  let kernels =
    List.map
      (fun m -> kernel "mpy" Toolkit.Simpl Handcoded.simpl_mpy mpy m)
      [ "hp3"; "h1"; "b17" ]
    @ List.map
        (fun m -> kernel "dot" Toolkit.Yalll Handcoded.yalll_dot dot m)
        [ "hp3"; "v11"; "b17" ]
    @ [
        (* poll points on the loop's back edge and a seeded interrupt
           schedule: the compiled engine hands every Int_ack word back to
           Sim.step *)
        kernel ~poll:true
          ~interrupts:
            (Workloads.interrupt_schedule ~seed ~n:64 ~max_cycle:60_000)
          "mpy_poll" Toolkit.Simpl Handcoded.simpl_mpy mpy "hp3";
      ]
  in
  let jobs =
    List.concat_map
      (fun k -> [ (k, `Interp); (k, `Compiled); (k, `Compiled) ])
      kernels
  in
  (kernels, shuffle rng jobs)

let run ~seed ~seconds ~trace =
  let t = tally () in
  let (kernels, jobs), setup_s = repeated_setup (prepare ~seed) in
  let njobs = List.length jobs in
  let lat = Samples.create () in
  let untraced = rate () and traced_rate = rate () in
  let alloc_kw = ref 0. and round_cycles = ref 0 in
  let interp_runs = engine_runs () and compiled_runs = engine_runs () in
  let layer = Kernels.acc () in
  let traced_jobs = ref 0 in
  let round ~warmup ~traced =
    let record = not warmup in
    let busy = ref 0. and cycles = ref 0 in
    (* allocation inside the jobs only, not the bench's bookkeeping *)
    let job_w = ref 0. in
    List.iteri
      (fun i (k, engine) ->
        let sim = k.k_sim in
        let engine_name = match engine with `Interp -> "sim" | `Compiled -> "simc" in
        let body () =
          let t0 = now () in
          let w0 = Gc.minor_words () in
          let st =
            match engine with
            | `Interp -> Sim.run sim
            | `Compiled -> Simc.run k.k_engine
          in
          (st, now () -. t0, Gc.minor_words () -. w0)
        in
        let reset () =
          Sim.reset sim;
          Kernels.apply k.k_input sim;
          Sim.schedule_interrupts sim k.k_interrupts
        in
        let t0 = now () in
        let w0 = Gc.minor_words () in
        let st, run_s, run_w =
          if traced then begin
            Span.set_job (!traced_jobs + i);
            Span.with_ "job" (fun () ->
                Span.with_ "sim.reset" reset;
                Span.with_ (engine_name ^ "." ^ k.k_name) body)
          end
          else begin
            reset ();
            body ()
          end
        in
        let dt = now () -. t0 in
        job_w := !job_w +. (Gc.minor_words () -. w0);
        busy := !busy +. dt;
        cycles := !cycles + Sim.cycles sim;
        if record then begin
          t.attempted <- t.attempted + 1;
          if traced then begin
            let e = Kernels.kernel layer k.k_name in
            Kernels.add_run
              (match engine with `Interp -> e.interp | `Compiled -> e.compiled)
              ~cycles:(Sim.cycles sim) ~s:run_s ~w:run_w
          end
          else begin
            Samples.add lat (Host.scale dt);
            add_engine_run
              (match engine with `Interp -> interp_runs | `Compiled -> compiled_runs)
              ~cycles:(Sim.cycles sim) ~s:run_s
          end
        end;
        if st <> Sim.Halted then fail t "%s/%s did not halt" k.k_name engine_name
        else if Sim.cycles sim <> k.k_cycles || Sim.state_digest sim <> k.k_digest
        then fail t "%s/%s: state digest differs from the reference run" k.k_name engine_name
        else if not (Kernels.result_ok k.k_input sim) then
          fail t "%s/%s: wrong result" k.k_name engine_name)
      jobs;
    if record then begin
      exact t "sim_cycles" (float_of_int !cycles);
      round_cycles := !cycles;
      if traced then begin
        traced_jobs := !traced_jobs + njobs;
        add_rate traced_rate ~jobs:njobs ~s:!busy
      end
      else begin
        add_rate untraced ~jobs:njobs ~s:!busy;
        alloc_kw := !job_w /. 1000. /. float_of_int njobs;
        exact t "alloc_kw_per_job" !alloc_kw
      end
    end
  in
  rounds ~seconds ~trace round;
  let m : table = Hashtbl.create 64 in
  if not trace then begin
    set m "heap_peak_mb" (heap_peak_mb ());
    (* one window of every job: each round runs the same 21 jobs, so the
       whole run has a fixed mix, where a window of 1000 would not *)
    set_timings ~window:max_int m ~setup_s ~lat ~interp:interp_runs ~compiled:compiled_runs;
    set m "alloc_kw_per_job" !alloc_kw;
    set m "control_words"
      (float_of_int (List.fold_left (fun acc k -> acc + k.k_words) 0 kernels));
    set m "hand_overhead_worst_pct"
      (Kernels.worst_overhead
         (List.filter_map
            (fun k -> Option.map (fun h -> (k.k_words, h)) k.k_hand)
            kernels));
    set m "sim_cycles" (float_of_int !round_cycles)
  end
  else begin
    (* load and translate are set-up work here: time them once more *)
    List.iter
      (fun k ->
        let sim, load_s = timed (fun () -> Toolkit.load k.k_compiled) in
        let e, translate_s = timed (fun () -> Simc.translate sim) in
        layer.loads <- layer.loads + 1;
        layer.load_s <- layer.load_s +. load_s;
        layer.translates <- layer.translates + 1;
        layer.translate_s <- layer.translate_s +. translate_s;
        layer.native <- layer.native + Simc.native_words e;
        layer.words <- layer.words + Simc.words e)
      kernels;
    Kernels.layer_metrics m layer;
    let agg = Span.aggregate () in
    set m "unattributed_pct" (unattributed_pct agg);
    set m "trace_overhead_pct"
      (overhead_pct ~untraced ~traced:traced_rate);
    write_trace "simulate-long"
  end;
  (t, m)
