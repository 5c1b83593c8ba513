(* compile-gated: every job a cache miss through Service.compile_job with
   the lint and translation-validation gates on, so the frontends, the MIR
   passes, select+compact, superopt, Microlint and TV do the work.

   Traced rounds replay each job through the public layer calls a gated
   miss makes — frontend, Pipeline.compile (split by its observe and
   capture hooks), Encode, the listing, Lint, then the validate gate's
   recompile and Tv — each inside a bench-owned span. *)

open Msl_machine
module Service = Msl_core.Service
module Toolkit = Msl_core.Toolkit
module Workloads = Msl_core.Workloads
module Pipeline = Msl_mir.Pipeline
module Tv = Msl_mir.Tv
module Superopt = Msl_mir.Superopt
open Common

let machines = [ "hp3"; "h1"; "v11"; "b17" ]

let language_of_file f =
  if Filename.check_suffix f ".yll" then Some Toolkit.Yalll
  else if Filename.check_suffix f ".simpl" then Some Toolkit.Simpl
  else if Filename.check_suffix f ".empl" then Some Toolkit.Empl
  else None

let gated (j : Service.job) =
  { j with Service.j_lint = true; j_validate = true; j_diff = false }

let job ~o id language machine source =
  gated (Service.job ~id ~options:(Kernels.level o) language ~machine ~source)

(* The corpus, in a seeded order, with duplicate cache keys removed so
   that every job of a round on a fresh service is a miss:
   - every examples/ source on every machine at -O0/-O1/-O2;
   - the batch manifest, whose variants cover the compaction algorithms,
     chaining, poll points, trap safety, allocation strategy and pool;
   - the T2 programs at -O1 and -O2;
   - seeded YALLL and EMPL register-pressure programs. *)
let corpus ~seed =
  let rng = Random.State.make [| seed; 1 |] in
  let examples =
    Sys.readdir "examples" |> Array.to_list |> List.sort compare
    |> List.filter_map (fun f ->
           Option.map (fun l -> (f, l)) (language_of_file f))
  in
  let levels = [ 0; 1; 2 ] in
  let from_examples =
    List.concat_map
      (fun (f, language) ->
        let source = read_file (Filename.concat "examples" f) in
        List.concat_map
          (fun m ->
            List.map
              (fun o ->
                job ~o (Printf.sprintf "%s@%s-O%d" f m o) language m source)
              levels)
          machines)
      examples
  in
  let manifest = "examples/batch.manifest" in
  let from_manifest =
    List.map gated
      (Service.parse_manifest ~file:manifest ~load:read_file
         (read_file manifest))
  in
  let from_t2 =
    List.concat_map
      (fun (t : Kernels.t2) ->
        List.map
          (fun o ->
            job ~o
              (Printf.sprintf "t2:%s-O%d" t.t_name o)
              t.t_language t.t_machine t.t_source)
          [ 1; 2 ])
      Kernels.t2
  in
  let generated =
    List.concat_map
      (fun m ->
        List.init 2 (fun i ->
            let s = Random.State.bits rng in
            job ~o:1
              (Printf.sprintf "gen:yalll%d@%s" i m)
              Toolkit.Yalll m
              (Workloads.yalll_program ~seed:s ~len:24)))
      [ "hp3"; "v11"; "b17" ]
    @ List.map
        (fun m ->
          let s = Random.State.bits rng in
          job ~o:1 ("gen:pressure@" ^ m) Toolkit.Empl m
            (Workloads.pressure_program ~seed:s ~nvars:12 ~nops:32))
        [ "hp3"; "b17" ]
  in
  let seen = Hashtbl.create 256 in
  List.filter
    (fun j ->
      let k = (Service.cache_key j :> string) in
      if Hashtbl.mem seen k then false
      else (
        Hashtbl.add seen k ();
        true))
    (from_examples @ from_manifest @ from_t2 @ generated)
  |> shuffle rng

(* The kernels whose -O2 output each round also executes on both engines,
   against OCaml references: T2's multiply loop and dot product. *)
let exec_checks rng =
  [
    ("t2:mpy-h1-O2", "mpy-h1", Kernels.mpy_input rng ~n:20_000);
    ("t2:dot-hp3-O2", "dot-hp3", Kernels.dot_input rng ~n:128);
  ]

type setup = {
  jobs : Service.job list;
  hand : (string * int) list;  (** T2 id at -O2 -> hand-coded words *)
  checks : (string * string * Kernels.input) list;
}

let setup ~seed () =
  let jobs = corpus ~seed in
  let hand =
    List.map
      (fun (t : Kernels.t2) ->
        (Printf.sprintf "t2:%s-O2" t.t_name, Kernels.hand_words t))
      Kernels.t2
  in
  { jobs; hand; checks = exec_checks (Random.State.make [| seed; 2 |]) }

(* -- the traced replay of one gated job ------------------------------------- *)

let frontend (j : Service.job) d =
  Span.with_ "frontend" (fun () ->
      match j.Service.j_language with
      | Toolkit.Simpl -> Msl_simpl.Compile.parse_compile d j.j_source
      | Toolkit.Empl ->
          Msl_empl.Compile.parse_compile ~use_microops:j.j_use_microops d
            j.j_source
      | Toolkit.Yalll -> Msl_yalll.Compile.parse_compile d j.j_source
      | Toolkit.Sstar -> invalid_arg "S* has no MIR pipeline")

(* Pipeline.compile, split at its hooks: each pass runs from the previous
   observe callback to its own; select+compact from the last observe to
   the last capture; superopt and link from there to the return. *)
let mir ?(capture = ignore) ?superopt_capture ~options d p =
  Span.with_ "mir" (fun () ->
      let last = ref (Span.mark ()) in
      let observe name _ =
        let m = Span.mark () in
        Span.record ("mir." ^ name) !last m;
        last := m
      in
      let last_capture = ref None in
      let capture a =
        capture a;
        last_capture := Some (Span.mark ())
      in
      let r = Pipeline.compile ~options ~observe ~capture ?superopt_capture d p in
      let stop = Span.mark () in
      let cap = Option.value !last_capture ~default:!last in
      Span.record "mir.select_compact" !last cap;
      Span.record "mir.superopt_link" cap stop;
      r)

type counts = {
  mutable search_nodes : int;
  mutable windows : int;
  mutable accepted : int;
  mutable memo_hits : int;
  mutable memo_lookups : int;
  mutable words_saved : int;
  mutable spilled : int;
  mutable tv_blocks : int;
  mutable tv_dynamic : int;
}

let zero_counts () =
  {
    search_nodes = 0; windows = 0; accepted = 0; memo_hits = 0;
    memo_lookups = 0; words_saved = 0; spilled = 0; tv_blocks = 0;
    tv_dynamic = 0;
  }

(* The reason the job failed, if it did. *)
let traced_job (cn : counts) (j : Service.job) =
  Span.with_ "job" (fun () ->
      let d =
        Span.with_ "service" (fun () ->
            ignore (Service.cache_key j);
            Machines.get j.Service.j_machine)
      in
      let options = j.j_options in
      let insts, labels, m = mir ~options d (frontend j d) in
      ignore (Span.with_ "encode" (fun () -> Encode.program_bits d insts));
      ignore (Span.with_ "service" (fun () -> Masm.print d insts));
      let findings =
        Span.with_ "lint" (fun () -> Msl_mir.Lint.validate_machine ~labels d insts)
      in
      let artifacts = ref [] and rewrites = ref [] in
      ignore
        (mir ~options
           ~capture:(fun a -> artifacts := a :: !artifacts)
           ~superopt_capture:(fun rw -> rewrites := rw :: !rewrites)
           d (frontend j d));
      let r, bad_rewrites =
        Span.with_ "tv" (fun () ->
            ( Tv.validate_artifacts d (List.rev !artifacts),
              List.filter
                (fun rw -> Superopt.replay d rw <> Tv.Validated)
                (List.rev !rewrites) ))
      in
      cn.search_nodes <- cn.search_nodes + m.Pipeline.m_search_nodes;
      Option.iter
        (fun (s : Superopt.stats) ->
          cn.windows <- cn.windows + s.s_windows;
          cn.accepted <- cn.accepted + s.s_accepted;
          cn.memo_hits <- cn.memo_hits + s.s_memo_hits;
          cn.memo_lookups <- cn.memo_lookups + s.s_memo_hits + s.s_memo_misses;
          cn.words_saved <- cn.words_saved + s.s_words_saved)
        m.m_superopt;
      Option.iter
        (fun (a : Msl_mir.Regalloc.stats) -> cn.spilled <- cn.spilled + a.spilled)
        m.m_alloc;
      cn.tv_blocks <- cn.tv_blocks + r.Tv.v_total;
      cn.tv_dynamic <- cn.tv_dynamic + r.Tv.v_dynamic;
      if Msl_mir.Diag.errors findings <> [] then Error "Microlint errors"
      else if r.Tv.v_refuted > 0 || r.Tv.v_unknown > 0 || bad_rewrites <> []
      then Error "translation validation did not prove every block"
      else Ok ())

(* -- the workload ----------------------------------------------------------------- *)

let run ~seed ~seconds ~trace =
  let t = tally () in
  let s, setup_s = repeated_setup (setup ~seed) in
  let lat = Samples.create () in
  let untraced = rate () and traced_rate = rate () in
  let alloc_kw = ref 0. and words = ref 0 and overhead = ref 0. in
  let sim_cycles = ref 0 in
  let interp_runs = engine_runs () and compiled_runs = engine_runs () in
  let layer_sim = Kernels.acc () in
  let last_counts = ref (zero_counts ()) and traced_jobs = ref 0 in
  let njobs = List.length s.jobs in
  (* after each round: run the round's T2 -O2 outputs on both engines *)
  let exec_round ~record ~traced (outputs : (string, Toolkit.compiled) Hashtbl.t)
      =
    let cycles = ref 0 in
    List.iter
      (fun (id, kernel, input) ->
        match Hashtbl.find_opt outputs id with
        | None -> ()
        | Some c ->
            let x = Kernels.exec_both c input in
            if record then t.attempted <- t.attempted + 1;
            Option.iter (fun e -> fail t "%s: %s" id e) x.Kernels.x_error;
            cycles := !cycles + x.x_cycles;
            if traced then Kernels.add_exec layer_sim kernel x
            else if record then begin
              add_engine_run interp_runs ~cycles:x.x_cycles ~s:x.x_interp_s;
              add_engine_run compiled_runs ~cycles:x.x_cycles ~s:x.x_compiled_s
            end)
      s.checks;
    if record then begin
      exact t "sim_cycles" (float_of_int !cycles);
      sim_cycles := !cycles
    end
  in
  let outputs = Hashtbl.create 16 in
  let round ~warmup ~traced =
    Hashtbl.reset outputs;
    let record = not warmup in
    if not traced then begin
      let svc = Service.create ~domains:1 () in
      let round_words = ref 0 in
      (* allocation inside the jobs only, not the bench's bookkeeping *)
      let w = ref 0. and busy = ref 0. in
      List.iter
        (fun (j : Service.job) ->
          let t1 = now () in
          let w1 = Gc.minor_words () in
          let o = Service.compile_job svc j in
          w := !w +. (Gc.minor_words () -. w1);
          let dt = now () -. t1 in
          busy := !busy +. dt;
          if record then begin
            t.attempted <- t.attempted + 1;
            Samples.add lat (Host.scale dt)
          end;
          match o.Service.o_result with
          | Ok (c, _) when not o.o_cached ->
              round_words := !round_words + c.Toolkit.c_words;
              if List.mem_assoc j.j_id s.hand then Hashtbl.replace outputs j.j_id c
          | Ok _ -> fail t "%s: served from the cache of a fresh service" j.j_id
          | Error d -> fail t "%s: %s" j.j_id d.Msl_util.Diag.message)
        s.jobs;
      if record then begin
        add_rate untraced ~jobs:njobs ~s:!busy;
        alloc_kw := !w /. 1000. /. float_of_int njobs;
        exact t "alloc_kw_per_job" !alloc_kw;
        words := !round_words;
        exact t "control_words" (float_of_int !round_words);
        overhead :=
          Kernels.worst_overhead
            (List.map
               (fun (id, hand) ->
                 match Hashtbl.find_opt outputs id with
                 | Some c -> (c.Toolkit.c_words, hand)
                 | None -> (hand, hand))
               s.hand);
        exact t "hand_overhead_worst_pct" !overhead
      end
    end
    else begin
      let cn = zero_counts () in
      let busy = ref 0. in
      List.iteri
        (fun i (j : Service.job) ->
          Span.set_job (!traced_jobs + i);
          let r, dt = timed (fun () -> traced_job cn j) in
          busy := !busy +. dt;
          t.attempted <- t.attempted + 1;
          match r with
          | Ok () ->
              (* the execution check needs a Toolkit.compiled *)
              if List.mem_assoc j.j_id s.hand then
                Hashtbl.replace outputs j.j_id
                  (Toolkit.compile ~options:j.j_options j.j_language
                     (Machines.get j.j_machine) j.j_source)
          | Error e -> fail t "%s: %s" j.j_id e)
        s.jobs;
      traced_jobs := !traced_jobs + njobs;
      add_rate traced_rate ~jobs:njobs ~s:!busy;
      List.iter
        (fun (name, v) -> exact t name (float_of_int v))
        [
          ("compaction.search_nodes", cn.search_nodes);
          ("superopt.windows", cn.windows);
          ("superopt.accepted", cn.accepted);
          ("superopt.memo_hits", cn.memo_hits);
          ("superopt.words_saved", cn.words_saved);
          ("regalloc.spilled", cn.spilled);
          ("tv.blocks", cn.tv_blocks);
          ("tv.dynamic", cn.tv_dynamic);
        ];
      last_counts := cn
    end;
    exec_round ~record ~traced outputs
  in
  rounds ~seconds ~trace round;
  let m : table = Hashtbl.create 64 in
  if not trace then begin
    set m "heap_peak_mb" (heap_peak_mb ());
    set_timings m ~setup_s ~lat ~interp:interp_runs ~compiled:compiled_runs;
    set m "alloc_kw_per_job" !alloc_kw;
    set m "control_words" (float_of_int !words);
    set m "hand_overhead_worst_pct" !overhead;
    set m "sim_cycles" (float_of_int !sim_cycles)
  end
  else begin
    let agg = Span.aggregate () in
    let jobs = !traced_jobs in
    let us name = layer_us agg name ~jobs in
    let kw name = layer_kw agg name ~jobs in
    set m "frontend.us_per_job" (us "frontend");
    set m "frontend.alloc_kw_per_job" (kw "frontend");
    List.iter
      (fun p -> set m ("mir." ^ p ^ ".us_per_job") (us ("mir." ^ p)))
      (Metrics.mir_passes @ [ "select_compact"; "superopt_link" ]);
    set m "mir.alloc_kw_per_job"
      ((Span.find agg "mir").Span.a_total_w /. 1000. /. float_of_int (max 1 jobs));
    let cn = !last_counts in
    set m "compaction.search_nodes" (float_of_int cn.search_nodes);
    set m "superopt.windows" (float_of_int cn.windows);
    set m "superopt.accept_pct"
      (pct (float_of_int cn.accepted) (float_of_int cn.windows));
    set m "superopt.memo_hit_pct"
      (pct (float_of_int cn.memo_hits) (float_of_int cn.memo_lookups));
    set m "superopt.words_saved" (float_of_int cn.words_saved);
    set m "regalloc.spilled" (float_of_int cn.spilled);
    List.iter
      (fun l ->
        set m (l ^ ".us_per_job") (us l);
        set m (l ^ ".alloc_kw_per_job") (kw l))
      [ "lint"; "tv" ];
    set m "tv.blocks" (float_of_int cn.tv_blocks);
    set m "tv.dynamic_pct"
      (pct (float_of_int cn.tv_dynamic) (float_of_int cn.tv_blocks));
    set m "encode.us_per_job" (us "encode");
    set m "service.us_per_job" (us "service");
    Kernels.layer_metrics m layer_sim;
    set m "unattributed_pct" (unattributed_pct agg);
    set m "trace_overhead_pct"
      (overhead_pct ~untraced ~traced:traced_rate);
    write_trace "compile-gated"
  end;
  (t, m)
