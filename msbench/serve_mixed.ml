(* serve-mixed: an in-process Serve daemon with one worker domain, and one
   client connection that keeps exactly one request outstanding (a closed
   loop), so the load stays inside two cores.  Per request the daemon's
   own path dominates: JSON, the socket, admission, fingerprinting, the
   memory and disk caches and Marshal.

   The memory cache holds fewer entries than the warm set, and the disk
   cache is prefilled with the warm set during set-up.  Requests come in
   seeded blocks of 20: 10 compiles from a small hot set (memory hits), 6
   compiles or lints from the warm set (disk reads), 1 fresh source (a
   compile plus a disk write) and 3 short runs (load, translate or
   interpret, execute).  Writes beside reads show a cache change that
   helps one at the other's cost; more fresh sources would churn enough
   cache files to slow the disk for the runs that follow. *)

module Service = Msl_core.Service
module Serve = Msl_core.Serve
module Toolkit = Msl_core.Toolkit
module Workloads = Msl_core.Workloads
module Trace = Msl_util.Trace
open Common

let capacity = 32
let round_requests = 200

type cls = Hot | Warm | Fresh | Run

let class_name = function
  | Hot -> "hot"
  | Warm -> "warm"
  | Fresh -> "fresh"
  | Run -> "run"

type item = {
  i_op : string;
  i_language : Toolkit.language;
  i_machine : string;
  i_source : string;
  i_opt : int;
  i_words : int;  (** the library compile's figures *)
  i_ops : int;
  i_bits : int;
  i_cycles : int;  (** run items: the library run's simulated cycles *)
}

let service_job ~id (i : item) =
  Service.job ~id ~options:(Kernels.level i.i_opt) ~lint:(i.i_op = "lint")
    i.i_language ~machine:i.i_machine ~source:i.i_source

let library_item ?(op = "compile") ?(run = false) language machine source opt =
  let c =
    Toolkit.compile ~options:(Kernels.level opt) language (Msl_machine.Machines.get machine)
      source
  in
  {
    i_op = (if run then "run" else op);
    i_language = language;
    i_machine = machine;
    i_source = source;
    i_opt = opt;
    i_words = c.Toolkit.c_words;
    i_ops = c.c_ops;
    i_bits = c.c_bits;
    i_cycles = (if run then Msl_machine.Sim.cycles (Toolkit.run c) else 0);
  }

(* A counting loop in SIMPL: [n] iterations of an add, so the run's
   simulated time is fixed by [n]. *)
let loop_source ~n ~k =
  Printf.sprintf
    "begin\n\
    \  %d -> R1;\n\
    \  %d -> R2;\n\
    \  0 -> R3;\n\
    \  while R1 <> 0 do\n\
    \  begin\n\
    \    R3 + R2 -> R3;\n\
    \    R1 - 1 -> R1;\n\
    \  end;\n\
     end\n"
    n k

let fresh_machines = [| "hp3"; "v11"; "b17" |]

let fresh_source ~seed n = Workloads.yalll_program ~seed:((seed * 1_000_003) + n) ~len:16

type sets = {
  hot : item array;
  warm : item array;
  runs : item array;
  hand : (int * int) list;  (** T2 at -O2: (library words, hand words) *)
  pattern : cls array;  (** one block of 20, in a seeded order *)
}

let make_sets ~seed =
  let rng = Random.State.make [| seed; 4 |] in
  let hot =
    List.concat_map
      (fun (t : Kernels.t2) ->
        List.map
          (fun o -> library_item t.t_language t.t_machine t.t_source o)
          [ 1; 2 ])
      Kernels.t2
  in
  let hand =
    List.map
      (fun (t : Kernels.t2) ->
        ( (library_item t.t_language t.t_machine t.t_source 2).i_words,
          Kernels.hand_words t ))
      Kernels.t2
  in
  let warm =
    List.init 48 (fun i ->
        library_item
          ~op:(if i mod 2 = 0 then "compile" else "lint")
          Toolkit.Yalll fresh_machines.(i mod 3)
          (Workloads.yalll_program ~seed:(Random.State.bits rng) ~len:16)
          1)
  in
  let runs =
    List.map
      (fun (m, n) ->
        library_item ~run:true Toolkit.Simpl m
          (loop_source ~n ~k:(1 + Random.State.int rng 99))
          1)
      [ ("hp3", 150); ("h1", 200); ("v11", 250); ("b17", 300) ]
  in
  let pattern =
    List.init 10 (fun _ -> Hot)
    @ List.init 6 (fun _ -> Warm)
    @ [ Fresh; Run; Run; Run ]
  in
  {
    hot = Array.of_list hot;
    warm = Array.of_list warm;
    runs = Array.of_list runs;
    hand;
    pattern = Array.of_list (shuffle rng pattern);
  }

(* A fresh service on [dir] holding the hot, warm and run sets on disk. *)
let prefill sets dir =
  let svc = Service.create ~domains:1 ~capacity ~cache_dir:dir () in
  Array.iter
    (fun i -> ignore (Service.compile_job svc (service_job ~id:"prefill" i)))
    (Array.concat [ sets.hot; sets.warm; sets.runs ]);
  svc

type daemon = {
  dir : string;
  server : Serve.server;
  conn : Serve.Client.conn;
  mirror : Service.t option;
      (** traced runs: a second service on its own prefilled directory,
          fed the same job stream, timing direct compile_job calls *)
}

let instance = ref 0

let start ~sets ~trace () =
  ensure_dir work_dir;
  incr instance;
  let dir =
    Filename.concat work_dir
      (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !instance)
  in
  remove_tree dir;
  Unix.mkdir dir 0o755;
  let cache = Filename.concat dir "cache" in
  ignore (prefill sets cache);
  let mirror =
    if trace then Some (prefill sets (Filename.concat dir "mirror")) else None
  in
  let socket = Filename.concat dir "d.sock" in
  let server =
    Serve.start
      {
        (Serve.default_config ~socket) with
        Serve.sc_domains = Some 1;
        sc_capacity = capacity;
        sc_cache_dir = Some cache;
      }
  in
  { dir; server; conn = Serve.Client.connect socket; mirror }

let stop d =
  Serve.Client.close d.conn;
  Serve.stop d.server;
  Serve.wait d.server;
  remove_tree d.dir

(* -- responses ------------------------------------------------------------------ *)

let field name = function
  | Trace.J_obj fields -> List.assoc_opt name fields
  | _ -> None

let num name j = match field name j with Some (Trace.J_num v) -> int_of_float v | _ -> -1

(* Whether a parsed response answers request [id] with the expected
   figures; [None] when it does. *)
let check_response ~id ~(item : item) ~fresh json =
  match json with
  | Error e -> Some ("unparseable response: " ^ e)
  | Ok j -> (
      match (field "id" j, field "ok" j) with
      | Some (Trace.J_str rid), Some (Trace.J_bool true) when rid = id ->
          if item.i_op = "run" && field "status" j <> Some (Trace.J_str "halted")
          then Some "run did not halt"
          else if
            (not fresh)
            && (num "words" j, num "ops" j, num "bits" j)
               <> (item.i_words, item.i_ops, item.i_bits)
          then Some "words/ops/bits differ from the library compile"
          else None
      | _ -> Some "response is not ok for its request id")

(* -- the workload ----------------------------------------------------------------- *)

let run ~seed ~seconds ~trace =
  let t = tally () in
  let sets = make_sets ~seed in
  (* Set-up writes the disk cache, so it is timed from a quiet disk: what
     earlier runs wrote and deleted is flushed first. *)
  settle_disk ();
  let d, setup_s = repeated_setup ~dispose:stop (start ~sets ~trace) in
  Fun.protect ~finally:(fun () ->
      stop d;
      settle_disk ())
  @@ fun () ->
  let rng = Random.State.make [| seed; 5 |] in
  let seq = ref 0 and fresh_n = ref 0 and runs_n = ref 0 in
  (* the next request of the stream: its class, item and engine *)
  let next () =
    let cls = sets.pattern.(!seq mod Array.length sets.pattern) in
    incr seq;
    let pick a = a.(Random.State.int rng (Array.length a)) in
    match cls with
    | Hot -> (cls, pick sets.hot, None)
    | Warm -> (cls, pick sets.warm, None)
    | Run ->
        incr runs_n;
        (cls, pick sets.runs, Some (if !runs_n mod 2 = 0 then "compiled" else "interp"))
    | Fresh ->
        incr fresh_n;
        let m = fresh_machines.(!fresh_n mod 3) in
        ( cls,
          {
            i_op = "compile"; i_language = Toolkit.Yalll; i_machine = m;
            i_source = fresh_source ~seed !fresh_n; i_opt = 1; i_words = 0;
            i_ops = 0; i_bits = 0; i_cycles = 0;
          },
          None )
  in
  let fresh_out = ref [] in
  let lat = Samples.create () in
  let untraced = rate () and traced_rate = rate () in
  let alloc_w = ref 0. and timed_requests = ref 0 in
  let interp_runs = engine_runs () and compiled_runs = engine_runs () in
  let layer = Kernels.acc () in
  (* traced rounds: direct service time and round trip, by cache path *)
  let by_class = Hashtbl.create 8 in
  let add_class name dt =
    let n, s = Option.value (Hashtbl.find_opt by_class name) ~default:(0, 0.) in
    Hashtbl.replace by_class name (n + 1, s +. dt)
  in
  let mirror_s = ref 0. and roundtrip_s = ref 0. and traced_requests = ref 0 in
  (* Feed one request to the mirror service, doing what the daemon does for
     it; returns its cache path and the seconds spent.  [record] adds the
     load and translate timings to the layer figures. *)
  let mirror_call ~record svc ~id (item : item) engine =
    let before = (Service.stats svc).Service.st_disk_hits in
    let o, dt = timed (fun () -> Service.compile_job svc (service_job ~id item)) in
    let path =
      if not o.Service.o_cached then "miss"
      else if (Service.stats svc).st_disk_hits > before then "disk"
      else "hit"
    in
    let run_s =
      match (engine, o.o_result) with
      | Some e, Ok (c, _) ->
          let sim, load_s = timed (fun () -> Toolkit.load c) in
          let _, run_s =
            timed (fun () ->
                if e = "compiled" then begin
                  let eng, tr_s = timed (fun () -> Msl_machine.Simc.translate sim) in
                  if record then begin
                    layer.translates <- layer.translates + 1;
                    layer.translate_s <- layer.translate_s +. tr_s;
                    layer.native <- layer.native + Msl_machine.Simc.native_words eng;
                    layer.words <- layer.words + Msl_machine.Simc.words eng
                  end;
                  ignore (Msl_machine.Simc.run eng)
                end
                else ignore (Msl_machine.Sim.run sim))
          in
          if record then begin
            layer.loads <- layer.loads + 1;
            layer.load_s <- layer.load_s +. load_s
          end;
          load_s +. run_s
      | _ -> 0.
    in
    if record && engine = None then add_class ("service." ^ path) dt;
    (path, dt +. run_s)
  in
  let round ~warmup ~traced =
    let record = not warmup in
    let busy = ref 0. in
    let replay = ref [] in
    for _ = 1 to round_requests do
      let cls, item, engine = next () in
      let id = Printf.sprintf "r%d" !seq in
      let request () =
        Serve.request ~op:item.i_op ~id
          ~language:(Toolkit.language_name item.i_language)
          ~machine:item.i_machine ~source:item.i_source ~opt:item.i_opt ?engine
          ()
      in
      let exchange line =
        Serve.Client.send_line d.conn line;
        Serve.Client.recv_line d.conn
      in
      let t0 = now () in
      let response, parsed =
        if traced then begin
          Span.set_job !seq;
          Span.with_ "job" (fun () ->
              let line = Span.with_ "json" request in
              let r = Span.with_ "serve.roundtrip" (fun () -> exchange line) in
              (r, Span.with_ "json" (fun () -> Option.map Trace.parse_json r)))
        end
        else
          let r = exchange (request ()) in
          (r, Option.map Trace.parse_json r)
      in
      let dt = now () -. t0 in
      busy := !busy +. dt;
      (match (response, parsed) with
      | None, _ | _, None -> fail t "%s: connection closed" id
      | Some _, Some json -> (
          match check_response ~id ~item ~fresh:(cls = Fresh) json with
          | Some e -> fail t "%s (%s): %s" id (class_name cls) e
          | None ->
              if cls = Fresh then begin
                let j = Result.get_ok json in
                fresh_out :=
                  (!fresh_n, item.i_machine, num "words" j, num "ops" j, num "bits" j)
                  :: !fresh_out
              end));
      if record then begin
        t.attempted <- t.attempted + 1;
        if not traced then begin
          Samples.add lat (Host.scale dt);
          match engine with
          | Some e ->
              add_engine_run
                (if e = "compiled" then compiled_runs else interp_runs)
                ~cycles:item.i_cycles ~s:dt
          | None -> ()
        end
      end;
      match d.mirror with
      | None -> ()
      | Some svc ->
          if traced then begin
            let path, ms = mirror_call ~record:true svc ~id item engine in
            incr traced_requests;
            mirror_s := !mirror_s +. ms;
            roundtrip_s := !roundtrip_s +. dt;
            add_class ("serve." ^ if engine <> None then "run" else path) dt
          end
          else replay := (id, item, engine) :: !replay
    done;
    if record then
      if traced then
        add_rate traced_rate ~jobs:round_requests ~s:!busy
      else begin
        add_rate untraced ~jobs:round_requests ~s:!busy;
        timed_requests := !timed_requests + round_requests
      end;
    (* untraced rounds: bring the mirror to the daemon's cache state *)
    Option.iter
      (fun svc ->
        List.iter
          (fun (id, item, engine) ->
            ignore (mirror_call ~record:false svc ~id item engine))
          (List.rev !replay))
      d.mirror
  in
  let round ~warmup ~traced =
    let w0 = (Gc.quick_stat ()).Gc.minor_words and p0 = !Host.allocated_w in
    round ~warmup ~traced;
    if (not warmup) && not traced then
      alloc_w :=
        !alloc_w
        +. ((Gc.quick_stat ()).Gc.minor_words -. w0)
        -. (!Host.allocated_w -. p0);
    (* the fresh sources were new to every cache: check this round's
       against the library, outside the timed and counted work *)
    List.iter
      (fun (n, machine, w, o, b) ->
        let c =
          Toolkit.compile ~options:(Kernels.level 1) Toolkit.Yalll
            (Msl_machine.Machines.get machine) (fresh_source ~seed n)
        in
        if (w, o, b) <> (c.Toolkit.c_words, c.c_ops, c.c_bits) then
          fail t "fresh source %d on %s: words/ops/bits differ from the library compile"
            n machine)
      !fresh_out;
    fresh_out := []
  in
  rounds ~seconds ~trace round;
  let m : table = Hashtbl.create 64 in
  let total f a = float_of_int (Array.fold_left (fun acc i -> acc + f i) 0 a) in
  if not trace then begin
    set m "heap_peak_mb" (heap_peak_mb ());
    set_timings m ~setup_s ~lat ~interp:interp_runs ~compiled:compiled_runs;
    set m "alloc_kw_per_job" (!alloc_w /. 1000. /. float_of_int (max 1 !timed_requests));
    set m "control_words"
      (total (fun i -> i.i_words) (Array.concat [ sets.hot; sets.warm; sets.runs ]));
    set m "hand_overhead_worst_pct" (Kernels.worst_overhead sets.hand);
    set m "sim_cycles" (total (fun i -> i.i_cycles) sets.runs)
  end
  else begin
    let agg = Span.aggregate () in
    let n = !traced_requests in
    let per_class name =
      match Hashtbl.find_opt by_class name with
      | Some (k, s) -> s *. 1e6 /. float_of_int k
      | None -> 0.
    in
    List.iter
      (fun c -> set m ("serve.roundtrip_us." ^ c) (per_class ("serve." ^ c)))
      [ "hit"; "disk"; "miss"; "run" ];
    List.iter
      (fun c -> set m ("service." ^ c ^ "_us") (per_class ("service." ^ c)))
      [ "hit"; "disk"; "miss" ];
    let json_us = layer_us agg "json" ~jobs:n in
    set m "json.us_per_req" json_us;
    set m "serve.transport_us"
      (((!roundtrip_s -. !mirror_s) *. 1e6 /. float_of_int (max 1 n)) -. json_us);
    let st = Service.stats (Serve.service d.server) in
    let jobs = float_of_int st.Service.st_jobs in
    set m "service.mem_hit_pct" (pct (float_of_int (st.st_hits - st.st_disk_hits)) jobs);
    set m "service.disk_hit_pct" (pct (float_of_int st.st_disk_hits) jobs);
    set m "service.disk_stores" (float_of_int st.st_disk_stores);
    set m "serve.queue_peak" (float_of_int (Serve.stats d.server).Serve.sv_queue_peak);
    Kernels.layer_metrics m layer;
    set m "unattributed_pct" (unattributed_pct agg);
    set m "trace_overhead_pct"
      (overhead_pct ~untraced ~traced:traced_rate);
    write_trace "serve-mixed"
  end;
  (t, m)
