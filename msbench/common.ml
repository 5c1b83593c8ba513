(* Shared plumbing: timing, order statistics, failure accounting, the
   exact-count self-check and the metric table a workload returns. *)

module Clock = Msl_util.Clock

let now = Clock.now_s

(* Where the benchmark writes (traces, the daemon's socket and disk
   cache): a directory of the checkout it runs in. *)
let work_dir = ".msbench"

let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Write back everything dirty, deleted files included, and wait. *)
let settle_disk () = ignore (Sys.command "sync")

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* -- order statistics ------------------------------------------------------- *)

(* Nearest-rank percentile of an unsorted sample, [p] in [0, 100]. *)
let percentile (xs : float array) p =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* A growable sample of floats (job latencies), kept outside the OCaml
   heap so that heap_peak_mb measures the program, not how many samples
   a run happened to collect. *)
module Samples = struct
  open Bigarray

  type t = { mutable a : (float, float64_elt, c_layout) Array1.t; mutable n : int }

  let create () = { a = Array1.create float64 c_layout 4096; n = 0 }

  let add s x =
    if s.n = Array1.dim s.a then begin
      let a = Array1.create float64 c_layout (2 * s.n) in
      Array1.blit s.a (Array1.sub a 0 s.n);
      s.a <- a
    end;
    s.a.{s.n} <- x;
    s.n <- s.n + 1

  let to_array s = Array.init s.n (fun i -> s.a.{i})
end

(* -- windowed figures ---------------------------------------------------------- *)

(* On a shared host, stalls come in bursts (a neighbour's memory or disk
   traffic), so end-to-end timings are computed over
   consecutive windows of jobs and the median over windows is reported:
   a burst moves the few windows it hits, not the figure.  A latency
   window holds 1000 jobs by default, so its p99 has ten jobs beyond
   it. *)
let window = 1000

(* Consecutive full chunks of [k] elements; all of [a] when it is shorter. *)
let chunks k a =
  let n = Array.length a / k in
  if n = 0 then [ a ] else List.init n (fun i -> Array.sub a (i * k) k)

let sum a = Array.fold_left ( +. ) 0. a

(* (jobs per busy reference second, p50 ms, p99 ms), each the median
   over latency windows of [window] jobs. *)
let latency_figures ~window lat =
  let ws = chunks window lat in
  let med f = median (List.map f ws) in
  ( med (fun w -> float_of_int (Array.length w) /. sum w),
    med (fun w -> percentile w 50. *. 1e3),
    med (fun w -> percentile w 99. *. 1e3) )

(* One engine's runs in the untraced rounds: simulated cycles and
   reference seconds per run (Host). *)
type engine_runs = { mutable e_cycles : int; mutable e_seconds : float }

let engine_runs () = { e_cycles = 0; e_seconds = 0. }

let add_engine_run r ~cycles ~s =
  r.e_cycles <- r.e_cycles + cycles;
  r.e_seconds <- r.e_seconds +. Host.scale s

(* Simulated Mcycles per reference second over all the engine's runs.
   Host drift is taken out run by run (Host), so pooling every run is
   steadier than a median over windows. *)
let engine_mcycles_per_s r = float_of_int r.e_cycles /. r.e_seconds /. 1e6

(* The end-to-end timings every workload reports.  Read heap_peak_mb
   first: the latency windows are built on the OCaml heap. *)
let set_timings ?(window = window) (m : (string, float) Hashtbl.t) ~setup_s ~lat
    ~interp ~compiled =
  let jobs_per_s, p50, p99 = latency_figures ~window (Samples.to_array lat) in
  List.iter
    (fun (k, v) -> Hashtbl.replace m k v)
    [
      ("setup_s", setup_s);
      ("jobs_per_s", jobs_per_s);
      ("job_p50_ms", p50);
      ("job_p99_ms", p99);
      ("sim_interp_mcycles_per_s", engine_mcycles_per_s interp);
      ("sim_compiled_mcycles_per_s", engine_mcycles_per_s compiled);
    ]

(* Jobs per second of busy time, pooled over rounds: the tracing overhead
   compares traced with untraced rounds of one run. *)
type rate = { mutable r_jobs : int; mutable r_s : float }

let rate () = { r_jobs = 0; r_s = 0. }

let add_rate r ~jobs ~s =
  r.r_jobs <- r.r_jobs + jobs;
  r.r_s <- r.r_s +. s

let per_s r = float_of_int r.r_jobs /. r.r_s

(* How much slower traced rounds ran than untraced ones, in percent. *)
let overhead_pct ~untraced ~traced = 100. *. ((per_s untraced /. per_s traced) -. 1.)

(* -- failures and exact counts ---------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  exact : (string, float) Hashtbl.t;
}

let tally () = { attempted = 0; failed = 0; exact = Hashtbl.create 16 }

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      t.failed <- t.failed + 1;
      if t.failed <= 20 then prerr_endline ("msbench: FAIL " ^ msg))
    fmt

(* A count that must repeat exactly in every round of a run: the first
   round fixes it, and any later round that differs fails the run. *)
let exact t name v =
  match Hashtbl.find_opt t.exact name with
  | None -> Hashtbl.add t.exact name v
  | Some v0 ->
      if v <> v0 then fail t "exact count %s changed: %.17g then %.17g" name v0 v

(* -- metric tables ------------------------------------------------------------ *)

(* name -> value; units and directions live in [Metrics]. *)
type table = (string, float) Hashtbl.t

let set (m : table) name v = Hashtbl.replace m name v

let heap_peak_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.

(* Seconds spent in [f], with its result. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* The set-up is repeated and its median reported, so that one slow
   repetition does not set the figure: at least five times, and until
   a second has been spent on it (a set-up of a few milliseconds is
   otherwise at the mercy of one cache miss).  Each repetition is read in
   reference seconds (Host).  The last repetition's state is the one the
   workload measures. *)
let repeated_setup ?(dispose = fun _ -> ()) f =
  let rec go k spent times last =
    if k >= 5 && (spent >= 1. || k >= 200) then (Option.get last, median times)
    else begin
      Option.iter dispose last;
      Host.refresh ();
      let v, dt = timed f in
      go (k + 1) (spent +. dt) (Host.scale dt :: times) (Some v)
    end
  in
  go 0 0. [] None

(* Run [round ~traced] until [seconds] have elapsed, after one discarded
   warm-up round.  Traced runs alternate untraced and traced rounds, so
   the tracing overhead is measured under the same host conditions. *)
let rounds ~seconds ~trace round =
  round ~warmup:true ~traced:false;
  let t0 = now () in
  let i = ref 0 in
  while !i < 2 || now () -. t0 < seconds do
    round ~warmup:false ~traced:(trace && !i mod 2 = 1);
    incr i
  done

(* A seeded Fisher-Yates shuffle. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let pct num den = if den = 0. then 0. else 100. *. num /. den

(* Traced rounds only: per-layer figures from the recorded spans.  [us]
   is a layer's self time per job, [kw] its self allocation per job. *)
let layer_us agg name ~jobs = (Span.find agg name).Span.a_self *. 1e6 /. float_of_int (max 1 jobs)

let layer_kw agg name ~jobs =
  (Span.find agg name).Span.a_self_w /. 1000. /. float_of_int (max 1 jobs)

(* Share of the job root spans' time no layer span covers. *)
let unattributed_pct agg =
  let root = Span.find agg "job" in
  pct root.Span.a_self root.Span.a_total

let write_trace workload =
  ensure_dir work_dir;
  Span.write (Filename.concat work_dir ("trace-" ^ workload ^ ".jsonl"))
