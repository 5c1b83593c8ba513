(* The persistent compile server behind [mslc serve].  See serve.mli
   for the flow-control model; the short version is that nothing here
   ever drops or rejects work — every bound is enforced by blocking the
   one connection that is over it (pushback-style negotiated flow), and
   fairness comes from round-robin pickup across per-client queues.

   Thread/domain split: connection I/O (accept loop, one reader and one
   writer per connection) runs on sys-threads, which cost nothing while
   blocked in a syscall; compilation runs on a pool of worker domains,
   which is where the parallelism is.  Both share one mutex/condition
   scheduler. *)

module Trace = Msl_util.Trace
module Clock = Msl_util.Clock
module Safe_queue = Msl_util.Safe_queue
module Diag = Msl_util.Diag
module Pipeline = Msl_mir.Pipeline

let request ~op ~id ?language ?machine ?source ?opt ?superopt ?microops ?lint
    ?diff ?validate ?listing ?engine ?fuel () =
  let opt_field name conv = function
    | None -> []
    | Some v -> [ (name, conv v) ]
  in
  let s v = Trace.J_str v
  and b v = Trace.J_bool v
  and i v = Trace.J_num (float_of_int v) in
  Trace.json_line
    ([ ("op", s op); ("id", s id) ]
    @ opt_field "language" s language
    @ opt_field "machine" s machine
    @ opt_field "source" s source
    @ opt_field "opt" i opt
    @ opt_field "superopt" b superopt
    @ opt_field "microops" b microops
    @ opt_field "lint" b lint
    @ opt_field "diff" b diff
    @ opt_field "validate" b validate
    @ opt_field "listing" b listing
    @ opt_field "engine" s engine
    @ opt_field "fuel" i fuel)

(* -- request parsing ------------------------------------------------------------ *)

type op_kind =
  | K_compile of string  (* the op name to echo: "compile" or "lint" *)
  | K_run of { engine : Toolkit.engine; fuel : int }

type request_parsed = {
  r_id : string;
  r_kind : op_kind;
  r_job : Service.job;
  r_listing : bool;
}

(* What one request line asks of the server. *)
type parsed =
  | P_job of request_parsed
  | P_stats of string
  | P_shutdown of string
  | P_error of string * string  (* id (or "?"), message *)

exception Bad_request of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad_request m)) fmt

let field name fields = List.assoc_opt name fields

let str_field ?default name fields =
  match field name fields with
  | Some (Trace.J_str s) -> s
  | Some _ -> fail "field %S must be a string" name
  | None -> (
      match default with
      | Some d -> d
      | None -> fail "missing required field %S" name)

let bool_field ~default name fields =
  match field name fields with
  | Some (Trace.J_bool b) -> b
  | Some _ -> fail "field %S must be a boolean" name
  | None -> default

let int_field ~default name fields =
  match field name fields with
  | Some (Trace.J_num f) when Float.is_integer f -> int_of_float f
  | Some _ -> fail "field %S must be an integer" name
  | None -> default

let id_of fields ~seq =
  match field "id" fields with
  | Some (Trace.J_str s) -> s
  | Some (Trace.J_num f) when Float.is_integer f ->
      Printf.sprintf "%.0f" f
  | Some _ -> fail "field \"id\" must be a string or integer"
  | None -> Printf.sprintf "r%d" seq

let parse_request ~seq line =
  match Trace.parse_json line with
  | Error e -> P_error ("?", "bad JSON: " ^ e)
  | Ok (Trace.J_obj fields) -> (
      try
        let id = id_of fields ~seq in
        try
          match str_field "op" fields with
          | "stats" -> P_stats id
          | "shutdown" -> P_shutdown id
          | ("compile" | "lint" | "run") as op ->
              let language =
                try Toolkit.language_of_string (str_field "language" fields)
                with Invalid_argument m -> fail "%s" m
              in
              let machine = str_field "machine" fields in
              let source = str_field "source" fields in
              let opt_level = int_field ~default:1 "opt" fields in
              if opt_level < 0 || opt_level > 2 then
                fail "field \"opt\" must be 0, 1 or 2";
              let options =
                {
                  Pipeline.default_options with
                  Pipeline.opt_level;
                  superopt = bool_field ~default:false "superopt" fields;
                }
              in
              let job =
                Service.job ~id ~options
                  ~use_microops:(bool_field ~default:false "microops" fields)
                  ~lint:(op = "lint" || bool_field ~default:false "lint" fields)
                  ~diff:(bool_field ~default:false "diff" fields)
                  ~validate:(bool_field ~default:false "validate" fields)
                  language ~machine ~source
              in
              let kind =
                if op = "run" then
                  let fuel = int_field ~default:2_000_000 "fuel" fields in
                  if fuel <= 0 then fail "fuel must be positive";
                  K_run
                    {
                      engine =
                        (try
                           Toolkit.engine_of_string
                             (str_field ~default:"compiled" "engine" fields)
                         with Invalid_argument m -> fail "%s" m);
                      fuel;
                    }
                else K_compile op
              in
              P_job
                {
                  r_id = id;
                  r_kind = kind;
                  r_job = job;
                  r_listing = bool_field ~default:false "listing" fields;
                }
          | other -> fail "unknown op %S" other
        with Bad_request m -> P_error (id, m)
      with Bad_request m -> P_error ("?", m))
  | Ok _ -> P_error ("?", "request must be a JSON object")

(* -- the scheduler -------------------------------------------------------------- *)

(* One client = one connection.  [cl_in_flight] counts requests that
   hold an admission slot: admitted and not yet written back (the slot
   is released when the response line leaves the out-queue, or when the
   work is abandoned because the client is gone).  Because every
   response — including stats and error responses — holds a slot until
   written, the out-queue can never hold more than [client_cap] lines,
   which is exactly its bound: a push onto it never blocks a worker. *)
type client = {
  cl_id : int;
  cl_pending : work Queue.t;  (* admitted jobs awaiting a worker *)
  cl_out : string Safe_queue.t;  (* response lines for the writer *)
  mutable cl_in_flight : int;
  mutable cl_gone : bool;  (* write failed: EPIPE etc. *)
  mutable cl_eof : bool;  (* reader saw EOF *)
}

and work = { w_req : request_parsed; w_client : client; w_enq : float }

type sched = {
  s_mutex : Mutex.t;
  s_nonempty : Condition.t;  (* some client has pending work *)
  s_nonfull : Condition.t;  (* an admission slot may have freed up *)
  mutable s_clients : client list;  (* round-robin rotation order *)
  mutable s_pending : int;  (* admitted jobs not yet picked up, all clients *)
  mutable s_peak : int;
  mutable s_closed : bool;
  s_queue_cap : int;
  s_client_cap : int;
}

let sched_create ~queue_cap ~client_cap =
  {
    s_mutex = Mutex.create ();
    s_nonempty = Condition.create ();
    s_nonfull = Condition.create ();
    s_clients = [];
    s_pending = 0;
    s_peak = 0;
    s_closed = false;
    s_queue_cap = queue_cap;
    s_client_cap = client_cap;
  }

let locked sched f =
  Mutex.lock sched.s_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock sched.s_mutex) f

let sched_register sched cl =
  locked sched (fun () -> sched.s_clients <- sched.s_clients @ [ cl ])

let sched_remove sched cl =
  locked sched (fun () ->
      sched.s_clients <- List.filter (fun c -> c != cl) sched.s_clients)

(* Take an admission slot for an inline request (stats, shutdown, a
   parse error): bounded by the per-client cap only — it never enters
   the job queue.  [false] when the server is closing or the client is
   gone. *)
let admit_slot sched cl =
  locked sched (fun () ->
      let rec wait () =
        if sched.s_closed || cl.cl_gone then false
        else if cl.cl_in_flight >= sched.s_client_cap then begin
          Condition.wait sched.s_nonfull sched.s_mutex;
          wait ()
        end
        else begin
          cl.cl_in_flight <- cl.cl_in_flight + 1;
          true
        end
      in
      wait ())

(* Admit one job: blocks while the global queue is at [queue_cap] or
   the client is at [client_cap] — this block, propagated through the
   connection's reader, is the backpressure.  On success the job is in
   the client's pending queue and a worker has been signalled. *)
let admit_work sched cl req =
  locked sched (fun () ->
      let rec wait () =
        if sched.s_closed || cl.cl_gone then false
        else if
          sched.s_pending >= sched.s_queue_cap
          || cl.cl_in_flight >= sched.s_client_cap
        then begin
          Condition.wait sched.s_nonfull sched.s_mutex;
          wait ()
        end
        else begin
          cl.cl_in_flight <- cl.cl_in_flight + 1;
          sched.s_pending <- sched.s_pending + 1;
          if sched.s_pending > sched.s_peak then
            sched.s_peak <- sched.s_pending;
          Queue.push
            { w_req = req; w_client = cl; w_enq = Clock.now_s () }
            cl.cl_pending;
          Condition.signal sched.s_nonempty;
          true
        end
      in
      wait ())

(* Next job, round-robin: serve the first client in rotation with
   pending work, then rotate it to the back, so a burst from one client
   interleaves with everyone else's jobs instead of running ahead of
   them.  [None] once the scheduler is closed (remaining pending work
   is abandoned — shutdown, not drain). *)
let sched_take sched =
  locked sched (fun () ->
      let rec wait () =
        if sched.s_closed then None
        else
          let rec scan acc = function
            | [] -> None
            | cl :: rest -> (
                match Queue.take_opt cl.cl_pending with
                | Some w ->
                    sched.s_clients <- List.rev_append acc rest @ [ cl ];
                    sched.s_pending <- sched.s_pending - 1;
                    Condition.broadcast sched.s_nonfull;
                    Some w
                | None -> scan (cl :: acc) rest)
          in
          match scan [] sched.s_clients with
          | Some w -> Some w
          | None ->
              Condition.wait sched.s_nonempty sched.s_mutex;
              wait ()
      in
      wait ())

(* Release one admission slot.  Returns [true] when the connection is
   fully drained after an EOF — the caller then closes the out-queue so
   the writer can finish. *)
let release sched cl =
  locked sched (fun () ->
      cl.cl_in_flight <- cl.cl_in_flight - 1;
      Condition.broadcast sched.s_nonfull;
      cl.cl_eof && cl.cl_in_flight = 0 && Queue.is_empty cl.cl_pending)

let mark_eof sched cl =
  locked sched (fun () ->
      cl.cl_eof <- true;
      cl.cl_in_flight = 0 && Queue.is_empty cl.cl_pending)

(* The client's read side died (EPIPE on write): drop its queued jobs —
   nobody is left to read the answers — and free their slots so the
   global queue bound is returned.  Jobs already inside a worker finish
   and release their own slots when their push onto the closed
   out-queue is refused. *)
let disconnect sched cl =
  locked sched (fun () ->
      cl.cl_gone <- true;
      let purged = Queue.length cl.cl_pending in
      Queue.clear cl.cl_pending;
      cl.cl_in_flight <- cl.cl_in_flight - purged;
      sched.s_pending <- sched.s_pending - purged;
      sched.s_clients <- List.filter (fun c -> c != cl) sched.s_clients;
      Condition.broadcast sched.s_nonfull)

let sched_close sched =
  locked sched (fun () ->
      sched.s_closed <- true;
      Condition.broadcast sched.s_nonempty;
      Condition.broadcast sched.s_nonfull)

(* -- the server ----------------------------------------------------------------- *)

type config = {
  sc_socket : string;
  sc_domains : int option;
  sc_queue_cap : int;
  sc_client_cap : int;
  sc_capacity : int;
  sc_cache_dir : string option;
  sc_policy : Service.policy;
}

let default_config ~socket =
  {
    sc_socket = socket;
    sc_domains = None;
    sc_queue_cap = 64;
    sc_client_cap = 16;
    sc_capacity = 4096;
    sc_cache_dir = None;
    sc_policy = Service.default_policy;
  }

type serve_stats = {
  sv_conns : int;
  sv_clients : int;
  sv_requests : int;
  sv_responses : int;
  sv_errors : int;
  sv_queue_peak : int;
}

type server = {
  cfg : config;
  service : Service.t;
  sched : sched;
  listen_fd : Unix.file_descr;
  mutable workers : unit Domain.t list;
  mutable accept_thread : Thread.t option;
  lock : Mutex.t;  (* counters + live connections + lifecycle *)
  stopped_cond : Condition.t;
  mutable stopping : bool;
  mutable stopped : bool;
  mutable live_fds : Unix.file_descr list;
  mutable next_client : int;
  mutable conns : int;
  mutable clients : int;
  mutable requests : int;
  mutable responses : int;
  mutable errors : int;
}

let srv_locked srv f =
  Mutex.lock srv.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock srv.lock) f

let note_request srv =
  srv_locked srv (fun () ->
      srv.requests <- srv.requests + 1;
      if Trace.enabled () then
        Trace.counter ~cat:"serve" "serve_requests" srv.requests)

let note_response srv ~ok =
  srv_locked srv (fun () ->
      srv.responses <- srv.responses + 1;
      if not ok then srv.errors <- srv.errors + 1;
      if Trace.enabled () then begin
        Trace.counter ~cat:"serve" "serve_responses" srv.responses;
        if not ok then Trace.counter ~cat:"serve" "serve_errors" srv.errors
      end)

let stats srv =
  srv_locked srv (fun () ->
      {
        sv_conns = srv.conns;
        sv_clients = srv.clients;
        sv_requests = srv.requests;
        sv_responses = srv.responses;
        sv_errors = srv.errors;
        sv_queue_peak = locked srv.sched (fun () -> srv.sched.s_peak);
      })

let service srv = srv.service

(* -- responses ------------------------------------------------------------------ *)

let s v = Trace.J_str v
let b v = Trace.J_bool v
let i v = Trace.J_num (float_of_int v)

let error_line id msg =
  Trace.json_line [ ("id", s id); ("ok", b false); ("error", s msg) ]

let diag_message (d : Diag.t) =
  Printf.sprintf "%s: %s" (Diag.phase_name d.Diag.phase) d.Diag.message

let stats_line srv id =
  let sv = stats srv in
  let st = Service.stats srv.service in
  Trace.json_line
    [
      ("id", s id);
      ("ok", b true);
      ("op", s "stats");
      ("requests", i sv.sv_requests);
      ("responses", i sv.sv_responses);
      ("resp_errors", i sv.sv_errors);
      ("queue_peak", i sv.sv_queue_peak);
      ("clients", i sv.sv_clients);
      ("conns", i sv.sv_conns);
      ("jobs", i st.Service.st_jobs);
      ("hits", i st.Service.st_hits);
      ("misses", i st.Service.st_misses);
      ("errors", i st.Service.st_errors);
      ("entries", i st.Service.st_entries);
    ]

(* Execute one admitted job on a worker domain: the same cached,
   firewalled, policy-governed path [mslc batch] takes. *)
let execute srv (r : request_parsed) =
  let o = Service.compile_job ~policy:srv.cfg.sc_policy srv.service r.r_job in
  match o.Service.o_result with
  | Error d -> (error_line r.r_id (diag_message d), false, o.Service.o_cached)
  | Ok (c, listing) -> (
      let base op =
        [
          ("id", s r.r_id);
          ("ok", b true);
          ("op", s op);
          ("cached", b o.Service.o_cached);
          ("words", i c.Toolkit.c_words);
          ("ops", i c.Toolkit.c_ops);
          ("bits", i c.Toolkit.c_bits);
        ]
        @ if r.r_listing then [ ("listing", s listing) ] else []
      in
      match r.r_kind with
      | K_compile op -> (Trace.json_line (base op), true, o.Service.o_cached)
      | K_run { engine; fuel } -> (
          match
            Toolkit.capture (fun () ->
                Toolkit.exec ~fuel ~engine (Toolkit.load c))
          with
          | Error d ->
              (error_line r.r_id (diag_message d), false, o.Service.o_cached)
          | Ok status ->
              let status =
                match status with
                | Msl_machine.Sim.Halted -> "halted"
                | Msl_machine.Sim.Out_of_fuel -> "out-of-fuel"
              in
              ( Trace.json_line (base "run" @ [ ("status", s status) ]),
                true,
                o.Service.o_cached )))

let worker srv () =
  let rec loop () =
    match sched_take srv.sched with
    | None -> ()
    | Some w ->
        let cl = w.w_client in
        let tracing = Trace.enabled () in
        if tracing then begin
          let queue_wait_us = Clock.elapsed_s w.w_enq *. 1e6 in
          Trace.span_begin ~cat:"serve" "job"
            ~args:
              [
                ("id", Trace.A_string w.w_req.r_id);
                ("client", Trace.A_int cl.cl_id);
                ("queue_wait_us", Trace.A_float queue_wait_us);
              ]
        end;
        let line, ok, cached = execute srv w.w_req in
        if tracing then
          Trace.span_end ~cat:"serve" "job"
            ~args:[ ("ok", Trace.A_bool ok); ("cached", Trace.A_bool cached) ];
        (* the slot travels with the line: the writer releases it after
           the line is on the wire.  A refused push means the writer is
           gone — release here instead.  The response is counted before
           the push: once pushed the line can be written and observed,
           and the counters must never trail what a client has seen. *)
        note_response srv ~ok;
        if not (Safe_queue.push cl.cl_out line) then
          if release srv.sched cl then Safe_queue.close cl.cl_out;
        loop ()
  in
  loop ()

(* -- connections ---------------------------------------------------------------- *)

let push_inline srv cl line ~ok =
  note_response srv ~ok;
  if not (Safe_queue.push cl.cl_out line) then
    if release srv.sched cl then Safe_queue.close cl.cl_out

let writer_loop srv cl oc =
  let rec loop () =
    match Safe_queue.pop cl.cl_out with
    | None -> ()
    | Some line -> (
        match
          output_string oc line;
          output_char oc '\n';
          flush oc
        with
        | () ->
            if release srv.sched cl then Safe_queue.close cl.cl_out;
            loop ()
        | exception (Sys_error _ | Unix.Unix_error _) ->
            (* reader side of the client is gone: close this connection,
               return its queued work's slots, drain what is left *)
            disconnect srv.sched cl;
            Safe_queue.close cl.cl_out;
            let rec drain () =
              match Safe_queue.pop cl.cl_out with
              | None -> ()
              | Some _ ->
                  ignore (release srv.sched cl);
                  drain ()
            in
            drain ())
  in
  loop ()

let stop srv =
  let first =
    srv_locked srv (fun () ->
        if srv.stopping then false
        else begin
          srv.stopping <- true;
          true
        end)
  in
  if first then begin
    sched_close srv.sched;
    (* wake the accept loop with a throwaway connection, then let it
       close the listening socket *)
    (try
       let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       (try Unix.connect fd (Unix.ADDR_UNIX srv.cfg.sc_socket)
        with Unix.Unix_error _ -> ());
       Unix.close fd
     with Unix.Unix_error _ -> ());
    (* half-close every live connection: readers see EOF *)
    srv_locked srv (fun () ->
        List.iter
          (fun fd ->
            try Unix.shutdown fd Unix.SHUTDOWN_ALL
            with Unix.Unix_error _ -> ())
          srv.live_fds);
    (* unblock writers of idle connections *)
    locked srv.sched (fun () -> srv.sched.s_clients)
    |> List.iter (fun cl -> Safe_queue.close cl.cl_out);
    List.iter Domain.join srv.workers;
    srv_locked srv (fun () ->
        srv.stopped <- true;
        Condition.broadcast srv.stopped_cond)
  end
  else
    (* another caller is mid-shutdown: wait for it to finish so stop
       always returns with the workers joined *)
    srv_locked srv (fun () ->
        while not srv.stopped do
          Condition.wait srv.stopped_cond srv.lock
        done)

(* Returns [true] when the client asked for a shutdown: the ack is
   queued, the reader stops, and the caller initiates the stop only
   after the writer has drained — so the ack is on the wire before
   teardown starts closing connections. *)
let reader_loop srv cl ic =
  let seq = ref 0 in
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> false
    | line when String.trim line = "" -> loop ()
    | line -> (
        incr seq;
        note_request srv;
        match parse_request ~seq:!seq line with
        | P_job req -> if admit_work srv.sched cl req then loop () else false
        | P_stats id ->
            if admit_slot srv.sched cl then begin
              push_inline srv cl (stats_line srv id) ~ok:true;
              loop ()
            end
            else false
        | P_shutdown id ->
            if admit_slot srv.sched cl then
              push_inline srv cl
                (Trace.json_line
                   [ ("id", s id); ("ok", b true); ("op", s "shutdown") ])
                ~ok:true;
            true
        | P_error (id, msg) ->
            if admit_slot srv.sched cl then begin
              push_inline srv cl (error_line id msg) ~ok:false;
              loop ()
            end
            else false)
  in
  loop ()

let handle_conn srv fd =
  let cl =
    srv_locked srv (fun () ->
        srv.next_client <- srv.next_client + 1;
        srv.conns <- srv.conns + 1;
        srv.clients <- srv.clients + 1;
        srv.live_fds <- fd :: srv.live_fds;
        {
          cl_id = srv.next_client;
          cl_pending = Queue.create ();
          cl_out = Safe_queue.create ~capacity:srv.cfg.sc_client_cap ();
          cl_in_flight = 0;
          cl_gone = false;
          cl_eof = false;
        })
  in
  sched_register srv.sched cl;
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let writer = Thread.create (fun () -> writer_loop srv cl oc) () in
  let shutdown_requested = reader_loop srv cl ic in
  if mark_eof srv.sched cl then Safe_queue.close cl.cl_out;
  Thread.join writer;
  sched_remove srv.sched cl;
  srv_locked srv (fun () ->
      srv.clients <- srv.clients - 1;
      srv.live_fds <- List.filter (fun f -> f != fd) srv.live_fds);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (* only now, with the ack written and this connection torn down, honour
     a shutdown request — stop joins the workers and closes everyone *)
  if shutdown_requested then stop srv

let accept_loop srv =
  let rec loop () =
    match Unix.accept srv.listen_fd with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
        if srv_locked srv (fun () -> srv.stopping) then (
          (try Unix.close fd with Unix.Unix_error _ -> ()))
        else begin
          ignore (Thread.create (fun () -> handle_conn srv fd) ());
          loop ()
        end
  in
  loop ();
  (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
  try Unix.unlink srv.cfg.sc_socket with Unix.Unix_error _ -> ()

let start cfg =
  if cfg.sc_queue_cap < 1 then invalid_arg "Serve.start: queue_cap must be positive";
  if cfg.sc_client_cap < 1 then
    invalid_arg "Serve.start: client_cap must be positive";
  (* a client vanishing mid-write must be an EPIPE on that connection,
     not a fatal signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let service =
    Service.create ?domains:cfg.sc_domains ~capacity:cfg.sc_capacity
      ?cache_dir:cfg.sc_cache_dir ()
  in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     (* a stale socket file from a dead daemon would make bind fail;
        connecting distinguishes stale from live *)
     (match Unix.stat cfg.sc_socket with
     | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
     | { Unix.st_kind = Unix.S_SOCK; _ } -> (
         let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         Fun.protect
           ~finally:(fun () -> try Unix.close probe with Unix.Unix_error _ -> ())
           (fun () ->
             match Unix.connect probe (Unix.ADDR_UNIX cfg.sc_socket) with
             | () ->
                 raise
                   (Unix.Unix_error (Unix.EADDRINUSE, "bind", cfg.sc_socket))
             | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
                 Unix.unlink cfg.sc_socket))
     | _ -> raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", cfg.sc_socket)));
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.sc_socket);
     Unix.listen listen_fd 64
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let sched =
    sched_create ~queue_cap:cfg.sc_queue_cap ~client_cap:cfg.sc_client_cap
  in
  let srv =
    {
      cfg;
      service;
      sched;
      listen_fd;
      workers = [];
      accept_thread = None;
      lock = Mutex.create ();
      stopped_cond = Condition.create ();
      stopping = false;
      stopped = false;
      live_fds = [];
      next_client = 0;
      conns = 0;
      clients = 0;
      requests = 0;
      responses = 0;
      errors = 0;
    }
  in
  srv.workers <-
    List.init (Service.domains service) (fun _ ->
        Domain.spawn (fun () -> worker srv ()));
  srv.accept_thread <- Some (Thread.create (fun () -> accept_loop srv) ());
  srv

let wait srv =
  (match srv.accept_thread with Some t -> Thread.join t | None -> ());
  (* stop joins the workers; if the accept loop ended without stop
     (listen socket error), make the shutdown complete either way *)
  stop srv

(* -- the client ----------------------------------------------------------------- *)

module Client = struct
  type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

  let connect ?(retries = 50) path =
    let rec go n =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () ->
          { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
      | exception
          Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when n > 0
        ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Unix.sleepf 0.1;
          go (n - 1)
      | exception e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise e
    in
    go retries

  let send_line c line =
    output_string c.oc line;
    output_char c.oc '\n';
    flush c.oc

  let recv_line c = match input_line c.ic with
    | line -> Some line
    | exception End_of_file -> None

  let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
end
