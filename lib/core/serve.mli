(** The persistent compile server behind [mslc serve]: many concurrent
    clients over a Unix-domain socket, one shared {!Service} cache,
    jobs multiplexed onto a pool of worker domains.

    The protocol is JSONL — one JSON object per line in each direction
    (parsed with {!Msl_util.Trace.parse_json}; schema in DESIGN.md,
    "The serve protocol").  Requests carry an [op] of [compile],
    [lint], [run], [stats] or [shutdown]; every request is answered by
    exactly one response line carrying the request's [id].

    Flow control is pushback-style negotiated flow, not load shedding:
    nothing is ever dropped or rejected for being "too busy" — a
    request that cannot be admitted yet simply blocks its own
    connection's reader until capacity frees up, which (through the
    socket's own buffering) slows the flooding client and nobody else.
    Three bounds compose:

    - a {e global} queue bound ([queue_cap]): at most that many
      admitted jobs may be waiting for a worker across all clients;
    - a {e per-client} in-flight bound ([client_cap]): at most that
      many requests of one client may be admitted and not yet answered
      (this also bounds the per-connection response queue, so a client
      that stops reading responses stalls only itself);
    - {e round-robin} pickup: workers take the next job from the next
      client in rotation, so a client with one job waits behind at
      most one job from each sibling, never behind a flood.

    Execution reuses the service wholesale: the exception firewall,
    the retry/backoff/deadline policy, and the two-layer cache are the
    same ones [mslc batch] uses, so a crashing job fails alone and a
    result computed for one client is a cache hit for every other. *)

type config = {
  sc_socket : string;  (** path of the Unix-domain socket to listen on *)
  sc_domains : int option;  (** worker domains (default: service default) *)
  sc_queue_cap : int;  (** global bound on admitted-but-unstarted jobs *)
  sc_client_cap : int;  (** per-client bound on unanswered requests *)
  sc_capacity : int;  (** memory-cache capacity, as {!Service.create} *)
  sc_cache_dir : string option;  (** persistent cache, as {!Service.create} *)
  sc_policy : Service.policy;  (** retry/backoff/deadline per job *)
}

val default_config : socket:string -> config
(** [queue_cap 64], [client_cap 16], service defaults for the rest. *)

(** Cumulative server counters (monotone; also emitted as [serve]-category
    trace counters when tracing is enabled). *)
type serve_stats = {
  sv_conns : int;  (** connections accepted since start *)
  sv_clients : int;  (** connections currently live *)
  sv_requests : int;  (** request lines parsed *)
  sv_responses : int;  (** responses produced, one per parsed request
                           (counted when the answer is queued for its
                           connection, so the counters never trail what
                           a client has already received) *)
  sv_errors : int;  (** responses with [ok:false] *)
  sv_queue_peak : int;  (** high-water mark of the global job queue;
                            never exceeds [sc_queue_cap] *)
}

type server

val start : config -> server
(** Bind the socket (replacing a stale socket file), start the accept
    loop and the worker domains, and return immediately.  SIGPIPE is
    set to ignore — a client vanishing mid-response must surface as
    [EPIPE] on that one connection, never kill the daemon.
    @raise Unix.Unix_error when the socket cannot be bound. *)

val stop : server -> unit
(** Graceful, idempotent shutdown: stop admitting, let in-flight jobs
    finish, wake every blocked reader/writer, close every connection
    and the listening socket.  Returns once the worker domains have
    been joined; follow with {!wait} for the accept loop. *)

val wait : server -> unit
(** Block until the server has shut down (via {!stop} or a client's
    [shutdown] request). *)

val stats : server -> serve_stats
val service : server -> Service.t
(** The underlying service, e.g. for {!Service.stats} of the shared
    cache. *)

(** A minimal blocking client for the protocol — what [mslc connect]
    and the tests use.  One connection, synchronous line-in/line-out;
    pipelining is the caller's affair (send several, then receive). *)
module Client : sig
  type conn

  val connect : ?retries:int -> string -> conn
  (** Connect to a serve socket, retrying (100 ms apart, default 50
      tries) while the socket does not exist or refuses — covers the
      daemon-still-starting race in scripts and cram tests.
      @raise Unix.Unix_error once the retries are exhausted. *)

  val send_line : conn -> string -> unit
  val recv_line : conn -> string option
  (** [None] on EOF (server closed the connection). *)

  val close : conn -> unit
end

(** {1 Protocol plumbing shared with [mslc connect]} *)

val request :
  op:string ->
  id:string ->
  ?language:string ->
  ?machine:string ->
  ?source:string ->
  ?opt:int ->
  ?superopt:bool ->
  ?microops:bool ->
  ?lint:bool ->
  ?diff:bool ->
  ?validate:bool ->
  ?listing:bool ->
  ?engine:string ->
  ?fuel:int ->
  unit ->
  string
(** Build a request line; omitted optional fields are omitted from the
    JSON (the server applies its documented defaults). *)
