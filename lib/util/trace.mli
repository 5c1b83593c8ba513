(** Process-wide tracing and metrics.

    One global, mutex-protected facility shared by every layer of the
    toolkit: spans (begin/end pairs with {!Clock} timestamps),
    monotone counters, and instant events, written as Chrome-trace
    events in JSONL form (one JSON object per line; loadable by
    Perfetto / chrome://tracing, which accept the array format without
    its brackets).  See DESIGN.md, "The tracing and metrics layer",
    for the event schema.

    When tracing is disabled — the default — every emission function
    is a no-op behind a single branch and allocates nothing, so
    instrumentation can stay in hot paths (the simulator step loop,
    the service cache) unconditionally.  Emission is safe from any
    domain; the [tid] field records the emitting domain's id. *)

(** Argument values attached to an event (the [args] object). *)
type arg =
  | A_int of int
  | A_float of float
  | A_string of string
  | A_bool of bool

val enabled : unit -> bool
(** One atomic load: the branch every emission function takes first. *)

val enable : out_channel -> unit
(** Start writing events to the channel.  The caller keeps ownership;
    {!disable} flushes but does not close it. *)

val enable_file : string -> unit
(** [enable] on a freshly created file, owned by the tracer: closed by
    {!disable} (and by an [at_exit] safety net, so traces survive
    [exit] inside a driver).
    @raise Sys_error when the file cannot be created. *)

val disable : unit -> unit
(** Flush and stop tracing (closing the sink only if {!enable_file}
    opened it).  No-op when already disabled. *)

(** {1 Emission} *)

val span_begin : ?args:(string * arg) list -> cat:string -> string -> unit
val span_end : ?args:(string * arg) list -> cat:string -> string -> unit
(** Begin/end a span named [name] in category [cat] on the calling
    domain.  Spans nest per domain; end the most recent begin. *)

val with_span :
  ?args:(string * arg) list -> cat:string -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span; the end event is emitted even when the
    thunk raises. *)

val timed :
  ?args:(string * arg) list -> cat:string -> string -> (unit -> 'a) -> 'a * float
(** Like {!with_span} but also return the elapsed {!Clock}
    milliseconds, measured whether or not tracing is enabled (the pass
    manager's timing lists are built from this). *)

val counter : cat:string -> string -> int -> unit
(** Emit the current value of a counter.  Values of one counter name
    should be monotone non-decreasing; emit from inside the lock that
    guards the counted state so the trace preserves its order. *)

val instant : ?args:(string * arg) list -> cat:string -> string -> unit
(** A point event: something happened (a microtrap, an eviction, a
    budget exhaustion). *)

(** {1 JSON}

    The toolkit's one JSON writer and parser: trace events, the [mslc
    serve] protocol and Microlint's JSON reports all go through them. *)

(** A minimal JSON value (what trace events need, not all of JSON). *)
type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

val escape : Buffer.t -> string -> unit
(** Append a string's contents with JSON escapes for quote, backslash
    and control characters (no surrounding quotes). *)

val json_line : (string * json) list -> string
(** One JSON object with the given fields, on one line, no newline;
    integral numbers print without a fraction. *)

val parse_json : string -> (json, string) result
(** Parse one complete JSON value (rejecting trailing garbage). *)

(** {1 Reading traces back}

    The toolkit parses its own output (for [mslc stats] and the test
    suite); an independent ~30-line checker lives in [test/check_trace.ml]. *)

type event = {
  ev_seq : int;  (** global emission order, strictly increasing *)
  ev_ts : float;  (** microseconds since {!enable} *)
  ev_ph : string;  (** "B", "E", "C" or "i" *)
  ev_tid : int;  (** emitting domain id *)
  ev_cat : string;
  ev_name : string;
  ev_args : (string * json) list;
}

val read_events : string -> (event list, string) result
(** Parse a whole trace file (blank lines ignored); [Error] names the
    first offending line.  Never raises: I/O failures ([Sys_error] on
    open or mid-read) are returned as [Error] too, so a mid-write or
    truncated trace degrades to a diagnostic rather than an exception. *)
