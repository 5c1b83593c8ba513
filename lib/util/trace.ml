(* Process-wide tracing and metrics: spans, counters and instant events
   as Chrome-trace JSONL.  See trace.mli for the contract.

   The fast path is the whole design: [enabled] is one atomic load, and
   every emission function tests it before touching its arguments, so a
   disabled tracer costs one branch and zero allocation in the hot
   loops that carry the instrumentation (the simulator step loop, the
   service cache).  Everything behind the branch is serialised by one
   mutex: the sink, the sequence counter and the clock origin, so
   events from concurrent domains come out whole and in a total order
   ([ev_seq]) that tests can assert against. *)

type arg =
  | A_int of int
  | A_float of float
  | A_string of string
  | A_bool of bool

type sink = {
  oc : out_channel;
  owned : bool;  (* close on disable *)
  t0 : float;  (* clock origin, seconds *)
  mutable seq : int;
}

let mutex = Mutex.create ()

(* The flag is read without the lock (the fast path); the sink itself is
   only touched under the lock.  [enabled] can go stale for a racing
   emitter, which is harmless: emission re-checks the sink under the
   lock. *)
let flag = Atomic.make false
let state : sink option ref = ref None

let enabled () = Atomic.get flag

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let install oc owned =
  locked (fun () ->
      (match !state with
      | Some _ -> invalid_arg "Trace.enable: tracing is already enabled"
      | None -> ());
      state := Some { oc; owned; t0 = Clock.now_s (); seq = 0 };
      Atomic.set flag true)

let disable () =
  locked (fun () ->
      match !state with
      | None -> ()
      | Some s ->
          Atomic.set flag false;
          state := None;
          flush s.oc;
          if s.owned then close_out s.oc)

let enable oc = install oc false

let at_exit_registered = ref false

let enable_file path =
  let oc = open_out path in
  install oc true;
  (* drivers exit through [exit]; make sure the trace is complete *)
  if not !at_exit_registered then begin
    at_exit_registered := true;
    at_exit disable
  end

(* -- JSON emission -------------------------------------------------------- *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

let rec add_json buf = function
  | J_null -> Buffer.add_string buf "null"
  | J_bool b -> Buffer.add_string buf (string_of_bool b)
  | J_num f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.0f" f)
      else Buffer.add_string buf (Printf.sprintf "%g" f)
  | J_str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | J_arr vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          add_json buf v)
        vs;
      Buffer.add_char buf ']'
  | J_obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          add_json buf v)
        fields;
      Buffer.add_char buf '}'

let json_line fields =
  let buf = Buffer.create 128 in
  add_json buf (J_obj fields);
  Buffer.contents buf

let add_arg buf (k, v) =
  Buffer.add_char buf '"';
  escape buf k;
  Buffer.add_string buf "\":";
  match v with
  | A_int n -> Buffer.add_string buf (string_of_int n)
  | A_float f -> Buffer.add_string buf (Printf.sprintf "%.3f" f)
  | A_bool b -> Buffer.add_string buf (string_of_bool b)
  | A_string s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'

(* One event line.  Called with the lock held. *)
let emit_locked s ~ph ~cat ~name ~args =
  let ts = (Clock.now_s () -. s.t0) *. 1e6 in
  let tid = (Domain.self () :> int) in
  s.seq <- s.seq + 1;
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "{\"seq\":%d,\"ts\":%.1f," s.seq ts);
  Buffer.add_string buf
    (Printf.sprintf "\"ph\":\"%s\",\"pid\":1,\"tid\":%d,\"cat\":\"" ph tid);
  escape buf cat;
  Buffer.add_string buf "\",\"name\":\"";
  escape buf name;
  Buffer.add_char buf '"';
  if ph = "i" then Buffer.add_string buf ",\"s\":\"t\"";
  (match args with
  | [] -> ()
  | args ->
      Buffer.add_string buf ",\"args\":{";
      List.iteri
        (fun i a ->
          if i > 0 then Buffer.add_char buf ',';
          add_arg buf a)
        args;
      Buffer.add_char buf '}');
  Buffer.add_string buf "}\n";
  Buffer.output_buffer s.oc buf

let emit ~ph ~cat ~name ~args =
  locked (fun () ->
      match !state with
      | None -> ()  (* raced with disable: drop *)
      | Some s -> emit_locked s ~ph ~cat ~name ~args)

(* -- emission entry points ------------------------------------------------ *)

let span_begin ?(args = []) ~cat name =
  if Atomic.get flag then emit ~ph:"B" ~cat ~name ~args

let span_end ?(args = []) ~cat name =
  if Atomic.get flag then emit ~ph:"E" ~cat ~name ~args

let with_span ?(args = []) ~cat name f =
  if not (Atomic.get flag) then f ()
  else begin
    emit ~ph:"B" ~cat ~name ~args;
    Fun.protect ~finally:(fun () -> emit ~ph:"E" ~cat ~name ~args:[]) f
  end

let timed ?(args = []) ~cat name f =
  let tracing = Atomic.get flag in
  if tracing then emit ~ph:"B" ~cat ~name ~args;
  let t0 = Clock.now_s () in
  let finally () =
    if tracing then emit ~ph:"E" ~cat ~name ~args:[]
  in
  let v = Fun.protect ~finally f in
  (v, Clock.elapsed_s t0 *. 1000.)

let counter ~cat name v =
  if Atomic.get flag then emit ~ph:"C" ~cat ~name ~args:[ ("value", A_int v) ]

let instant ?(args = []) ~cat name =
  if Atomic.get flag then emit ~ph:"i" ~cat ~name ~args

(* -- reading traces back --------------------------------------------------- *)

exception Bad of string

(* A recursive-descent parser over the subset the sink emits (plus
   arrays and null, so foreign Chrome traces still load). *)
let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
          | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
          | Some ('"' | '\\' | '/') ->
              Buffer.add_char buf s.[!pos];
              advance ();
              go ()
          | Some 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              let code =
                match int_of_string_opt ("0x" ^ hex) with
                | Some c -> c
                | None -> fail "bad \\u escape"
              in
              (* events only escape control characters; wider code
                 points round-trip as '?' rather than UTF-8 machinery *)
              Buffer.add_char buf (if code < 128 then Char.chr code else '?');
              pos := !pos + 5;
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while (match peek () with Some c when num_char c -> true | _ -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          J_obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          J_obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          J_arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          J_arr (elements [])
        end
    | Some '"' -> J_str (parse_string ())
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" J_null
    | Some _ -> J_num (parse_number ())
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

type event = {
  ev_seq : int;
  ev_ts : float;
  ev_ph : string;
  ev_tid : int;
  ev_cat : string;
  ev_name : string;
  ev_args : (string * json) list;
}

let parse_event line =
  match parse_json line with
  | Error _ as e -> e
  | Ok (J_obj fields) -> (
      let str k =
        match List.assoc_opt k fields with
        | Some (J_str s) -> Ok s
        | _ -> Error (Printf.sprintf "missing or non-string %S" k)
      in
      let num k =
        match List.assoc_opt k fields with
        | Some (J_num f) -> Ok f
        | _ -> Error (Printf.sprintf "missing or non-numeric %S" k)
      in
      let ( let* ) = Result.bind in
      let* seq = num "seq" in
      let* ts = num "ts" in
      let* ph = str "ph" in
      let* tid = num "tid" in
      let* cat = str "cat" in
      let* name = str "name" in
      let* args =
        match List.assoc_opt "args" fields with
        | None -> Ok []
        | Some (J_obj kvs) -> Ok kvs
        | Some _ -> Error "non-object \"args\""
      in
      match ph with
      | "B" | "E" | "C" | "i" ->
          Ok
            {
              ev_seq = int_of_float seq;
              ev_ts = ts;
              ev_ph = ph;
              ev_tid = int_of_float tid;
              ev_cat = cat;
              ev_name = name;
              ev_args = args;
            }
      | other -> Error (Printf.sprintf "unknown phase %S" other))
  | Ok _ -> Error "event line is not a JSON object"

let read_events path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | exception Sys_error msg ->
            Error (Printf.sprintf "%s:%d: %s" path lineno msg)
        | "" -> go (lineno + 1) acc
        | line -> (
            match parse_event line with
            | Ok e -> go (lineno + 1) (e :: acc)
            | Error msg -> Error (Printf.sprintf "%s:%d: %s" path lineno msg))
      in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go 1 [])
