(* Bench-owned spans on the monotonic clock.

   A span is a layer boundary the benchmark crosses from outside: its
   name, start and end, the minor-heap words allocated while it was open,
   its parent span, and the id of the job it belongs to.  Spans are kept
   in memory while a traced round runs and written out as JSON lines at
   the end.  A layer's self time (and self allocation) is its span minus
   the part its children cover; every span here is opened and closed on
   one thread, so children never overlap. *)

module Clock = Msl_util.Clock

type t = {
  name : string;
  id : int;
  parent : int;  (** -1 for a job's root span *)
  job : int;
  t0 : float;
  w0 : float;
  mutable t1 : float;
  mutable w1 : float;
}

let spans : t list ref = ref []
let count = ref 0
let stack : t list ref = ref []
let job = ref 0

let set_job j = job := j

let parent_id () = match !stack with s :: _ -> s.id | [] -> -1

(* A point on both clocks: monotonic seconds and allocated words. *)
type mark = { m_t : float; m_w : float }

let mark () = { m_t = Clock.now_s (); m_w = Gc.minor_words () }

let make name (a : mark) =
  let s =
    {
      name;
      id = !count;
      parent = parent_id ();
      job = !job;
      t0 = a.m_t;
      w0 = a.m_w;
      t1 = a.m_t;
      w1 = a.m_w;
    }
  in
  incr count;
  spans := s :: !spans;
  s

(* A span between two marks already taken, as a child of the open span:
   the pipeline's observe/capture hooks report boundaries after the
   fact. *)
let record name (a : mark) (b : mark) =
  let s = make name a in
  s.t1 <- b.m_t;
  s.w1 <- b.m_w

let with_ name f =
  let s = make name (mark ()) in
  stack := s :: !stack;
  let finish () =
    let b = mark () in
    s.t1 <- b.m_t;
    s.w1 <- b.m_w;
    stack := List.tl !stack
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* Per span name: total and self seconds, total and self words, count. *)
type agg = {
  mutable a_total : float;
  mutable a_total_w : float;
  mutable a_self : float;
  mutable a_self_w : float;
  mutable a_n : int;
}

let empty () = { a_total = 0.; a_total_w = 0.; a_self = 0.; a_self_w = 0.; a_n = 0 }

let aggregate () =
  let all = Array.of_list (List.rev !spans) in
  let child_t = Array.make (Array.length all) 0.
  and child_w = Array.make (Array.length all) 0. in
  Array.iter
    (fun s ->
      if s.parent >= 0 then begin
        child_t.(s.parent) <- child_t.(s.parent) +. (s.t1 -. s.t0);
        child_w.(s.parent) <- child_w.(s.parent) +. (s.w1 -. s.w0)
      end)
    all;
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun i s ->
      let a =
        match Hashtbl.find_opt tbl s.name with
        | Some a -> a
        | None ->
            let a = empty () in
            Hashtbl.add tbl s.name a;
            a
      in
      a.a_total <- a.a_total +. (s.t1 -. s.t0);
      a.a_total_w <- a.a_total_w +. (s.w1 -. s.w0);
      a.a_self <- a.a_self +. (s.t1 -. s.t0 -. child_t.(i));
      a.a_self_w <- a.a_self_w +. (s.w1 -. s.w0 -. child_w.(i));
      a.a_n <- a.a_n + 1)
    all;
  tbl

let find tbl name =
  match Hashtbl.find_opt tbl name with
  | Some a -> a
  | None -> empty ()

(* Write every span as one JSON object per line, times in microseconds
   from the first span. *)
let write path =
  let all = List.rev !spans in
  let origin = match all with s :: _ -> s.t0 | [] -> 0. in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\":%S,\"id\":%d,\"parent\":%d,\"job\":%d,\"start_us\":%.3f,\"end_us\":%.3f,\"alloc_w\":%.0f}\n"
        s.name s.id s.parent s.job
        ((s.t0 -. origin) *. 1e6)
        ((s.t1 -. origin) *. 1e6)
        (s.w1 -. s.w0))
    all;
  close_out oc
