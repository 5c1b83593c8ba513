(* Host speed, so that timings can be read at a fixed reference speed.

   The benchmark runs on a few cores of a shared host.  Neighbours' load
   slows the whole host by up to a factor of two for seconds at a time,
   with no steal time to show for it, and every job slows with it; a
   throughput in host seconds moves by tens of percent between runs of
   the same code.  So a fixed, bench-owned probe is timed between jobs:
   balanced-tree builds, a mix of short-lived allocation and pointer
   chasing that slows with the host almost exactly as the compiler's and
   the interpreter's work does (the compiled engine slows about two
   thirds as much).  The probe calls no code of the toolkit, so no change
   to the toolkit moves it.

   [scale] turns host seconds into reference seconds: the time the work
   would take on a host where the probe takes [reference_s], that is
   host seconds times [reference_s] over the median of the last [k]
   probe times.

   A probe allocates under half a minor heap and runs again if a minor
   collection fell inside it, so its time holds none of the toolkit's
   garbage collection; nor does it force a collection. *)

module Clock = Msl_util.Clock

(* About the probe's time between jobs on a two-vCPU Xeon virtual
   machine with quiet neighbours, so reference seconds read close to host
   seconds there. *)
let reference_s = 2e-4

(* Probe at most this often, between jobs. *)
let interval_s = 0.01

(* -- the probe's work ----------------------------------------------------------- *)

module Int_map = Map.Make (Int)

let sink = ref 0

(* Three builds of a balanced tree from 600 keys in a scattered order:
   short-lived allocation and pointer chasing, about 120 kilowords. *)
let work () =
  for r = 1 to 3 do
    let m = ref Int_map.empty in
    for i = 0 to 599 do
      m := Int_map.add (((i * 7919) + r) land 4095) i !m
    done;
    sink := Int_map.fold (fun k v acc -> acc + k + v) !m !sink
  done

(* -- probing -------------------------------------------------------------------- *)

let k = 3
let recent = Array.make k 0.
let probes = ref 0
let last = ref neg_infinity

(* Minor words the probes have allocated, for a workload whose allocation
   figure spans them. *)
let allocated_w = ref 0.

let minor_collections () = (Gc.quick_stat ()).Gc.minor_collections

(* A probe that a minor collection interrupted is run again: the minor
   heap is then empty, so the second run fits. *)
let probe () =
  let rec attempt first =
    let c0 = minor_collections () in
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_s () in
    work ();
    let t1 = Clock.now_s () in
    allocated_w := !allocated_w +. (Gc.minor_words () -. w0);
    if first && minor_collections () <> c0 then attempt false else (t0, t1)
  in
  let t0, t1 = attempt true in
  recent.(!probes mod k) <- t1 -. t0;
  incr probes;
  last := t1

(* Between jobs: probe if [interval_s] has passed since the last probe. *)
let tick () = if Clock.now_s () -. !last >= interval_s then probe ()

(* Probe [k] times now: for work that runs rarely, such as a set-up,
   whose last probes may be long past. *)
let refresh () =
  for _ = 1 to k do
    probe ()
  done

(* The median of the last [k] probe times, probing [k] times first if
   there are not that many yet. *)
let probe_s () =
  while !probes < k do
    probe ()
  done;
  let a = Array.copy recent in
  Array.sort Float.compare a;
  a.(k / 2)

(* Host seconds, just measured, as reference seconds.  Probes first if
   one is due, so the factor reflects the host as the work ran. *)
let scale host_s =
  tick ();
  host_s *. reference_s /. probe_s ()
