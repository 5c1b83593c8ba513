(* The pass manager: the middle-end as data.

   A pass is a named, self-describing MIR transform with an enable
   predicate; a pipeline is a list of them.  The runner owns the
   cross-cutting concerns every pass would otherwise reimplement:
   per-pass timing on the monotonic clock (surfaced as `mslc
   --time-passes` and as `--trace` spans) and an observation hook that sees the program after
   each pass (surfaced as `mslc --dump-after`).  Keeping the pass list a
   value is what lets Pipeline.compile build different middle-ends from
   `options` instead of hard-coding one sequence. *)

type pass = {
  p_name : string;
  p_descr : string;
  p_enabled : Mir.program -> bool;
  p_transform : Mir.program -> Mir.program;
}

let make ?(enabled = fun _ -> true) ~descr name transform =
  { p_name = name; p_descr = descr; p_enabled = enabled; p_transform = transform }

type timing = { t_pass : string; t_ms : float }

(* Per-pass time comes from Trace.timed, which doubles as the
   span emitter: one measurement feeds both `--time-passes` and the
   `--trace` sink (the timing code the runner used to own privately). *)
let run ?(observe = fun _ _ -> ()) passes p =
  let p, rev_timings =
    List.fold_left
      (fun (p, acc) pass ->
        (* the predicate sees the *current* program: e.g. regalloc is
           enabled by the vregs a preceding pass may have introduced *)
        if not (pass.p_enabled p) then (p, acc)
        else
          let p', ms =
            Msl_util.Trace.timed ~cat:"pass" pass.p_name (fun () ->
                pass.p_transform p)
          in
          observe pass.p_name p';
          (p', { t_pass = pass.p_name; t_ms = ms } :: acc))
      (p, []) passes
  in
  (p, List.rev rev_timings)

let names passes = List.map (fun p -> p.p_name) passes

let pp_timings ppf timings =
  List.iter
    (fun t -> Fmt.pf ppf "%-15s %8.3f ms@." t.t_pass t.t_ms)
    timings
