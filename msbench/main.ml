(* The benchmark's entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload (README.md) for S seconds of measurement after its
   set-up and a discarded warm-up round, checks every output, and prints
   the metrics by name and unit: a table on stderr, then one JSON object
   as the last line of stdout.  --trace 0 reports the end-to-end metrics;
   --trace 1 reports the per-layer metrics from bench-owned spans. *)

let workloads =
  [
    ("compile-gated", Compile_gated.run);
    ("simulate-long", Simulate_long.run);
    ("serve-mixed", Serve_mixed.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload compile-gated|simulate-long|serve-mixed \
     --seed N --seconds S --trace 0|1";
  exit 2

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let run =
    match List.assoc_opt (get "workload") workloads with
    | Some f -> f
    | None -> usage ()
  in
  let seed = int "seed" and seconds = float_of_int (int "seconds") in
  let trace =
    match int "trace" with 0 -> false | 1 -> true | _ -> usage ()
  in
  if seconds <= 0. then usage ();
  let t, m = run ~seed ~seconds ~trace in
  let defs = if trace then Metrics.per_layer else Metrics.end_to_end in
  let values =
    List.map
      (fun (d : Metrics.def) ->
        let v =
          match Hashtbl.find_opt m d.name with
          | Some v when Float.is_finite v -> v
          | _ when d.name = "ok_pct" || trace -> 0.
          | _ ->
              Common.fail t "metric %s was not measured" d.name;
              0.
        in
        (d, v))
      defs
  in
  let ok_pct =
    100. *. float_of_int (t.attempted - t.failed) /. float_of_int (max 1 t.attempted)
  in
  let values =
    List.map
      (fun ((d : Metrics.def), v) -> (d, if d.name = "ok_pct" then ok_pct else v))
      values
  in
  List.iter
    (fun ((d : Metrics.def), v) ->
      Printf.eprintf "%-36s %16.6g %s\n" d.name v d.unit_)
    values;
  Printf.eprintf "attempted %d, failed %d\n%!" t.attempted t.failed;
  let metrics =
    String.concat ", "
      (List.map
         (fun ((d : Metrics.def), v) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" d.name
             (json_number v) d.unit_)
         values)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (t.failed = 0) (max 1 t.attempted) t.failed metrics
