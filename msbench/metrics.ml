(* The metric catalogue: every name the benchmark prints, with its unit and
   direction.  BENCHMARK.json lists the same names; README.md says which
   layer metric should move which end-to-end metric on which workload. *)

type def = { name : string; unit_ : string; better : string }

let d name unit_ better = { name; unit_; better }

(* Every workload reports every end-to-end metric, each measured on that
   workload's own work (README.md, "End-to-end metrics"). *)
let end_to_end =
  [
    d "setup_s" "s" "lower";
    d "jobs_per_s" "1/s" "higher";
    d "job_p50_ms" "ms" "lower";
    d "job_p99_ms" "ms" "lower";
    d "ok_pct" "%" "higher";
    d "alloc_kw_per_job" "kw" "lower";
    d "heap_peak_mb" "MB" "lower";
    d "control_words" "count" "lower";
    d "hand_overhead_worst_pct" "%" "lower";
    d "sim_cycles" "count" "lower";
    d "sim_compiled_mcycles_per_s" "Mcycle/s" "higher";
    d "sim_interp_mcycles_per_s" "Mcycle/s" "higher";
  ]

let mir_passes =
  [ "validate"; "const-fold"; "copy-prop"; "branch-simplify"; "jump-thread";
    "dce"; "lower"; "trapsafe"; "pollpoints"; "regalloc" ]

(* The simulate-long kernels, as <kernel>-<machine>. *)
let sim_kernels =
  [ "mpy-hp3"; "mpy-h1"; "mpy-b17"; "dot-hp3"; "dot-v11"; "dot-b17";
    "mpy_poll-hp3" ]

(* A layer that a workload does not exercise reports 0. *)
let per_layer =
  [ d "frontend.us_per_job" "us" "lower";
    d "frontend.alloc_kw_per_job" "kw" "lower" ]
  @ List.map (fun p -> d ("mir." ^ p ^ ".us_per_job") "us" "lower") mir_passes
  @ [
      d "mir.select_compact.us_per_job" "us" "lower";
      d "mir.superopt_link.us_per_job" "us" "lower";
      d "mir.alloc_kw_per_job" "kw" "lower";
      d "compaction.search_nodes" "count" "lower";
      d "superopt.windows" "count" "lower";
      d "superopt.accept_pct" "%" "higher";
      d "superopt.memo_hit_pct" "%" "higher";
      d "superopt.words_saved" "count" "higher";
      d "regalloc.spilled" "count" "lower";
      d "lint.us_per_job" "us" "lower";
      d "lint.alloc_kw_per_job" "kw" "lower";
      d "tv.us_per_job" "us" "lower";
      d "tv.alloc_kw_per_job" "kw" "lower";
      d "tv.blocks" "count" "lower";
      d "tv.dynamic_pct" "%" "lower";
      d "encode.us_per_job" "us" "lower";
      d "service.us_per_job" "us" "lower";
    ]
  @ List.concat_map
      (fun k ->
        [
          d ("sim." ^ k ^ ".mcycles_per_s") "Mcycle/s" "higher";
          d ("simc." ^ k ^ ".mcycles_per_s") "Mcycle/s" "higher";
        ])
      sim_kernels
  @ [
      d "sim.interp_alloc_w_per_kcycle" "w" "lower";
      d "simc.alloc_w_per_kcycle" "w" "lower";
      d "simc.native_word_pct" "%" "higher";
      d "sim.load_us" "us" "lower";
      d "simc.translate_us" "us" "lower";
      d "serve.roundtrip_us.hit" "us" "lower";
      d "serve.roundtrip_us.disk" "us" "lower";
      d "serve.roundtrip_us.miss" "us" "lower";
      d "serve.roundtrip_us.run" "us" "lower";
      d "service.hit_us" "us" "lower";
      d "service.disk_us" "us" "lower";
      d "service.miss_us" "us" "lower";
      d "json.us_per_req" "us" "lower";
      d "serve.transport_us" "us" "lower";
      d "service.mem_hit_pct" "%" "higher";
      d "service.disk_hit_pct" "%" "higher";
      d "service.disk_stores" "count" "lower";
      d "serve.queue_peak" "count" "lower";
      d "unattributed_pct" "%" "lower";
      d "trace_overhead_pct" "%" "lower";
    ]
