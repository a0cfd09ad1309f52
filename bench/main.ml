(* Benchmark harness: regenerates every table, figure and analysis at
   bench scale, printed next to the paper's reported numbers — the actual
   reproduction output (same as `repro all`), timed per kernel and fanned
   out across [--jobs] domains — and writes a machine-readable summary
   (per-kernel ms, events/sec, allocation per event, speedup vs --jobs 1,
   and the recovery and occupancy scenarios) to BENCH_repro.json, the
   file CI's perf-smoke checks read.

   Run with:  dune exec bench/main.exe -- [--jobs N] [--size test|bench]
                [--no-baseline]

   The main pass runs against a cold disk cache in a fresh temporary
   directory and is followed by a warm pass against the same cache,
   reported as warm_wall_s. With --jobs N > 1 a cache-free --jobs 1
   regeneration follows for the speedup and allocation figures;
   --no-baseline skips it. --size test runs the small problem sizes for
   CI smoke checks. Every-kernel (--replay off), persistent-cache and
   chaos measurements belong to `repro regen` and perfbench's
   regen_kernels and mp_chaos workloads. *)

module Rn = Jade_experiments.Runner

(* ------------------------------------------------------------------ *)
(* Regeneration pass: every kernel (table / figure / analysis) timed
   individually. [emit] controls whether rendered output is printed (the
   sequential baseline pass regenerates silently). *)

type regen_stats = {
  wall_s : float;
  kernel_ms : (string * float) list;
  events : int;
  minor_words : float;  (** main-domain minor words; meaningful at jobs=1 *)
  cache_hits : int;  (** work units answered from the disk cache *)
  replayed_tasks : int;  (** kernel bodies skipped instead of executed *)
}

let regenerate ~size ~jobs ?cache_dir ~emit () =
  let r = Rn.create ~jobs ?cache_dir size in
  let kernel_ms = ref [] in
  let timed name f =
    let t0 = Unix.gettimeofday () in
    let out = f () in
    let ms = 1e3 *. (Unix.gettimeofday () -. t0) in
    kernel_ms := (name, ms) :: !kernel_ms;
    if emit then begin
      print_string out;
      print_newline ()
    end
  in
  let minor0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun n ->
      timed (Printf.sprintf "table%02d" n) (fun () ->
          Jade_experiments.Report.render_comparison
            ~ours:(Jade_experiments.Tables.table r n)
            ~paper:(Jade_experiments.Paper_data.table n)))
    (List.init 14 (fun i -> i + 1));
  List.iter
    (fun n ->
      timed (Printf.sprintf "figure%02d" n) (fun () ->
          Jade_experiments.Report.render (Jade_experiments.Figures.figure r n)))
    (List.init 20 (fun i -> i + 2));
  List.iteri
    (fun i analysis ->
      timed (Printf.sprintf "analysis%02d" (i + 1)) (fun () ->
          Jade_experiments.Report.render (analysis r)))
    [
      (fun r -> Jade_experiments.Analyses.replication r ~app:Rn.Water);
      Jade_experiments.Analyses.broadcast_breakdown;
      Jade_experiments.Analyses.latency_hiding;
      Jade_experiments.Analyses.concurrent_fetch;
      Jade_experiments.Analyses.eager_transfer;
      Jade_experiments.Analyses.ablation_steal_patience;
      Jade_experiments.Analyses.portability;
    ];
  let st = Rn.stats r in
  {
    wall_s = Unix.gettimeofday () -. t0;
    kernel_ms = List.rev !kernel_ms;
    events = Rn.events_simulated r;
    minor_words = Gc.minor_words () -. minor0;
    cache_hits = st.Rn.cache_hits;
    replayed_tasks = st.Rn.replayed_tasks;
  }

(* One scripted single-crash run (water, iPSC, 4 processors, processor 2
   dies mid-run): exercises the whole failure-recovery path and reports
   its virtual-time cost alongside the regeneration numbers. Always runs
   at test scale — it measures the recovery machinery, not the app. *)
type recovery_stats = {
  rec_wall_ms : float;
  crashes_injected : int;
  tasks_reexecuted : int;
  objects_reconstructed : int;
  recovery_virtual_s : float;
}

let measure_recovery () =
  let fault = Jade_net.Fault.spec ~crash_at:[ (2, 0.01) ] () in
  let prog, _ =
    Jade_apps.Water.make Jade_apps.Water.test_params
      ~kind:Jade_apps.App_common.Mp ~placed:false ~nprocs:4
  in
  let t0 = Unix.gettimeofday () in
  let s =
    Jade.Runtime.run
      ~config:{ Jade.Config.default with Jade.Config.fault = Some fault }
      ~machine:Jade.Runtime.ipsc860 ~nprocs:4 prog
  in
  {
    rec_wall_ms = 1e3 *. (Unix.gettimeofday () -. t0);
    crashes_injected = s.Jade.Metrics.crash_injected_count;
    tasks_reexecuted = s.Jade.Metrics.reexecuted_count;
    objects_reconstructed = s.Jade.Metrics.reconstructed_count;
    recovery_virtual_s = s.Jade.Metrics.recovery_s;
  }

(* Occupancy scenario: one representative message-passing run (water,
   iPSC, 8 processors, test scale) reporting the cell/queue high-water
   marks — so a cell-pool or queue-growth regression shows up as a number
   in BENCH_repro.json, not just as a slower wall clock. *)
let measure_occupancy () =
  let prog, _ =
    Jade_apps.Water.make Jade_apps.Water.test_params
      ~kind:Jade_apps.App_common.Mp ~placed:false ~nprocs:8
  in
  snd
    (Jade.Runtime.run_with ~machine:Jade.Runtime.ipsc860 ~nprocs:8 prog
       ~inspect:(fun _ m -> Jade.Metrics.occupancy m))

(* Minimal JSON writer (numbers, strings, null) — keeps the bench free of
   extra dependencies. *)
let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json path ~size_name ~jobs ~(par : regen_stats)
    ~(baseline : regen_stats option) ~(warm : regen_stats)
    ~(recovery : recovery_stats)
    ~(occupancy : Jade.Metrics.occupancy) =
  let oc = open_out path in
  let opt_float = function
    | Some v -> Printf.sprintf "%.6f" v
    | None -> "null"
  in
  let eps (s : regen_stats) =
    if s.wall_s > 0.0 then float_of_int s.events /. s.wall_s else 0.0
  in
  let events_per_sec = eps par in
  (* Minor-word accounting is per-domain, so allocation per simulated
     event is only meaningful from a single-domain regeneration. *)
  let seq = if jobs = 1 then Some par else baseline in
  let minor_words_per_event =
    match seq with
    | Some s when s.events > 0 -> Some (s.minor_words /. float_of_int s.events)
    | _ -> None
  in
  (* A jobs=1 run is its own baseline; otherwise the in-process reference
     regeneration is, when it ran. *)
  let baseline_jobs1_wall =
    if jobs = 1 then Some par.wall_s
    else Option.map (fun (b : regen_stats) -> b.wall_s) baseline
  in
  let speedup =
    match baseline_jobs1_wall with
    | Some w when par.wall_s > 0.0 -> Some (w /. par.wall_s)
    | _ -> None
  in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"bench\": \"repro_regeneration\",\n";
  Printf.fprintf oc "  \"size\": \"%s\",\n" size_name;
  Printf.fprintf oc "  \"jobs\": %d,\n" jobs;
  (* Host parallelism actually available to the jobs pool: scaling
     numbers from this file are only comparable between hosts with the
     same core count. *)
  Printf.fprintf oc "  \"cores_detected\": %d,\n"
    (Domain.recommended_domain_count ());
  Printf.fprintf oc "  \"wall_s\": %.6f,\n" par.wall_s;
  Printf.fprintf oc "  \"events\": %d,\n" par.events;
  Printf.fprintf oc "  \"events_per_sec\": %.1f,\n" events_per_sec;
  Printf.fprintf oc "  \"minor_words_per_event\": %s,\n"
    (opt_float minor_words_per_event);
  (* Caching and kernel-skipping accounting: [events]/[events_per_sec]
     above count only what was actually simulated, so these make warm
     runs legible instead of looking like a mysteriously slow simulator.
     [replayed_tasks] counts the kernel bodies skipped. *)
  Printf.fprintf oc "  \"cache_hits\": %d,\n" par.cache_hits;
  Printf.fprintf oc "  \"replayed_tasks\": %d,\n" par.replayed_tasks;
  Printf.fprintf oc "  \"warm_wall_s\": %.6f,\n" warm.wall_s;
  Printf.fprintf oc "  \"baseline_jobs1_wall_s\": %s,\n"
    (opt_float baseline_jobs1_wall);
  Printf.fprintf oc "  \"speedup_vs_jobs1\": %s,\n" (opt_float speedup);
  (* One row per worker-domain count regenerated this invocation: the
     jobs=1 reference and (when jobs > 1) the jobs=N run, each with its
     own throughput and a real measured speedup ratio — so a multicore
     scaling regression shows up as a number, not a trivial 1.0. Minor
     words/event is per-domain GC accounting and only meaningful at
     jobs=1. *)
  let row ~jobs:j (s : regen_stats) ~speedup =
    let words =
      if j = 1 && s.events > 0 then
        Printf.sprintf "%.6f" (s.minor_words /. float_of_int s.events)
      else "null"
    in
    Printf.sprintf
      "    {\"jobs\": %d, \"wall_s\": %.6f, \"events\": %d, \
       \"events_per_sec\": %.1f, \"minor_words_per_event\": %s, \
       \"speedup_vs_jobs1\": %s}"
      j s.wall_s s.events (eps s) words (opt_float speedup)
  in
  let rows =
    if jobs = 1 then [ row ~jobs:1 par ~speedup:(Some 1.0) ]
    else
      match baseline with
      | Some b ->
          [
            row ~jobs:1 b ~speedup:(Some 1.0);
            row ~jobs par
              ~speedup:
                (if par.wall_s > 0.0 then Some (b.wall_s /. par.wall_s)
                 else None);
          ]
      | None -> [ row ~jobs par ~speedup ]
  in
  Printf.fprintf oc "  \"rows\": [\n%s\n  ],\n" (String.concat ",\n" rows);
  Printf.fprintf oc
    "  \"recovery\": {\"wall_ms\": %.3f, \"crashes_injected\": %d, \
     \"tasks_reexecuted\": %d, \"objects_reconstructed\": %d, \
     \"recovery_virtual_s\": %.6f},\n"
    recovery.rec_wall_ms recovery.crashes_injected recovery.tasks_reexecuted
    recovery.objects_reconstructed recovery.recovery_virtual_s;
  Printf.fprintf oc
    "  \"occupancy\": {\"scenario\": \"water/ipsc/8p/test\", \
     \"msg_cells\": %d, \"far_lane_hwm\": %d, \
     \"now_lane_capacity\": %d, \"escape_hwm\": %d},\n"
    occupancy.Jade.Metrics.msg_cells occupancy.Jade.Metrics.cal_hwm
    occupancy.Jade.Metrics.now_cap occupancy.Jade.Metrics.esc_hwm;
  Printf.fprintf oc "  \"kernels\": [\n";
  let n = List.length par.kernel_ms in
  List.iteri
    (fun i (name, ms) ->
      Printf.fprintf oc "    {\"name\": \"%s\", \"ms\": %.3f}%s\n"
        (json_escape name) ms
        (if i = n - 1 then "" else ","))
    par.kernel_ms;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let () =
  let jobs = ref (Jade_experiments.Pool.default_jobs ()) in
  let size = ref (Rn.Bench, "bench") in
  let no_baseline = ref false in
  Arg.parse
    [
      ( "--jobs",
        Arg.Int
          (fun j ->
            if j < 1 || j > Jade_experiments.Pool.max_jobs then
              raise
                (Arg.Bad
                   (Printf.sprintf "--jobs: expected an integer in [1,%d]"
                      Jade_experiments.Pool.max_jobs));
            jobs := j),
        Printf.sprintf
          "N  worker domains, at most %d (default: the recommended domain \
           count)"
          Jade_experiments.Pool.max_jobs );
      ( "--size",
        Arg.Symbol
          ( [ "test"; "bench" ],
            fun s -> size := ((if s = "test" then Rn.Test else Rn.Bench), s) ),
        "  problem scale (default: bench)" );
      ( "--no-baseline",
        Arg.Set no_baseline,
        " skip the --jobs 1 reference regeneration" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "Usage: main.exe [--jobs N] [--size test|bench] [--no-baseline]";
  let jobs = !jobs and size, size_name = !size in
  (* The main pass is cold by construction (so events/sec stays an honest
     simulator figure); the warm pass right after it measures the pure
     cache-replay wall time. *)
  let cache_dir = Filename.temp_dir "jade-bench-cache" "" in
  Printf.printf "Regenerating all tables, figures and analyses (--jobs %d)\n\n"
    jobs;
  let par = regenerate ~size ~jobs ~cache_dir ~emit:true () in
  let warm = regenerate ~size ~jobs ~cache_dir ~emit:false () in
  (* Sequential reference for the speedup (and, when jobs > 1, for the
     per-event allocation figure, which needs single-domain GC counters).
     Cache-free: a disk-warm reference would measure nothing. *)
  let baseline =
    if jobs > 1 && not !no_baseline then begin
      Printf.printf
        "Regenerating again with --jobs 1 for the speedup baseline...\n";
      Some (regenerate ~size ~jobs:1 ~emit:false ())
    end
    else None
  in
  ignore
    (Jade_experiments.Runcache.clear
       (Jade_experiments.Runcache.create ~dir:cache_dir));
  (try Unix.rmdir cache_dir with Unix.Unix_error _ -> ());
  Printf.printf "\nRegeneration: %.2f s wall, %d simulated events (%.0f events/s)\n"
    par.wall_s par.events
    (if par.wall_s > 0.0 then float_of_int par.events /. par.wall_s else 0.0);
  if par.replayed_tasks > 0 then
    Printf.printf "Kernels: %d task bodies skipped instead of executed\n"
      par.replayed_tasks;
  Printf.printf
    "Warm regeneration (disk cache): %.3f s wall, %d events simulated, %d \
     cache hits\n"
    warm.wall_s warm.events warm.cache_hits;
  (match if jobs = 1 then Some par else baseline with
  | Some s when s.events > 0 ->
      Printf.printf "Minor allocation: %.1f words per simulated event (jobs=1)\n"
        (s.minor_words /. float_of_int s.events)
  | _ -> ());
  (match baseline with
  | Some b ->
      Printf.printf "Speedup vs --jobs 1: %.2fx (%.2f s -> %.2f s)\n"
        (b.wall_s /. par.wall_s) b.wall_s par.wall_s
  | None -> ());
  let recovery = measure_recovery () in
  Printf.printf
    "Recovery scenario (1 crash, water/ipsc/4p): %.1f ms wall, %d task(s) \
     re-executed, %d object(s) reconstructed, %.6f virtual s of repair\n"
    recovery.rec_wall_ms recovery.tasks_reexecuted
    recovery.objects_reconstructed recovery.recovery_virtual_s;
  let occupancy = measure_occupancy () in
  Printf.printf "Occupancy (water/ipsc/8p, test scale): %s\n"
    (Format.asprintf "%a" Jade.Metrics.pp_occupancy occupancy);
  write_json "BENCH_repro.json" ~size_name ~jobs ~par ~baseline ~warm ~recovery
    ~occupancy;
  Printf.printf "Wrote BENCH_repro.json\n"
