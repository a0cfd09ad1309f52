(* Tests for the experiments layer: runner memoization, baselines, table
   and figure structure (at test scale so each check is fast), rendering,
   and the transcribed paper data. *)

open Jade_experiments

let r = Runner.create Runner.Test

let test_run_is_memoized () =
  let s1 =
    Runner.run r ~app:Runner.Ocean ~machine:Runner.Ipsc ~nprocs:4
      ~config:Jade.Config.default ~placed:false
  in
  let s2 =
    Runner.run r ~app:Runner.Ocean ~machine:Runner.Ipsc ~nprocs:4
      ~config:Jade.Config.default ~placed:false
  in
  Alcotest.(check bool) "same physical summary" true (s1 == s2)

let test_different_config_not_shared () =
  let s1 =
    Runner.run r ~app:Runner.Ocean ~machine:Runner.Ipsc ~nprocs:4
      ~config:Jade.Config.default ~placed:false
  in
  let s2 =
    Runner.run r ~app:Runner.Ocean ~machine:Runner.Ipsc ~nprocs:4
      ~config:{ Jade.Config.default with Jade.Config.adaptive_broadcast = false }
      ~placed:false
  in
  Alcotest.(check bool) "distinct cache entries" true (not (s1 == s2))

let test_serial_vs_stripped () =
  List.iter
    (fun machine ->
      List.iter
        (fun app ->
          let serial = Runner.serial_time r ~app ~machine in
          let stripped = Runner.stripped_time r ~app ~machine in
          Alcotest.(check bool) "positive" true (serial > 0.0 && stripped > 0.0);
          Alcotest.(check bool) "same order of magnitude" true
            (serial /. stripped < 1.5 && stripped /. serial < 1.5))
        Runner.all_apps)
    [ Runner.Dash; Runner.Ipsc ]

let test_task_management_pct_bounds () =
  let pct =
    Runner.task_management_pct r ~app:Runner.Cholesky ~machine:Runner.Ipsc
      ~nprocs:4 ~level:Runner.Tp
  in
  Alcotest.(check bool)
    (Printf.sprintf "pct in (0, 100], got %.2f" pct)
    true
    (pct > 0.0 && pct <= 100.0)

let expected_rows = function
  | Runner.Water | Runner.String_ -> 2
  | Runner.Ocean | Runner.Cholesky -> 3

let test_table_structure () =
  List.iter
    (fun n ->
      let t = Tables.table r n in
      Alcotest.(check bool)
        (Printf.sprintf "table %d has rows" n)
        true
        (List.length t.Report.rows >= 2);
      List.iter
        (fun (_, vs) ->
          Alcotest.(check int)
            (Printf.sprintf "table %d row width" n)
            (List.length t.Report.columns)
            (List.length vs))
        t.Report.rows)
    (List.init 14 (fun i -> i + 1))

let test_locality_tables_have_level_rows () =
  List.iter
    (fun (n, app) ->
      let t = Tables.table r n in
      Alcotest.(check int)
        (Printf.sprintf "table %d row count" n)
        (expected_rows app)
        (List.length t.Report.rows))
    [ (2, Runner.Water); (3, Runner.String_); (4, Runner.Ocean); (5, Runner.Cholesky) ]

let test_figures_cover_range () =
  List.iter
    (fun n ->
      let t = Figures.figure r n in
      List.iter
        (fun (label, vs) ->
          List.iter
            (function
              | Some v ->
                  if n <= 5 || (n >= 12 && n <= 15) then
                    Alcotest.(check bool)
                      (Printf.sprintf "figure %d %s in [0,100]" n label)
                      true
                      (v >= 0.0 && v <= 100.0)
                  else
                    Alcotest.(check bool)
                      (Printf.sprintf "figure %d %s nonnegative" n label)
                      true (v >= 0.0)
              | None -> Alcotest.fail "missing figure value")
            vs)
        t.Report.rows)
    (List.init 20 (fun i -> i + 2))

let test_figure_out_of_range () =
  Alcotest.check_raises "figure 1 does not exist"
    (Invalid_argument "Figures.figure: the paper has figures 2-21") (fun () ->
      ignore (Figures.figure r 1));
  Alcotest.check_raises "table 15 does not exist"
    (Invalid_argument "Tables.table: the paper has tables 1-14") (fun () ->
      ignore (Tables.table r 15))

let test_paper_data_complete () =
  for n = 1 to 14 do
    match Paper_data.table n with
    | None -> Alcotest.fail (Printf.sprintf "paper table %d missing" n)
    | Some t ->
        List.iter
          (fun (_, vs) ->
            Alcotest.(check int)
              (Printf.sprintf "paper table %d row width" n)
              (List.length t.Report.columns)
              (List.length vs))
          t.Report.rows
  done;
  Alcotest.(check bool) "no table 15" true (Paper_data.table 15 = None)

let test_paper_data_spot_values () =
  (* Spot-check transcription against the paper text. *)
  match Paper_data.table 9 with
  | Some t ->
      let tp = List.assoc "Task Placement" t.Report.rows in
      Alcotest.(check (option (float 0.0))) "Ocean TP @1" (Some 77.44)
        (List.nth tp 0);
      Alcotest.(check (option (float 0.0))) "Ocean TP @32" (Some 51.87)
        (List.nth tp 6)
  | None -> Alcotest.fail "table 9 missing"

let test_render_contains_cells () =
  let t =
    {
      Report.id = "Table X";
      title = "demo";
      columns = [ "a"; "b" ];
      rows = [ ("row", [ Some 1.5; None ]) ];
      unit_label = "units";
    }
  in
  let s = Report.render t in
  let contains needle =
    let nh = String.length s and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub s i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "header" true (contains "Table X: demo (units)");
  Alcotest.(check bool) "value" true (contains "1.500");
  Alcotest.(check bool) "missing cell dash" true (contains "-")

(* [Report.fixed n] must print what [Printf]'s [%.nf] prints, byte for
   byte. Cases: random finite doubles of both signs from 1e-30 to 1e30,
   random significands at random binary exponents, the doubles nearest
   the decimal ties (k + 0.5) / 10^n, the exact binary ties (odd
   multiples of 2^-(n+1)), each with both neighbours; and, once per test,
   signed zeros, subnormals, the 10 and 1000 format thresholds, the 1e15
   fallback boundary and non-finite values. *)
let fixed_agrees n v = Report.fixed n v = Printf.sprintf "%.*f" n v

let neighbours v = [ Float.pred v; v; Float.succ v ]

let fixed_cases_gen =
  QCheck.Gen.(
    let sign = map (fun b -> if b then -1.0 else 1.0) bool in
    let decimal =
      map3 (fun s m e -> [ s *. m *. (10.0 ** float_of_int e) ])
        sign (float_range 1.0 10.0) (int_range (-30) 30)
    in
    let binary =
      map3 (fun s m e -> [ s *. Float.ldexp (float_of_int m) e ])
        sign (int_bound ((1 lsl 53) - 1)) (int_range (-120) 10)
    in
    let decimal_tie =
      map3
        (fun s k n -> neighbours (s *. (float_of_int k +. 0.5) /. (10.0 ** float_of_int n)))
        sign (int_bound 1_000_000_000) (oneofl [ 0; 2; 3 ])
    in
    let binary_tie =
      map3
        (fun s k n -> neighbours (s *. Float.ldexp (float_of_int ((2 * k) + 1)) (-(n + 1))))
        sign (int_bound 1_000_000_000) (oneofl [ 0; 2; 3 ])
    in
    oneof [ decimal; binary; decimal_tie; binary_tie ])

let fixed_prop =
  QCheck.Test.make ~name:"fixed formats like Printf %.nf" ~count:20_000
    (QCheck.make ~print:(fun vs -> String.concat " " (List.map (Printf.sprintf "%h") vs))
       fixed_cases_gen)
    (List.for_all (fun v -> List.for_all (fun n -> fixed_agrees n v) [ 0; 1; 2; 3 ]))

let test_fixed_edges () =
  let edges =
    [ 0.0; -0.0; Float.min_float; -.Float.min_float; 4.9e-324; -4.9e-324;
      Float.pred Float.min_float; 0.0005; 0.005; 0.5; 1.5; 2.5; 9.9995; 9.995;
      999.5; 1e15; -1e15; 1e300; Float.max_float; Float.infinity;
      Float.neg_infinity; Float.nan ]
    @ List.concat_map neighbours [ 10.0; -10.0; 1000.0; -1000.0; 1e15; 0.0625; 0.125 ]
  in
  List.iter
    (fun v ->
      List.iter
        (fun n ->
          Alcotest.(check string) (Printf.sprintf "%%.%df of %h" n v)
            (Printf.sprintf "%.*f" n v) (Report.fixed n v))
        [ 0; 1; 2; 3 ])
    edges;
  Alcotest.check_raises "precision 4" (Invalid_argument "Report.fixed: precision outside 0..3")
    (fun () -> ignore (Report.fixed 4 1.0))

let test_csv_export () =
  let t =
    {
      Report.id = "Table X";
      title = "demo";
      columns = [ "a"; "b" ];
      rows = [ ("row,1", [ Some 1.5; None ]); ("plain", [ Some 2.0; Some 3.0 ]) ];
      unit_label = "units";
    }
  in
  Alcotest.(check string) "csv"
    ",a,b\n\"row,1\",1.5,\nplain,2,3\n"
    (Report.to_csv t)

let test_analyses_render () =
  (* All analyses run at test scale without raising and produce rows. *)
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (t.Report.id ^ " has rows")
        true
        (List.length t.Report.rows > 0))
    (Analyses.all r)

(* Replay off means every kernel runs in every cell, the bespoke-machine
   custom cells included; with replay on, their skipped kernels are
   counted like the grid's. *)
let test_custom_cells_replay () =
  let off = Runner.create ~jobs:1 ~replay:false Runner.Test in
  ignore (Analyses.all off);
  Alcotest.(check int) "replay off: no kernel skipped" 0
    (Runner.stats off).Runner.replayed_tasks;
  let on = Runner.create ~jobs:1 Runner.Test in
  ignore (Analyses.ablation_steal_patience on);
  ignore (Analyses.portability on);
  Alcotest.(check bool) "replay on: custom cells' skipped kernels counted" true
    ((Runner.stats on).Runner.replayed_tasks > 0)

(* Crash recovery charges a re-executed producer its declared work
   whether kernels run or not, so every summary field agrees between
   replay on and off — [recovery_s] included, which the rendered digest
   omits. Processor 2 crashes at 4 and 8 processors: 60 grid cells. The
   DASH cells, where recovery re-executes producers, run after the
   message-passing cells of the same (app, processors, placement). *)
let test_crash_summaries_replay_parity () =
  let fault = Jade_net.Fault.spec ~crash_at:[ (2, 0.01) ] () in
  let summaries replay =
    let r = Runner.create ~jobs:1 ~fault ~replay Runner.Test in
    List.concat_map
      (fun machine ->
        List.concat_map
          (fun app ->
            List.concat_map
              (fun level ->
                List.map
                  (fun nprocs ->
                    ( Printf.sprintf "%s|%s|%s|p%d"
                        (Runner.machine_name machine) (Runner.app_name app)
                        (Runner.level_name level) nprocs,
                      Runner.run_level r ~app ~machine ~nprocs ~level ))
                  [ 4; 8 ])
              (Runner.levels_for app))
          Runner.all_apps)
      [ Runner.Lan; Runner.Ipsc; Runner.Dash ]
  in
  let summary =
    Alcotest.testable
      (fun ppf s ->
        Format.fprintf ppf "%a recovery_s=%.6f" Jade.Metrics.pp_summary s
          s.Jade.Metrics.recovery_s)
      ( = )
  in
  let on = summaries true and off = summaries false in
  Alcotest.(check int) "cells" 60 (List.length on);
  List.iter2
    (fun (label, s_on) (_, s_off) -> Alcotest.check summary label s_off s_on)
    on off

(* Regression: the regeneration output is a pure function of the inputs,
   whatever the worker-domain count, replay setting, or disk-cache state —
   the planning/warm/replay passes in [Runner.parallel], kernel skipping,
   and the persistent cache must all be invisible in the bytes. Hash the
   full test-size repro output (every table, figure and analysis) and
   compare digests, so any divergence anywhere in the output fails.

   Tables are collected inside [Runner.parallel] and rendered outside:
   the planning pass evaluates the closure against poisoned placeholder
   summaries, and [Report.render] asserts none of those ever reach
   output. *)
let regen_digest r =
  let tables =
    Runner.parallel r (fun () ->
        List.map (fun n -> Tables.table r n) (List.init 14 (fun i -> i + 1))
        @ List.map (fun n -> Figures.figure r n) (List.init 20 (fun i -> i + 2))
        @ Analyses.all r)
  in
  let buf = Buffer.create 4096 in
  List.iter (fun t -> Buffer.add_string buf (Report.render t)) tables;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let repro_digest ?fault ?cache_dir ?(replay = true) ~jobs () =
  let r = Runner.create ~jobs ?fault ?cache_dir ~replay Runner.Test in
  (r, regen_digest r)

let test_repro_jobs_identical () =
  Alcotest.(check string)
    "jobs=1 and jobs=4 regenerate identical bytes"
    (snd (repro_digest ~jobs:1 ()))
    (snd (repro_digest ~jobs:4 ()))

(* The simulated event stream is pinned, not only the rendered output: a
   scheduling change that keeps every table but adds, drops or reorders
   events (an extra fiber wake-up, a merged probe) fails here by name. *)
let test_regen_event_count () =
  let r = Runner.create ~jobs:1 Runner.Test in
  ignore (regen_digest r);
  Alcotest.(check int) "cold test-size regeneration, jobs 1" 971_293
    (Runner.events_simulated r)

(* Ocean and Cholesky cells at 16 and 32 processors: on DASH every
   enabled task wakes a herd of idle dispatchers; on iPSC and LAN the
   scheduler process and the fabric carry every enable and completion.
   (machine, app, level, nprocs, engine events). *)
let event_counts =
  [
    (Runner.Dash, Runner.Ocean, Runner.Loc, 16, 1_230);
    (Runner.Dash, Runner.Ocean, Runner.Loc, 32, 2_302);
    (Runner.Dash, Runner.Ocean, Runner.Tp, 16, 1_005);
    (Runner.Dash, Runner.Ocean, Runner.Tp, 32, 1_789);
    (Runner.Dash, Runner.Cholesky, Runner.Loc, 16, 1_261);
    (Runner.Dash, Runner.Cholesky, Runner.Loc, 32, 2_271);
    (Runner.Dash, Runner.Cholesky, Runner.Tp, 16, 1_323);
    (Runner.Dash, Runner.Cholesky, Runner.Tp, 32, 2_459);
    (Runner.Ipsc, Runner.Ocean, Runner.Loc, 16, 845);
    (Runner.Ipsc, Runner.Ocean, Runner.Loc, 32, 877);
    (Runner.Ipsc, Runner.Ocean, Runner.Tp, 16, 979);
    (Runner.Ipsc, Runner.Ocean, Runner.Tp, 32, 1_011);
    (Runner.Ipsc, Runner.Cholesky, Runner.Loc, 16, 837);
    (Runner.Ipsc, Runner.Cholesky, Runner.Loc, 32, 869);
    (Runner.Ipsc, Runner.Cholesky, Runner.Tp, 16, 869);
    (Runner.Ipsc, Runner.Cholesky, Runner.Tp, 32, 901);
    (Runner.Lan, Runner.Ocean, Runner.Loc, 16, 900);
    (Runner.Lan, Runner.Ocean, Runner.Loc, 32, 932);
    (Runner.Lan, Runner.Ocean, Runner.Tp, 16, 985);
    (Runner.Lan, Runner.Ocean, Runner.Tp, 32, 1_017);
    (Runner.Lan, Runner.Cholesky, Runner.Loc, 16, 886);
    (Runner.Lan, Runner.Cholesky, Runner.Loc, 32, 918);
    (Runner.Lan, Runner.Cholesky, Runner.Tp, 16, 873);
    (Runner.Lan, Runner.Cholesky, Runner.Tp, 32, 906);
  ]

let check_event_counts machines () =
  let r = Runner.create ~jobs:1 Runner.Test in
  List.iter
    (fun (machine, app, level, nprocs, events) ->
      if List.mem machine machines then
        let s = Runner.run_level r ~app ~machine ~nprocs ~level in
        let name =
          Printf.sprintf "%s/%s/%s/%dp events" (Runner.app_name app)
            (Runner.machine_name machine) (Runner.level_name level) nprocs
        in
        Alcotest.(check int) name events s.Jade.Metrics.event_count)
    event_counts

(* The waits that skip the far lane, pinned on one iPSC chaos cell: the
   main-release polls taken in place and the retransmit timers that fired
   or were dropped as dead are each part of the run's events, which stay
   what they were before either elision. *)
let test_chaos_cell_elisions () =
  let fault =
    Jade_net.Fault.spec ~seed:3 ~drop_rate:0.2 ~dup_rate:0.1 ~jitter:1e-4 ()
  in
  let r = Runner.create ~jobs:1 ~fault Runner.Test in
  let s, o =
    Runner.run_observed r ~app:Runner.Water ~machine:Runner.Ipsc ~nprocs:16
      ~config:(Runner.config_of_level Runner.Loc) ~placed:false
  in
  let module M = Jade.Metrics in
  Alcotest.(check (list int))
    "events, main polls, in place, timers fired, timers dropped"
    [ 2_210; 252; 71; 91; 103 ]
    [ s.M.event_count; o.M.main_polls; o.M.ticks_in_place; o.M.timers_fired;
      o.M.timers_dropped ];
  Alcotest.(check int) "retransmits" 64 s.M.retransmit_count

(* Every result of the cold test-size regeneration, every summary field
   included (floats as [%h], so no rounding hides a change), one line per
   cached record, sorted: the tables print only some of the fields. *)
let result_line = function
  | Runcache.Flops f -> Printf.sprintf "flops %h" f
  | Runcache.Summary
      {
        tasks;
        elapsed_s;
        locality_pct;
        task_time_s;
        compute_time_s;
        comm_time_s;
        comm_mbytes;
        comm_to_comp;
        msg_count;
        fetches;
        object_latency_s;
        task_latency_s;
        latency_ratio;
        broadcast_count;
        eager_count;
        steal_count;
        event_count;
        retransmit_count;
        ack_count;
        give_up_count;
        dropped_count;
        duplicated_count;
        crash_injected_count;
        crash_detected_count;
        reexecuted_count;
        reconstructed_count;
        recovery_s;
      } ->
      Printf.sprintf
        "%d %h %h %h %h %h %h %h %d %d %h %h %h %d %d %d %d %d %d %d %d %d %d \
         %d %d %d %h"
        tasks elapsed_s locality_pct task_time_s compute_time_s comm_time_s
        comm_mbytes comm_to_comp msg_count fetches object_latency_s
        task_latency_s latency_ratio broadcast_count eager_count steal_count
        event_count retransmit_count ack_count give_up_count dropped_count
        duplicated_count crash_injected_count crash_detected_count
        reexecuted_count reconstructed_count recovery_s

let chaos_fault = Jade_net.Fault.spec ~seed:1 ~drop_rate:0.2 ()

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* [f dir] on a fresh temporary directory, removed with everything in it
   when [f] returns or raises. *)
let with_temp_dir prefix f =
  let dir = Filename.temp_dir prefix "" in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* Parity suite (clean and chaos): replay on vs off, then cold vs warm
   disk cache, must all produce byte-identical output. *)
let parity_digests ?fault dir =
  let reference = snd (repro_digest ?fault ~replay:false ~jobs:2 ()) in
  let replay_on = snd (repro_digest ?fault ~replay:true ~jobs:2 ()) in
  let cache_cold, cold_runner =
    let r, d = repro_digest ?fault ~cache_dir:dir ~jobs:2 () in
    (d, r)
  in
  let warm_runner, cache_warm = repro_digest ?fault ~cache_dir:dir ~jobs:2 () in
  (reference, replay_on, cache_cold, cache_warm, cold_runner, warm_runner)

let check_parity name ?fault () =
  with_temp_dir "jade-test-cache" @@ fun dir ->
  let reference, replay_on, cache_cold, cache_warm, cold_r, warm_r =
    parity_digests ?fault dir
  in
  Alcotest.(check string) (name ^ ": replay off vs on") reference replay_on;
  Alcotest.(check string) (name ^ ": cold disk cache") reference cache_cold;
  Alcotest.(check string) (name ^ ": warm disk cache") reference cache_warm;
  (* The cold run simulated and skipped kernels; the warm run answered
     everything from disk without simulating an event. *)
  Alcotest.(check bool)
    (name ^ ": cold run skipped kernel bodies")
    true
    ((Runner.stats cold_r).Runner.replayed_tasks > 0);
  Alcotest.(check int) (name ^ ": warm run simulates nothing") 0
    (Runner.events_simulated warm_r);
  let warm_stats = Runner.stats warm_r in
  Alcotest.(check bool)
    (name ^ ": warm run hit on every lookup")
    true
    (warm_stats.Runner.cache_lookups > 0
    && warm_stats.Runner.cache_hits = warm_stats.Runner.cache_lookups)

let test_parity_clean () = check_parity "clean" ()

let test_parity_chaos () = check_parity "chaos" ~fault:chaos_fault ()

(* Equal fault specs built differently — one with a separately boxed
   0.0 jitter — are one computation: a second runner hits every lookup
   the first one stored, and simulates nothing. *)
let test_equal_specs_share_cache () =
  with_temp_dir "jade-test-cache" @@ fun dir ->
  let boxed = Jade_net.Fault.spec ~seed:1 ~drop_rate:0.2 ~jitter:(float_of_string "0") () in
  Alcotest.(check bool) "the specs are equal" true (boxed = chaos_fault);
  let _, cold = repro_digest ~fault:chaos_fault ~cache_dir:dir ~jobs:1 () in
  let r, warm = repro_digest ~fault:boxed ~cache_dir:dir ~jobs:1 () in
  Alcotest.(check string) "same output" cold warm;
  let s = Runner.stats r in
  Alcotest.(check int) "every lookup hits" s.Runner.cache_lookups s.Runner.cache_hits;
  Alcotest.(check int) "nothing simulated" 0 (Runner.events_simulated r)

(* A planning pass that finds everything in the memo or on disk is the
   evaluation: [Runner.parallel] runs [f] once. A missing result costs a
   second run of [f] (the replay), and a planning pass that asks twice
   for the same missing id looks it up on disk once. *)
let test_warm_parallel_one_pass () =
  with_temp_dir "jade-test-cache" @@ fun dir ->
  let evaluate r =
    let calls = ref 0 in
    let v =
      Runner.parallel r (fun () ->
          incr calls;
          let cell () = Runner.run_custom r ~key:"one-pass" (fun () -> 1.5) in
          cell () +. cell ())
    in
    let s = Runner.stats r in
    (v, !calls, (s.Runner.cache_lookups, s.Runner.cache_hits))
  in
  let cold = Runner.create ~jobs:1 ~cache_dir:dir Runner.Test in
  Alcotest.(check (triple (float 0.0) int (pair int int)))
    "cold: planned and replayed, one lookup for the id asked twice"
    (3.0, 2, (1, 0)) (evaluate cold);
  Alcotest.(check (triple (float 0.0) int (pair int int)))
    "warm memo: evaluated once, no new lookup" (3.0, 1, (1, 0)) (evaluate cold);
  Alcotest.(check (triple (float 0.0) int (pair int int)))
    "warm disk: evaluated once, one lookup that hits" (3.0, 1, (1, 1))
    (evaluate (Runner.create ~jobs:1 ~cache_dir:dir Runner.Test))

(* [(text written to stderr by f (), its result)]. *)
let capturing_stderr f =
  let file = Filename.temp_file "jade-test" ".err" in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stderr in
  flush stderr;
  Unix.dup2 fd Unix.stderr;
  let result =
    Fun.protect f ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved;
        Unix.close fd)
  in
  let text = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  (text, result)

let warnings text =
  List.filter
    (String.starts_with ~prefix:"runcache: warning:")
    (String.split_on_char '\n' text)

let dropping reason file =
  Printf.sprintf "runcache: warning: dropping %s records of %s (recomputing)"
    reason file

(* The one warning for the [n] segments of [dir] whose header was
   rejected for [reason]. *)
let dropping_in reason dir n =
  Printf.sprintf
    "runcache: warning: dropping %s records in %s (%d segment%s, recomputing)"
    reason dir n
    (if n = 1 then "" else "s")

let segment_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".jrp")
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

let read_bytes file = In_channel.with_open_bin file In_channel.input_all

let write_bytes file bytes =
  Out_channel.with_open_bin file (fun oc -> output_string oc bytes)

(* The offsets just past a segment's header line and past each record. *)
let record_ends raw =
  let rec go pos =
    if pos >= String.length raw then []
    else
      let next = pos + 20 + Int32.to_int (String.get_int32_be raw (pos + 16)) in
      next :: go next
  in
  let header = String.index raw '\n' + 1 in
  header :: go header

let test_regen_summaries () =
  with_temp_dir "jade-test-cache" @@ fun dir ->
  let r = Runner.create ~jobs:1 ~cache_dir:dir Runner.Test in
  ignore (regen_digest r);
  let lines =
    List.concat_map
      (fun file ->
        let raw = read_bytes file in
        let rec go = function
          | start :: (_ :: _ as rest) ->
              (* A record: MD5, length, key length, key, marshalled value. *)
              let key_len = Int32.to_int (String.get_int32_be raw (start + 20)) in
              result_line (Marshal.from_string raw (start + 24 + key_len)) :: go rest
          | _ -> []
        in
        go (record_ends raw))
      (segment_files dir)
    |> List.sort String.compare
  in
  Alcotest.(check int) "one record per result" 274 (List.length lines);
  Alcotest.(check string) "every field of every summary"
    "f5145f5d15a17715f1ab59ed2b350820"
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

let flip raw i =
  String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) raw

(* [raw], a segment, with its header's build identity replaced by
   another build's. *)
let restamp raw =
  let at = String.length (Printf.sprintf "jade-runcache %d " Runcache.schema_version)
  and id = Runcache.build_id in
  Alcotest.(check string) "the header names this build" id
    (String.sub raw at (String.length id));
  String.sub raw 0 at ^ String.make (String.length id) '0'
  ^ String.sub raw (at + String.length id) (String.length raw - at - String.length id)

(* Each kind of damage to a compacted segment gives one named warning,
   misses exactly the records it cost, recomputes them into identical
   output, and leaves a cache whose next run is clean and one segment.
   Damaged records are named by segment, a rejected header by
   directory. *)
let test_cache_corruption_recovers () =
  with_temp_dir "jade-test-cache" @@ fun dir ->
  let _, reference = repro_digest ~cache_dir:dir ~jobs:1 () in
  ignore (repro_digest ~cache_dir:dir ~jobs:1 ());
  let segment =
    match segment_files dir with
    | [ s ] -> s
    | l -> Alcotest.failf "expected one compacted segment, found %d" (List.length l)
  in
  let raw = read_bytes segment in
  let ends = record_ends raw in
  let n = List.length ends - 1 in
  let half = List.nth ends (n / 2) in
  let version = Printf.sprintf "jade-runcache %d" Runcache.schema_version in
  let stale =
    Printf.sprintf "jade-runcache %d" (Runcache.schema_version - 1)
    ^ String.sub raw (String.length version) (String.length raw - String.length version)
  in
  List.iter
    (fun (name, bytes, warning, lost) ->
      List.iter Sys.remove (segment_files dir);
      write_bytes segment bytes;
      let err, (r, digest) =
        capturing_stderr (fun () -> repro_digest ~cache_dir:dir ~jobs:1 ())
      in
      Alcotest.(check string) (name ^ ": output identical") reference digest;
      Alcotest.(check (list string)) (name ^ ": one named warning")
        [ warning ] (warnings err);
      let s = Runner.stats r in
      Alcotest.(check int) (name ^ ": lookups") n s.Runner.cache_lookups;
      Alcotest.(check int) (name ^ ": misses only what it lost") (n - lost)
        s.Runner.cache_hits;
      let err, (r, digest) =
        capturing_stderr (fun () -> repro_digest ~cache_dir:dir ~jobs:1 ())
      in
      Alcotest.(check string) (name ^ ": next run identical") reference digest;
      Alcotest.(check (list string)) (name ^ ": next run clean") [] (warnings err);
      Alcotest.(check int) (name ^ ": next run hits all") n
        (Runner.stats r).Runner.cache_hits;
      Alcotest.(check (list string)) (name ^ ": one segment left") [ segment ]
        (segment_files dir))
    [
      ( "cut mid-record",
        String.sub raw 0 (half + 30),
        dropping "truncated" segment,
        n - (n / 2) );
      ( "cut at a record boundary",
        String.sub raw 0 half,
        dropping "truncated" segment,
        n - (n / 2) );
      ( "payload byte flipped",
        flip raw (String.length raw - 3),
        dropping "corrupted" segment,
        1 );
      ("stale header", stale, dropping_in "schema-stale" dir 1, n);
      ("another build's header", restamp raw, dropping_in "other-build" dir 1, n);
    ]

(* An edit under lib/ changes the build identity, and every segment the
   old build wrote is rejected the same way: three such segments give one
   warning for the directory, and every key they held is recomputed. *)
let test_other_build_warns_once () =
  with_temp_dir "jade-test-cache" @@ fun dir ->
  let keys = [ "a"; "b"; "c" ] in
  let evaluate () =
    let r = Runner.create ~jobs:1 ~cache_dir:dir Runner.Test in
    let computed = ref 0 in
    List.iter
      (fun key ->
        ignore
          (Runner.run_custom r ~key (fun () ->
               incr computed;
               1.0)))
      keys;
    (!computed, (Runner.stats r).Runner.cache_hits)
  in
  Alcotest.(check (pair int int)) "cold: every key computed" (3, 0) (evaluate ());
  let segments = segment_files dir in
  Alcotest.(check int) "one segment per key" 3 (List.length segments);
  List.iter (fun file -> write_bytes file (restamp (read_bytes file))) segments;
  let err, got = capturing_stderr evaluate in
  Alcotest.(check (list string)) "one warning for the directory"
    [ dropping_in "other-build" dir 3 ] (warnings err);
  Alcotest.(check (pair int int)) "every key recomputed" (3, 0) got;
  Alcotest.(check (pair int int)) "then every key hits" (0, 3) (evaluate ())

(* Unit tests of the segment format. *)
let test_runcache_roundtrip () =
  with_temp_dir "jade-test-runcache" @@ fun dir ->
  let c = Runcache.create ~dir in
  let key = "a/b" in
  Alcotest.(check bool) "fresh cache misses" true (Runcache.find c ~key = None);
  Runcache.store c [ (key, Runcache.Flops 42.0) ];
  List.iter
    (fun (name, c) ->
      match Runcache.find c ~key with
      | Some (Runcache.Flops f) -> Alcotest.(check (float 0.0)) name 42.0 f
      | _ -> Alcotest.fail "expected the stored Flops value")
    [ ("roundtrip", c); ("roundtrip through disk", Runcache.create ~dir) ];
  let entries, bytes = Runcache.dir_stats c in
  Alcotest.(check int) "one entry" 1 entries;
  Alcotest.(check bool) "entry has bytes" true (bytes > 0);
  Runcache.write_last_run c ~lookups:10 ~hits:7;
  Alcotest.(check (option (pair int int)))
    "last-run stats roundtrip" (Some (10, 7))
    (Runcache.read_last_run c);
  Alcotest.(check int) "clear removes the segment" 1 (Runcache.clear c);
  Alcotest.(check bool) "clear removes the stats" true
    (Runcache.read_last_run c = None);
  Alcotest.(check bool) "a cleared cache misses" true (Runcache.find c ~key = None);
  (* A record length-prefixes its key, so a key cannot run into the value
     after it: keys that prefix one another stay apart on disk. *)
  let prefixes = [ ("", 1.0); ("a", 2.0); ("a/", 3.0) ] in
  Runcache.store c (List.map (fun (key, f) -> (key, Runcache.Flops f)) prefixes);
  Alcotest.(check bool) "keys cannot alias across the key-value boundary" true
    (let d = Runcache.create ~dir in
     List.for_all (fun (key, f) -> Runcache.find d ~key = Some (Runcache.Flops f)) prefixes)

(* A segment built by hand: a header naming the build [build] (by
   default this one) and announcing [count] records (by default as many
   as given), then each [(key, payload)] as a record whose MD5 matches,
   its key length [key_len] (by default the key's). *)
let segment_bytes ?(build = Runcache.build_id) ?count ?key_len records =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "jade-runcache %d %s %d\n" Runcache.schema_version build
    (Option.value count ~default:(List.length records));
  List.iter
    (fun (key, payload) ->
      let len = Bytes.create 4 in
      Bytes.set_int32_be len 0
        (Int32.of_int (Option.value key_len ~default:(String.length key)));
      let body = Bytes.to_string len ^ key ^ payload in
      Buffer.add_string buf (Digest.string body);
      Buffer.add_int32_be buf (Int32.of_int (String.length body));
      Buffer.add_string buf body)
    records;
  Buffer.contents buf

let foreign_key = "foreign"

(* Decoder robustness: a segment of arbitrary bytes — bare, behind a
   segment header, or a record's payload behind a matching MD5 — or a
   record holding a well-formed marshalled value of another type misses
   with one warning and is compacted away; [find] never raises, and
   never hands back a value of the wrong shape (matching on one can
   crash the program). [Some warnings] once the segment is gone. *)
let find_misses dir bytes =
  let file = Filename.concat dir "foreign.jrp" in
  write_bytes file bytes;
  match
    capturing_stderr (fun () -> Runcache.find (Runcache.create ~dir) ~key:foreign_key)
  with
  | err, None when not (Sys.file_exists file) -> Some (warnings err)
  | _, None -> None
  | _, Some _ -> QCheck.Test.fail_reportf "decoded foreign bytes %S" bytes
  | exception e ->
      QCheck.Test.fail_reportf "find raised %s on %S" (Printexc.to_string e) bytes

(* Marshalled values whose shape matches no [Runcache.value]: a record
   of the summary's arity but all ints, float arrays, strings, tuples. *)
let foreign_marshalled =
  let m v = Marshal.to_string v [] in
  QCheck.Gen.(
    oneof
      [
        map m string;
        map m int;
        map m float;
        map m (list small_int);
        map (fun (i, f) -> m (i, f)) (pair int float);
        map (fun n -> m (Some (Array.make n 0))) (int_bound 40);
        map (fun n -> m (Some (Array.make n 0.5))) (int_bound 40);
        map (fun s -> m (Ok s : (string, float) result)) string;
      ])

let runcache_find_total_prop =
  QCheck.Test.make ~name:"find misses on foreign entry bytes" ~count:300
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(oneof [ string; foreign_marshalled ]))
    (fun payload ->
      with_temp_dir "jade-test-runcache" @@ fun dir ->
      List.for_all
        (fun bytes ->
          match find_misses dir bytes with
          | Some [ _ ] -> true
          | Some w -> QCheck.Test.fail_reportf "%d warnings" (List.length w)
          | None -> QCheck.Test.fail_reportf "damaged segment kept: %S" bytes)
        (payload
        :: (segment_bytes ~count:1 [] ^ payload)
        :: segment_bytes [ (foreign_key, payload) ]
        :: (if payload = "" then [] else [ segment_bytes [] ^ payload ])))

let test_runcache_named_failures () =
  with_temp_dir "jade-test-runcache" @@ fun dir ->
  let file = Filename.concat dir "foreign.jrp" in
  List.iter
    (fun (name, payload) ->
      Alcotest.(check (option (list string))) name
        (Some [ dropping "undecodable" file ])
        (find_misses dir (segment_bytes [ (foreign_key, payload) ])))
    [
      ("garbage payload", "not a marshalled value");
      ("empty payload", "");
      ("marshalled string", Marshal.to_string "a string" []);
      ( "valid value with trailing bytes",
        Marshal.to_string (Runcache.Flops 1.0) [] ^ "x" );
    ];
  List.iter
    (fun (name, key_len) ->
      Alcotest.(check (option (list string))) name
        (Some [ dropping "undecodable" file ])
        (find_misses dir
           (segment_bytes ~key_len
              [ (foreign_key, Marshal.to_string (Runcache.Flops 1.0) []) ])))
    [ ("key length past the body", 1000); ("negative key length", -1) ];
  Alcotest.(check (option (list string))) "stale header"
    (Some [ dropping_in "schema-stale" dir 1 ])
    (find_misses dir "jade-runcache 7 1\n");
  (* Another build's segment is never decoded: its intact record of a
     well-formed value is not returned. *)
  Alcotest.(check (option (list string))) "another build's segment"
    (Some [ dropping_in "other-build" dir 1 ])
    (find_misses dir
       (segment_bytes ~build:(String.make 32 'f')
          [ (foreign_key, Marshal.to_string (Runcache.Flops 1.0) []) ]));
  Alcotest.(check (option (list string))) "cut at a record boundary"
    (Some [ dropping "truncated" file ])
    (find_misses dir
       (segment_bytes ~count:2 [ ("x", Marshal.to_string (Runcache.Flops 1.0) []) ]))

(* Random record sets round-trip through a segment; after any cut or
   byte flip every lookup gives back the stored value or misses — never
   a value that was not stored — and never raises. *)
let value_gen =
  let base = Jade.Metrics.summary (Jade.Metrics.create ()) in
  QCheck.Gen.(
    oneof
      [
        map (fun f -> Runcache.Flops f) float;
        map
          (fun (tasks, elapsed_s) ->
            Runcache.Summary { base with Jade.Metrics.tasks; elapsed_s })
          (pair small_nat float);
      ])

let runcache_segment_prop =
  QCheck.Test.make ~name:"segments round-trip; damage never yields unstored values"
    ~count:200
    (QCheck.make
       QCheck.Gen.(triple (list_size (int_range 1 6) value_gen) bool nat))
    (fun (values, cut, at) ->
      with_temp_dir "jade-test-runcache" @@ fun dir ->
      let records =
        List.mapi (fun i v -> (string_of_int i, v)) values
      in
      Runcache.store (Runcache.create ~dir) records;
      let finds () =
        let c = Runcache.create ~dir in
        List.map (fun (key, _) -> Runcache.find c ~key) records
        @ [ Runcache.find c ~key:foreign_key ]
      in
      let stored = List.map (fun (_, v) -> Some v) records @ [ None ] in
      let intact = compare (finds ()) stored = 0 in
      let file = List.hd (segment_files dir) in
      let raw = read_bytes file in
      let at = at mod String.length raw in
      write_bytes file (if cut then String.sub raw 0 at else flip raw at);
      let _, damaged = capturing_stderr finds in
      intact
      && List.for_all2
           (fun got want -> got = None || compare got want = 0)
           damaged stored)

(* A cut that falls exactly between records loses the records after it
   with a named warning: the header's count catches it. *)
let test_runcache_boundary_cut () =
  with_temp_dir "jade-test-runcache" @@ fun dir ->
  (* In key order, as a segment holds them. *)
  let records =
    List.init 4 (fun i -> (string_of_int i, Runcache.Flops (float_of_int i)))
  in
  Runcache.store (Runcache.create ~dir) records;
  let file = List.hd (segment_files dir) in
  let raw = read_bytes file in
  write_bytes file (String.sub raw 0 (List.nth (record_ends raw) 2));
  let err, found =
    capturing_stderr (fun () ->
        let c = Runcache.create ~dir in
        List.map (fun (key, _) -> Runcache.find c ~key <> None) records)
  in
  Alcotest.(check (list string)) "one named warning" [ dropping "truncated" file ]
    (warnings err);
  Alcotest.(check (list bool)) "the records before the cut survive"
    [ true; true; false; false ] found;
  Alcotest.(check (pair int int)) "compacted to one segment of two records" (2, 1)
    (let u = Runcache.usage (Runcache.create ~dir) in
     (u.Runcache.entries, u.Runcache.segments))

(* A compaction deletes only the segments its cache listed: one written
   after the listing (by a concurrent run) survives it. *)
let test_runcache_compaction_keeps_new_segments () =
  with_temp_dir "jade-test-runcache" @@ fun dir ->
  let record i = (string_of_int i, Runcache.Flops (float_of_int i)) in
  let writer = Runcache.create ~dir in
  Runcache.store writer [ record 0 ];
  Runcache.store writer [ record 1 ];
  let loader = Runcache.create ~dir in
  Runcache.store (Runcache.create ~dir) [ record 2 ];
  Alcotest.(check int) "three segments" 3 (List.length (segment_files dir));
  Alcotest.(check bool) "the loader reads what it listed" true
    (Runcache.find loader ~key:(fst (record 0)) <> None);
  Alcotest.(check int) "compacted segment plus the late one" 2
    (List.length (segment_files dir));
  let c = Runcache.create ~dir in
  Alcotest.(check (list bool)) "every record is still on disk" [ true; true; true ]
    (List.map (fun i -> Runcache.find c ~key:(fst (record i)) <> None) [ 0; 1; 2 ])

(* After a cold and a compacting warm run, a third warm runner reads the
   one segment on disk and writes nothing. *)
let test_third_warm_reads_one_file () =
  with_temp_dir "jade-test-cache" @@ fun dir ->
  let _, reference = repro_digest ~cache_dir:dir ~jobs:1 () in
  ignore (repro_digest ~cache_dir:dir ~jobs:1 ());
  let before = segment_files dir in
  let inode f = (Unix.stat f).Unix.st_ino in
  let err, (r, digest) = capturing_stderr (fun () -> repro_digest ~cache_dir:dir ~jobs:1 ()) in
  Alcotest.(check string) "identical output" reference digest;
  Alcotest.(check (list string)) "no warnings" [] (warnings err);
  Alcotest.(check int) "one segment before" 1 (List.length before);
  Alcotest.(check (list string)) "the same segment after" before (segment_files dir);
  Alcotest.(check (list int)) "not rewritten" (List.map inode before)
    (List.map inode (segment_files dir));
  let s = Runner.stats r in
  Alcotest.(check bool) "every lookup hits" true
    (s.Runner.cache_lookups > 0 && s.Runner.cache_hits = s.Runner.cache_lookups)

(* A cache directory deleted under a running regeneration costs only the
   caching: each failed segment write warns, naming the path, and the
   output is the reference. *)
let test_cache_dir_removed_mid_run () =
  with_temp_dir "jade-test-cache" @@ fun dir ->
  let r = Runner.create ~jobs:1 ~cache_dir:dir Runner.Test in
  Unix.rmdir dir;
  let err, digest = capturing_stderr (fun () -> regen_digest r) in
  Alcotest.(check string) "output is the reference" (snd (repro_digest ~jobs:1 ())) digest;
  let w = warnings err in
  Alcotest.(check bool) "failed writes warn, naming the directory" true
    (w <> []
    && List.for_all
         (String.starts_with
            ~prefix:("runcache: warning: cannot write segment " ^ dir))
         w)

(* [clear] removes every file the cache leaves — segments, a killed
   writer's temp file, schema-7 entries — so the directory empties, and
   [usage] counts each kind. *)
let test_runcache_clear_all_kinds () =
  with_temp_dir "jade-test-runcache" @@ fun dir ->
  let c = Runcache.create ~dir in
  Runcache.store c
    [ ("a", Runcache.Flops 1.0); ("b", Runcache.Flops 2.0) ];
  write_bytes (Filename.concat dir ".0123abcd.4242.tmp") "a killed writer's";
  write_bytes (Filename.concat dir "0123abcd.jrc") "jade-runcache 7\n";
  Runcache.write_last_run c ~lookups:2 ~hits:0;
  let u = Runcache.usage c in
  Alcotest.(check (list int)) "segments, entries, legacy files" [ 1; 2; 1 ]
    [ u.Runcache.segments; u.Runcache.entries; u.Runcache.legacy ];
  Alcotest.(check int) "segment, temp and legacy file removed" 3 (Runcache.clear c);
  Alcotest.(check (array string)) "the directory is empty" [||] (Sys.readdir dir)

(* Rendering a planning-pass placeholder is a bug; the poison assertion
   must trip instead of letting fabricated numbers into output. *)
let test_poison_render_raises () =
  let r2 = Runner.create ~jobs:1 Runner.Test in
  let tripped = ref false in
  (try
     ignore
       (Runner.parallel r2 (fun () -> Report.render (Tables.table r2 2)))
   with Assert_failure _ -> tripped := true);
  Alcotest.(check bool) "poison assertion tripped" true !tripped

(* The CLI rejects table and figure numbers outside the paper's ranges,
   out-of-range flag values, unsupported flag combinations and removed
   flags with a cmdliner usage error (exit 124) naming the range or the
   flag. Arguments pass verbatim: [run] takes no [--jobs], so appending
   one would let a case pass on an unrelated unknown-option error. *)
let repro_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/repro.exe"

let run_repro args =
  let out = Filename.temp_file "repro" ".out" in
  let err = Filename.temp_file "repro" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote repro_exe) args
         (Filename.quote out) (Filename.quote err))
  in
  let read file =
    let text = In_channel.with_open_bin file In_channel.input_all in
    Sys.remove file;
    text
  in
  let out = read out in
  (code, out, read err)

let contains hay needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Task and object names are memoised per process; each app's graph dump
   (every task and object by name) stays the bytes it was when every
   name was a fresh [Printf.sprintf]. *)
let test_graph_dump_digests () =
  List.iter
    (fun (app, md5) ->
      let code, out, err =
        run_repro
          (Printf.sprintf "graph dump --app %s --machine ipsc -p 8 --size test" app)
      in
      Alcotest.(check (pair int string)) (app ^ " exit") (0, "") (code, err);
      Alcotest.(check string) (app ^ " dump md5") md5 Digest.(to_hex (string out)))
    [
      ("water", "d49e07f20bab0d8bff66ee4edd3dd856");
      ("string", "ee19d084e71ee84695bb7599f16fc42e");
      ("ocean", "1b28bb735b714daf7789a8796cda6828");
      ("cholesky", "f822e8987806e8df2304cdf0f3c4dabc");
    ]

(* The message path's trajectories: each machine's [repro digest] (every
   app and level at 1-8 processors) clean, with processor 2 crashing,
   and, on the two fabrics, under a drop/dup/jitter plan. CI compares
   digests only across --jobs counts; these pin their bytes. *)
let test_digest_pins () =
  let chaos = "--fault-seed 1 --drop-rate 0.2 --dup-rate 0.1 --jitter 0.0001" in
  List.iter
    (fun (machine, flags, md5) ->
      let args =
        Printf.sprintf "digest --machine %s --size test --jobs 1 %s" machine flags
      in
      let code, out, _ = run_repro args in
      Alcotest.(check int) (args ^ ": exit") 0 code;
      Alcotest.(check string) (args ^ ": md5") md5 Digest.(to_hex (string out)))
    [
      ("dash", "", "41f1f19283fb3065b88b6801914d03a6");
      ("dash", "--crash-at 2@0.01", "6066a526d3f66c6bd0567a904ed2d9d2");
      ("ipsc", "", "d2116c436e4ccdb180ba673310ba6985");
      ("ipsc", "--crash-at 2@0.01", "3702ad1fcdfe128f9bf0bd036ee64e4b");
      ("ipsc", chaos, "1ed7dee129f61c34071d4b3cbef8f72a");
      ("lan", "", "5d20f73118b71ae16fe417802e5a5dc3");
      ("lan", "--crash-at 2@0.01", "a1ab544c4481cf409745275e1c918706");
      ("lan", chaos, "acab48f08b4fe5219be98dce7df416a7");
    ]

(* One test case per misuse, so a regression names the flag it broke. *)
let cli_misuse_cases =
  let run_app = "run --app water --size test" in
  let dash_app = "run --app water --machine dash -p 4 --size test" in
  [
      ("table 99 --size test", "expected 1-14");
      ("table 0 --size test", "expected 1-14");
      ("table x --size test", "expected 1-14");
      ("figure 1 --size test", "expected 2-21");
      ("figure 22 --size test", "expected 2-21");
      (run_app ^ " --procs 0", "--procs");
      (run_app ^ " --target-tasks 0", "--target-tasks");
      (run_app ^ " --drop-rate 1.5", "--drop-rate");
      (run_app ^ " --crash-rate 2", "--crash-rate");
      (run_app ^ " --crash-at 2@-1", "--crash-at");
      (run_app ^ " --crash-at 1@inf", "--crash-at");
      (run_app ^ " --jitter inf", "--jitter");
      (run_app ^ " --jitter 1e308", "--jitter");
      (run_app ^ " --jitter 2", "--jitter");
      (run_app ^ " --jitter 1e9", "--jitter");
      (run_app ^ " --crash-restart inf --crash-at 2@0.01", "--crash-restart");
      ("table 1 --size test --jobs 0", "--jobs");
      ("table 1 --size test --jobs=-2", "--jobs");
      ("table 1 --size test --jobs 129", "--jobs");
      (dash_app ^ " --drop-rate 0.5", "--drop-rate");
      (dash_app ^ " --dup-rate 0.1", "--dup-rate");
      (dash_app ^ " --jitter 1e-4", "--jitter");
      ("digest --machine dash --size test --drop-rate 0.1", "--drop-rate");
      ("all --size test --graph-opt cluster --replay off", "--graph-opt");
      (run_app ^ " --graph-opt cluster", "--graph-opt");
      ("graph transform --app water --size test", "transform");
      (run_app ^ " --engine seq", "--engine");
      (run_app ^ " --domains 2", "--domains");
      (run_app ^ " --oracle", "--oracle");
  ]

let check_rejected args ~want ~named =
  let code, _, err = run_repro args in
  Alcotest.(check int) (args ^ ": exit") want code;
  Alcotest.(check bool) (args ^ ": names " ^ named) true (contains err named);
  Alcotest.(check bool) (args ^ ": no uncaught exception") false
    (contains err "exception")

let test_cli_rejects (args, named) () = check_rejected args ~want:124 ~named

(* Failures a well-formed command can meet at run time exit 1 with one
   line naming the cause: a crash of the root processor, a fault plan
   that drops every message or so many that a fetch gives up, an
   unwritable trace path or cache directory. *)
let named_error_cases =
  let run_app = "run --app water --size test" in
  [
    (run_app ^ " --crash-at 0@0.01", "repro: Unrecoverable");
    ("all --size test --crash-at 0@0.01", "repro: Unrecoverable");
    ("digest --size test --crash-at 0@0.01", "repro: Unrecoverable");
    (run_app ^ " --drop-rate 1", "repro: Jade runtime: deadlock");
    ( "run --app water --machine ipsc -p 4 --size test --drop-rate 0.5",
      "repro: Jade runtime: deadlock" );
    ( run_app ^ " --trace /nonexistent/dir/x.json",
      "repro: /nonexistent/dir/x.json" );
    ("regen --size test --cache-dir /proc/nope", "repro: mkdir /proc/nope");
    ("cache clear --cache-dir /proc/nope", "repro: mkdir /proc/nope");
  ]

let test_named_error (args, named) () = check_rejected args ~want:1 ~named

(* [repro factor] on bad input. A bad [--panel-width] is a usage error
   naming the flag; a matrix the factorization cannot take exits 1 with a
   one-line error naming the file. Each case writes its fixture matrix to
   a temporary file: (label, matrix, extra arguments, exit code, what
   stderr names — [None] for the file). *)
let factor_cases =
  let header = "%%MatrixMarket matrix coordinate real " in
  let spd = header ^ "symmetric\n2 2 3\n1 1 4.0\n2 1 1.0\n2 2 3.0\n" in
  [
    ("--panel-width 0", spd, "--panel-width 0", 124, Some "--panel-width");
    ("--panel-width=-3", spd, "--panel-width=-3", 124, Some "--panel-width");
    ("malformed matrix", header ^ "symmetric\n2 2 1\n1 1 x\n", "", 1, None);
    ( "non-symmetric matrix",
      header ^ "general\n2 2 2\n1 1 1.0\n1 2 1.0\n", "", 1, None );
    ( "indefinite matrix",
      header ^ "symmetric\n2 2 3\n1 1 1.0\n2 1 2.0\n2 2 1.0\n", "", 1, None );
  ]

let test_factor_rejects (_, matrix, extra, want, named) () =
  let path = Filename.temp_file "repro-factor" ".mtx" in
  Out_channel.with_open_bin path (fun oc -> output_string oc matrix);
  let args = Printf.sprintf "factor --matrix %s %s" (Filename.quote path) extra in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      check_rejected args ~want ~named:(Option.value named ~default:path))

(* Every subcommand's help renders without a markup error on stderr. *)
let test_help_clean () =
  List.iter
    (fun sub ->
      let args = sub ^ " --help=plain" in
      let code, out, err = run_repro args in
      Alcotest.(check int) (args ^ ": exit") 0 code;
      Alcotest.(check string) (args ^ ": stderr") "" err;
      if sub = "run" then
        Alcotest.(check bool) "run help shows the --crash-at example" true
          (contains out "--crash-at 2@0.01"))
    [ "table"; "figure"; "analyses"; "all"; "regen"; "cache"; "run"; "digest";
      "graph"; "factor" ]

(* A scripted crash naming a processor some cells lack warns once per
   processor count, not once per cell: the test-size digest runs ten
   cells at each of 1 and 2 processors. *)
let test_crash_warning_once () =
  let code, _, err = run_repro "digest --machine ipsc --size test --crash-at 2@0.01" in
  Alcotest.(check int) "exit" 0 code;
  Alcotest.(check (list string)) "one warning per processor count"
    (List.map
       (Printf.sprintf
          "warning: --crash-at 2@0.01 dropped: processor 2 out of range for \
           %d-processor machine")
       [ 1; 2 ])
    (List.sort String.compare
       (List.filter (String.starts_with ~prefix:"warning:") (String.split_on_char '\n' err)))

let test_cli_in_range_runs () =
  let code, _, _ = run_repro "table 1 --size test --jobs 1" in
  Alcotest.(check int) "table 1 still runs" 0 code;
  let code, _, _ =
    run_repro "run --app water --size test --crash-at 1@100 --jitter 1"
  in
  Alcotest.(check int) "the largest jitter under a crash plan still runs" 0
    code;
  let code, _, _ =
    run_repro
      "run --app water --machine dash -p 4 --size test --fault-seed 1 \
       --crash-at 2@0.01"
  in
  Alcotest.(check int) "a crash plan and a bare fault seed run on DASH" 0 code

(* [repro run] takes the memoized path plainly and the observed path with
   --trace or --stats; all three print the same summary. *)
let test_run_observed_paths () =
  let run_app = "run --app water --size test" in
  let summary args =
    let code, out, _ = run_repro args in
    Alcotest.(check int) (args ^ ": exit") 0 code;
    List.filter
      (fun l -> contains l "processors" || contains l "elapsed=")
      (String.split_on_char '\n' out)
  in
  let plain = summary run_app in
  Alcotest.(check int) "header and summary lines" 2 (List.length plain);
  let trace = Filename.temp_file "repro" ".json" in
  Alcotest.(check (list string)) "--trace prints the same summary" plain
    (summary (run_app ^ " --trace " ^ Filename.quote trace));
  Alcotest.(check bool) "trace file holds task events" true
    (contains (In_channel.with_open_bin trace In_channel.input_all) "\"ph\"");
  Sys.remove trace;
  Alcotest.(check (list string)) "--stats prints the same summary" plain
    (summary (run_app ^ " --stats"))

let () =
  Alcotest.run "experiments"
    [
      ( "runner",
        [
          Alcotest.test_case "memoized" `Quick test_run_is_memoized;
          Alcotest.test_case "config keys cache" `Quick
            test_different_config_not_shared;
          Alcotest.test_case "serial vs stripped" `Quick test_serial_vs_stripped;
          Alcotest.test_case "mgmt pct bounds" `Quick
            test_task_management_pct_bounds;
        ] );
      ( "tables",
        [
          Alcotest.test_case "structure" `Quick test_table_structure;
          Alcotest.test_case "level rows" `Quick test_locality_tables_have_level_rows;
        ] );
      ( "figures",
        [
          Alcotest.test_case "ranges" `Quick test_figures_cover_range;
          Alcotest.test_case "out of range" `Quick test_figure_out_of_range;
        ] );
      ( "cli",
        List.map
          (fun ((args, _) as case) ->
            Alcotest.test_case ("rejects " ^ args) `Quick (test_cli_rejects case))
          cli_misuse_cases
        @ List.map
            (fun ((args, _) as case) ->
              Alcotest.test_case ("named error " ^ args) `Quick
                (test_named_error case))
            named_error_cases
        @ List.map
            (fun ((label, _, _, _, _) as case) ->
              Alcotest.test_case ("factor rejects " ^ label) `Quick
                (test_factor_rejects case))
            factor_cases
        @ [
            Alcotest.test_case "help renders cleanly" `Quick test_help_clean;
            Alcotest.test_case "in-range table runs" `Quick test_cli_in_range_runs;
            Alcotest.test_case "crash-at warning once per machine size" `Quick
              test_crash_warning_once;
            Alcotest.test_case "run: trace and stats paths" `Quick
              test_run_observed_paths;
          ] );
      ( "paper data",
        [
          Alcotest.test_case "complete" `Quick test_paper_data_complete;
          Alcotest.test_case "spot values" `Quick test_paper_data_spot_values;
        ] );
      ( "report",
        [
          Alcotest.test_case "render" `Quick test_render_contains_cells;
          QCheck_alcotest.to_alcotest fixed_prop;
          Alcotest.test_case "fixed at edges" `Quick test_fixed_edges;
          Alcotest.test_case "csv export" `Quick test_csv_export;
          Alcotest.test_case "analyses render" `Quick test_analyses_render;
          Alcotest.test_case "custom cells follow --replay" `Quick
            test_custom_cells_replay;
          Alcotest.test_case "crash summaries equal with replay on and off"
            `Quick test_crash_summaries_replay_parity;
        ] );
      ( "regression",
        [
          Alcotest.test_case "jobs-count independence" `Quick
            test_repro_jobs_identical;
          Alcotest.test_case "regeneration event count" `Quick
            test_regen_event_count;
          Alcotest.test_case "DASH event counts at 16 and 32 processors"
            `Quick (check_event_counts [ Runner.Dash ]);
          Alcotest.test_case "iPSC and LAN event counts at 16 and 32 processors"
            `Quick (check_event_counts [ Runner.Ipsc; Runner.Lan ]);
          Alcotest.test_case "iPSC chaos cell: polls in place, timers dropped"
            `Quick test_chaos_cell_elisions;
          Alcotest.test_case "graph dumps keep every name" `Quick
            test_graph_dump_digests;
          Alcotest.test_case "digests of every machine, clean, crash, chaos"
            `Quick test_digest_pins;
          Alcotest.test_case "every summary of the regeneration" `Quick
            test_regen_summaries;
        ] );
      ( "replay and cache parity",
        [
          Alcotest.test_case "clean" `Quick test_parity_clean;
          Alcotest.test_case "chaos" `Quick test_parity_chaos;
          Alcotest.test_case "equal fault specs share the cache" `Quick
            test_equal_specs_share_cache;
          Alcotest.test_case "corruption recovery" `Quick
            test_cache_corruption_recovers;
          Alcotest.test_case "another build's segments warn once" `Quick
            test_other_build_warns_once;
          Alcotest.test_case "runcache entry format" `Quick
            test_runcache_roundtrip;
          Alcotest.test_case "runcache named decode failures" `Quick
            test_runcache_named_failures;
          QCheck_alcotest.to_alcotest runcache_find_total_prop;
          QCheck_alcotest.to_alcotest runcache_segment_prop;
          Alcotest.test_case "runcache cut at a record boundary" `Quick
            test_runcache_boundary_cut;
          Alcotest.test_case "compaction keeps a later segment" `Quick
            test_runcache_compaction_keeps_new_segments;
          Alcotest.test_case "third warm runner reads one file" `Quick
            test_third_warm_reads_one_file;
          Alcotest.test_case "cache directory removed mid-run" `Quick
            test_cache_dir_removed_mid_run;
          Alcotest.test_case "runcache clear empties the directory" `Quick
            test_runcache_clear_all_kinds;
          Alcotest.test_case "poisoned render trips" `Quick
            test_poison_render_raises;
          Alcotest.test_case "warm parallel runs f once" `Quick
            test_warm_parallel_one_pass;
        ] );
    ]
