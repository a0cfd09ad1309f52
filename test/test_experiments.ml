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
let repro_digest ?fault ?cache_dir ?(replay = true) ~jobs () =
  let r = Runner.create ~jobs ?fault ?cache_dir ~replay Runner.Test in
  let tables =
    Runner.parallel r (fun () ->
        List.map (fun n -> Tables.table r n) (List.init 14 (fun i -> i + 1))
        @ List.map (fun n -> Figures.figure r n) (List.init 20 (fun i -> i + 2))
        @ Analyses.all r)
  in
  let buf = Buffer.create 4096 in
  List.iter (fun t -> Buffer.add_string buf (Report.render t)) tables;
  (r, Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_repro_jobs_identical () =
  Alcotest.(check string)
    "jobs=1 and jobs=4 regenerate identical bytes"
    (snd (repro_digest ~jobs:1 ()))
    (snd (repro_digest ~jobs:4 ()))

let chaos_fault = Jade_net.Fault.spec ~seed:1 ~drop_rate:0.2 ()

(* Parity suite (clean and chaos): replay on vs off, then cold vs warm
   disk cache, must all produce byte-identical output. *)
let parity_digests ?fault () =
  let reference = snd (repro_digest ?fault ~replay:false ~jobs:2 ()) in
  let replay_on = snd (repro_digest ?fault ~replay:true ~jobs:2 ()) in
  let dir = Filename.temp_dir "jade-test-cache" "" in
  let cache_cold, cold_runner =
    let r, d = repro_digest ?fault ~cache_dir:dir ~jobs:2 () in
    (d, r)
  in
  let warm_runner, cache_warm = repro_digest ?fault ~cache_dir:dir ~jobs:2 () in
  (reference, replay_on, cache_cold, cache_warm, cold_runner, warm_runner, dir)

let check_parity name ?fault () =
  let reference, replay_on, cache_cold, cache_warm, cold_r, warm_r, dir =
    parity_digests ?fault ()
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
    && warm_stats.Runner.cache_hits = warm_stats.Runner.cache_lookups);
  ignore (Runcache.clear (Runcache.create ~dir))

let test_parity_clean () = check_parity "clean" ()

let test_parity_chaos () = check_parity "chaos" ~fault:chaos_fault ()

(* Corrupted or schema-stale cache entries are rejected with a warning
   and recomputed — never a crash, and never wrong bytes. *)
let cache_entry_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".jrc")
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

let test_cache_corruption_recovers () =
  let dir = Filename.temp_dir "jade-test-cache" "" in
  let _, reference = repro_digest ~cache_dir:dir ~jobs:1 () in
  let entries = cache_entry_files dir in
  Alcotest.(check bool) "cache has entries" true (List.length entries > 2);
  (* Truncate one entry mid-payload, replace another's header with a
     future schema version, and zero a third's payload bytes. *)
  (match entries with
  | e1 :: e2 :: e3 :: _ ->
      let truncate file n =
        let ic = open_in_bin file in
        let raw = really_input_string ic (min n (in_channel_length ic)) in
        close_in ic;
        let oc = open_out_bin file in
        output_string oc raw;
        close_out oc
      in
      truncate e1 10;
      let oc = open_out_bin e2 in
      output_string oc "jade-runcache 999999\nsome stale payload bytes here";
      close_out oc;
      let ic = open_in_bin e3 in
      let raw = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
      close_in ic;
      Bytes.fill raw (Bytes.length raw - 8) 8 '\000';
      let oc = open_out_bin e3 in
      output_bytes oc raw;
      close_out oc
  | _ -> Alcotest.fail "expected at least three cache entries");
  let warm_r, redone = repro_digest ~cache_dir:dir ~jobs:1 () in
  Alcotest.(check string) "damaged entries recomputed, output identical"
    reference redone;
  Alcotest.(check bool) "damaged entries were misses" true
    ((Runner.stats warm_r).Runner.cache_hits
    < (Runner.stats warm_r).Runner.cache_lookups);
  ignore (Runcache.clear (Runcache.create ~dir))

(* Unit tests of the on-disk entry format. *)
let test_runcache_roundtrip () =
  let dir = Filename.temp_dir "jade-test-runcache" "" in
  let c = Runcache.create ~dir in
  let dg = Runcache.digest_key [ "a"; "b" ] in
  Alcotest.(check bool) "fresh cache misses" true (Runcache.find c ~digest:dg = None);
  Runcache.store c ~digest:dg (Runcache.Flops 42.0);
  (match Runcache.find c ~digest:dg with
  | Some (Runcache.Flops f) -> Alcotest.(check (float 0.0)) "roundtrip" 42.0 f
  | _ -> Alcotest.fail "expected the stored Flops value");
  Alcotest.(check bool) "components cannot alias across boundaries" true
    (Runcache.digest_key [ "ab"; "" ] <> Runcache.digest_key [ "a"; "b" ]);
  let entries, bytes = Runcache.dir_stats c in
  Alcotest.(check int) "one entry" 1 entries;
  Alcotest.(check bool) "entry has bytes" true (bytes > 0);
  Runcache.write_last_run c ~lookups:10 ~hits:7;
  Alcotest.(check (option (pair int int)))
    "last-run stats roundtrip" (Some (10, 7))
    (Runcache.read_last_run c);
  Alcotest.(check int) "clear removes the entry" 1 (Runcache.clear c);
  Alcotest.(check bool) "clear removes the stats" true
    (Runcache.read_last_run c = None)

(* Decoder robustness: an entry holding arbitrary bytes — bare, behind the
   entry header, or behind the header and a matching MD5 — or a
   well-formed marshalled value of another type behind both is dropped
   with a warning and misses; [find] never raises, and never hands back
   a value of the wrong shape (matching on one can crash the program). *)
let write_entry c ~digest bytes =
  Out_channel.with_open_bin
    (Filename.concat (Runcache.dir c) (digest ^ ".jrc"))
    (fun oc -> output_string oc bytes)

let entry_header = Printf.sprintf "jade-runcache %d\n" Runcache.schema_version

let find_misses c entry =
  let digest = Runcache.digest_key [ entry ] in
  write_entry c ~digest entry;
  match Runcache.find c ~digest with
  | None ->
      not (Sys.file_exists (Filename.concat (Runcache.dir c) (digest ^ ".jrc")))
  | Some _ -> QCheck.Test.fail_reportf "decoded foreign bytes %S" entry
  | exception e ->
      QCheck.Test.fail_reportf "find raised %s on %S" (Printexc.to_string e)
        entry

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
  let dir = Filename.temp_dir "jade-test-runcache" "" in
  QCheck.Test.make ~name:"find misses on foreign entry bytes" ~count:300
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(oneof [ string; foreign_marshalled ]))
    (fun payload ->
      let c = Runcache.create ~dir in
      List.for_all (find_misses c)
        [
          payload;
          entry_header ^ payload;
          entry_header ^ Digest.string payload ^ payload;
        ])

let test_runcache_named_failures () =
  let c = Runcache.create ~dir:(Filename.temp_dir "jade-test-runcache" "") in
  List.iter
    (fun (name, payload) ->
      Alcotest.(check bool) name true
        (find_misses c (entry_header ^ Digest.string payload ^ payload)))
    [
      ("garbage payload", "not a marshalled value");
      ("empty payload", "");
      ("marshalled string", Marshal.to_string "a string" []);
      ( "valid value with trailing bytes",
        Marshal.to_string (Runcache.Flops 1.0) [] ^ "x" );
    ];
  ignore (Runcache.clear c)

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

(* One test case per misuse, so a regression names the flag it broke. *)
let cli_misuse_cases =
  let run_app = "run --app water --size test" in
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
   that drops every message, an unwritable trace path or cache
   directory. *)
let named_error_cases =
  let run_app = "run --app water --size test" in
  [
    (run_app ^ " --crash-at 0@0.01", "repro: Unrecoverable");
    ("all --size test --crash-at 0@0.01", "repro: Unrecoverable");
    ("digest --size test --crash-at 0@0.01", "repro: Unrecoverable");
    (run_app ^ " --drop-rate 1", "repro: Jade runtime: deadlock");
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

let test_cli_in_range_runs () =
  let code, _, _ = run_repro "table 1 --size test --jobs 1" in
  Alcotest.(check int) "table 1 still runs" 0 code;
  let code, _, _ =
    run_repro "run --app water --size test --crash-at 1@100 --jitter 1"
  in
  Alcotest.(check int) "the largest jitter under a crash plan still runs" 0
    code

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
        ] );
      ( "replay and cache parity",
        [
          Alcotest.test_case "clean" `Quick test_parity_clean;
          Alcotest.test_case "chaos" `Quick test_parity_chaos;
          Alcotest.test_case "corruption recovery" `Quick
            test_cache_corruption_recovers;
          Alcotest.test_case "runcache entry format" `Quick
            test_runcache_roundtrip;
          Alcotest.test_case "runcache named decode failures" `Quick
            test_runcache_named_failures;
          QCheck_alcotest.to_alcotest runcache_find_total_prop;
          Alcotest.test_case "poisoned render trips" `Quick
            test_poison_render_raises;
        ] );
    ]
