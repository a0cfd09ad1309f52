(* jade-repro: command-line driver for the SC'95 Jade communication-
   optimization reproduction. Regenerates any table or figure from the
   paper, runs individual app/machine/config combinations, and prints the
   §5.1-§5.5 analyses. *)

open Cmdliner
open Jade_experiments

let size_conv =
  Arg.enum [ ("test", Runner.Test); ("bench", Runner.Bench); ("paper", Runner.Paper) ]

let size_arg =
  Arg.(
    value
    & opt size_conv Runner.Bench
    & info [ "size" ] ~docv:"SIZE"
        ~doc:"Problem scale: test, bench (default) or paper (full data sets).")

(* Value converters that reject out-of-range input at parse time, so a
   misuse is a cmdliner usage error (exit 124) naming the flag rather
   than an uncaught [Invalid_argument] from deep inside a run. *)
let checked_conv base ~expected ok =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "invalid value %S, expected %s" s expected))
  in
  Arg.conv (parse, Arg.conv_printer base)

let positive_int = checked_conv Arg.int ~expected:"a positive integer" (fun n -> n >= 1)

let jobs_conv =
  checked_conv Arg.int
    ~expected:(Printf.sprintf "an integer in [1,%d]" Pool.max_jobs)
    (fun n -> n >= 1 && n <= Pool.max_jobs)

let probability =
  checked_conv Arg.float ~expected:"a probability in [0,1]" (fun r ->
      r >= 0.0 && r <= 1.0)

(* Virtual-time flags must be finite: an infinite or NaN value is not a
   time the simulation can reach. *)
let finite_non_negative =
  checked_conv Arg.float ~expected:"a finite non-negative number" (fun x ->
      Float.is_finite x && x >= 0.0)

(* --jitter is capped at one virtual second: about 20,000 iPSC message
   startups and 20 times the reliable protocol's retransmit timeout. A
   longer delay only turns fetches into give-ups, and under a crash plan
   the supervisor would probe for the whole stretched run. *)
let jitter_conv =
  checked_conv Arg.float ~expected:"a number of seconds in [0,1]" (fun x ->
      x >= 0.0 && x <= 1.0)

let jobs_arg =
  Arg.(
    value
    & opt jobs_conv (Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          (Printf.sprintf
             "Worker domains to fan independent simulations across, at \
              most %d (default: the machine's recommended domain count). \
              Output is identical at any value."
             Pool.max_jobs))

(* Chaos mode: --fault-seed/--drop-rate/--dup-rate/--jitter build a
   deterministic fault plan injected into every message-passing run.
   Omitting all four disables the machinery entirely. *)
let fault_term =
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-seed" ] ~docv:"S"
          ~doc:
            "Seed of the deterministic fault plan (chaos mode). The same \
             seed and rates reproduce exactly the same faults.")
  in
  let drop_arg =
    Arg.(
      value & opt probability 0.0
      & info [ "drop-rate" ] ~docv:"R"
          ~doc:"Probability in [0,1] that a fabric message is lost.")
  in
  let dup_arg =
    Arg.(
      value & opt probability 0.0
      & info [ "dup-rate" ] ~docv:"R"
          ~doc:"Probability in [0,1] that a fabric message is duplicated.")
  in
  let jitter_arg =
    Arg.(
      value & opt jitter_conv 0.0
      & info [ "jitter" ] ~docv:"SEC"
          ~doc:
            "Maximum extra delivery latency, in virtual seconds (at most \
             1).")
  in
  let crash_rate_arg =
    Arg.(
      value & opt probability 0.0
      & info [ "crash-rate" ] ~docv:"R"
          ~doc:
            "Probability in [0,1] that each non-root processor suffers a \
             crash-stop failure (at a seeded virtual time inside the crash \
             horizon). The run recovers using the tasks' access \
             specifications and finishes with the same numeric results.")
  in
  let crash_at_conv =
    let parse s =
      try
        Ok
          (String.split_on_char ',' s
          |> List.filter (fun e -> String.trim e <> "")
          |> List.map (fun entry ->
                 match String.split_on_char '@' (String.trim entry) with
                 | [ p; t ] ->
                     let p = int_of_string p and t = float_of_string t in
                     if p < 0 || not (Float.is_finite t && t >= 0.0) then
                       failwith "range";
                     (p, t)
                 | _ -> failwith "syntax"))
      with _ ->
        Error
          (`Msg
            (Printf.sprintf
               "invalid crash schedule %S: want P@T,P@T,... with P a \
                non-negative integer and T a finite non-negative time"
               s))
    in
    let print ppf l =
      Format.pp_print_string ppf
        (String.concat ","
           (List.map (fun (p, t) -> Printf.sprintf "%d@%g" p t) l))
    in
    Arg.conv (parse, print)
  in
  let crash_at_arg =
    Arg.(
      value
      & opt crash_at_conv []
      & info [ "crash-at" ] ~docv:"P@T,..."
          ~doc:
            "Scripted crash-stop failures: processor P crashes at virtual \
             time T (e.g. $(b,--crash-at 2@0.01)). Entries naming a \
             processor outside the run's range are dropped with a stderr \
             warning.")
  in
  let crash_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "crash-seed" ] ~docv:"S"
          ~doc:"Seed of the rate-mode crash draws (independent of --fault-seed).")
  in
  let crash_restart_arg =
    Arg.(
      value & opt finite_non_negative 0.0
      & info [ "crash-restart" ] ~docv:"SEC"
          ~doc:
            "When positive, a crashed processor restarts (cold caches, \
             empty queue) this many virtual seconds after its crash.")
  in
  let make seed drop_rate dup_rate jitter crash_rate crash_at crash_seed
      crash_restart =
    match (seed, drop_rate, dup_rate, jitter, crash_rate, crash_at) with
    | None, 0.0, 0.0, 0.0, 0.0, [] -> None
    | _ ->
        let seed = Option.value seed ~default:1 in
        Some
          (Jade_net.Fault.spec ~seed ~drop_rate ~dup_rate ~jitter ~crash_rate
             ~crash_at ~crash_seed ~crash_restart ())
  in
  Term.(
    const make $ seed_arg $ drop_arg $ dup_arg $ jitter_arg $ crash_rate_arg
    $ crash_at_arg $ crash_seed_arg $ crash_restart_arg)

(* Kernel-skipping and persistent-cache controls, shared by every
   Runner-backed subcommand. Both layers are output-preserving: toggling
   them can only change wall-clock time, never a rendered byte. *)
let replay_arg =
  Arg.(
    value
    & opt (enum [ ("on", true); ("off", false) ]) true
    & info [ "replay" ] ~docv:"on|off"
        ~doc:
          "Kernel skipping (default on): a task's simulated cost comes from \
           its declared accesses and work, so memoized runs simulate the \
           schedule without executing the applications' float kernels. \
           $(b,off) executes every kernel in every run, which also checks \
           that no kernel creates tasks or objects. Output is \
           byte-identical either way.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persistent run cache: completed work units are stored under \
           DIR keyed by their full configuration (schema version, app, \
           size parameters, machine, processors, optimization and fault \
           settings), so a later invocation with the same cache replays \
           results from disk without simulating.")

let runner_term_of fault =
  let make size jobs fault replay cache_dir =
    Runner.create ~jobs ?fault ?cache_dir ~replay size
  in
  Term.(const make $ size_arg $ jobs_arg $ fault $ replay_arg $ cache_dir_arg)

let runner_term = runner_term_of fault_term

let print_table ?paper t =
  print_string (Report.render_comparison ~ours:t ~paper);
  print_newline ()

let csv_arg =
  Arg.(value & flag & info [ "csv" ] ~doc:"Emit comma-separated values instead of a rendered table.")

(* A positional number restricted to [lo, hi]: anything else is a
   cmdliner usage error with a nonzero exit, not an uncaught exception
   from deep inside the experiment code. *)
let number_in ~what lo hi =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo && n <= hi -> Ok n
    | _ ->
        Error
          (`Msg
            (Printf.sprintf "invalid %s number %S: expected %d-%d" what s lo hi))
  in
  Arg.conv (parse, Format.pp_print_int)

let table_cmd =
  let n_arg =
    Arg.(
      required
      & pos 0 (some (number_in ~what:"table" 1 14)) None
      & info [] ~docv:"N" ~doc:"Table number (1-14).")
  in
  let run n csv r =
    let t = Tables.table r n in
    if csv then print_string (Report.to_csv t)
    else print_table ?paper:(Paper_data.table n) t
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Regenerate one of the paper's tables (1-14).")
    Term.(const run $ n_arg $ csv_arg $ runner_term)

let figure_cmd =
  let n_arg =
    Arg.(
      required
      & pos 0 (some (number_in ~what:"figure" 2 21)) None
      & info [] ~docv:"N" ~doc:"Figure number (2-21).")
  in
  let run n csv r =
    let t = Figures.figure r n in
    if csv then print_string (Report.to_csv t) else print_table t
  in
  Cmd.v
    (Cmd.info "figure" ~doc:"Regenerate one of the paper's figures (2-21).")
    Term.(const run $ n_arg $ csv_arg $ runner_term)

let analyses_cmd =
  let run r = List.iter print_table (Analyses.all r) in
  Cmd.v
    (Cmd.info "analyses" ~doc:"Run the §5.1-§5.5 analyses.")
    Term.(const run $ runner_term)

let print_everything r =
  List.iter
    (fun n -> print_table ?paper:(Paper_data.table n) (Tables.table r n))
    (List.init 14 (fun i -> i + 1));
  List.iter print_table (Figures.all r);
  List.iter print_table (Analyses.all r)

let all_cmd =
  let run r = print_everything r in
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate every table, figure and analysis.")
    Term.(const run $ runner_term)

(* Where [regen] and [cache] keep the persistent cache when --cache-dir
   is not given. *)
let default_cache_dir () =
  match Sys.getenv_opt "XDG_CACHE_HOME" with
  | Some d when d <> "" -> Filename.concat d "jade-repro"
  | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" ->
          Filename.concat (Filename.concat h ".cache") "jade-repro"
      | _ -> Filename.concat (Filename.get_temp_dir_name ()) "jade-repro-cache")

let regen_cmd =
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Disable the persistent run cache for this regeneration.")
  in
  let make size jobs fault replay cache_dir no_cache =
    let cache_dir =
      if no_cache then None
      else Some (Option.value cache_dir ~default:(default_cache_dir ()))
    in
    Runner.create ~jobs ?fault ?cache_dir ~replay size
  in
  let run r =
    let t0 = Unix.gettimeofday () in
    print_everything r;
    Runner.flush_cache_stats r;
    let wall = Unix.gettimeofday () -. t0 in
    let st = Runner.stats r in
    Printf.eprintf
      "regen: wall=%.3fs events=%d cache_lookups=%d cache_hits=%d \
       replayed_tasks=%d\n\
       %!"
      wall (Runner.events_simulated r) st.Runner.cache_lookups
      st.Runner.cache_hits st.Runner.replayed_tasks
  in
  Cmd.v
    (Cmd.info "regen"
       ~doc:
         "Regenerate every table, figure and analysis with the persistent \
          run cache enabled (default directory: \
          \\$XDG_CACHE_HOME/jade-repro), printing cache and \
          kernel-skipping statistics on stderr. A second run against the \
          same cache simulates nothing.")
    Term.(
      const run
      $ (const make $ size_arg $ jobs_arg $ fault_term $ replay_arg
        $ cache_dir_arg $ no_cache_arg))

let cache_cmd =
  let action_arg =
    Arg.(
      required
      & pos 0 (some (enum [ ("stats", `Stats); ("clear", `Clear) ])) None
      & info [] ~docv:"ACTION"
          ~doc:"$(b,stats) prints the build identity, segment, entry \
                and byte counts (entries of this build only) and the \
                last run's hit rate; $(b,clear) removes every file the \
                cache leaves.")
  in
  let run action cache_dir =
    let dir = Option.value cache_dir ~default:(default_cache_dir ()) in
    let c = Runcache.create ~dir in
    match action with
    | `Stats -> (
        let u = Runcache.usage c in
        Printf.printf "cache directory: %s\n" dir;
        Printf.printf "schema version: %d\n" Runcache.schema_version;
        Printf.printf "build identity: %s\n" Runcache.build_id;
        Printf.printf "segments: %d\n" u.Runcache.segments;
        Printf.printf "entries: %d\n" u.Runcache.entries;
        Printf.printf "bytes: %d\n" u.Runcache.bytes;
        if u.Runcache.legacy > 0 then
          Printf.printf "legacy entry files (schema 7, unused): %d\n" u.Runcache.legacy;
        match Runcache.read_last_run c with
        | Some (lookups, hits) when lookups > 0 ->
            Printf.printf "last run: %d of %d lookups hit (%.1f%%)\n" hits
              lookups
              (100.0 *. float_of_int hits /. float_of_int lookups)
        | Some (lookups, hits) ->
            Printf.printf "last run: %d of %d lookups hit\n" hits lookups
        | None -> Printf.printf "last run: no recorded statistics\n")
    | `Clear ->
        let n = Runcache.clear c in
        Printf.printf "removed %d files from %s\n" n dir
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:"Inspect (stats) or empty (clear) the persistent run cache.")
    Term.(const run $ action_arg $ cache_dir_arg)

let app_conv =
  Arg.enum
    [
      ("water", Runner.Water);
      ("string", Runner.String_);
      ("ocean", Runner.Ocean);
      ("cholesky", Runner.Cholesky);
    ]

let machine_conv =
  Arg.enum
    [ ("dash", Runner.Dash); ("ipsc", Runner.Ipsc); ("lan", Runner.Lan) ]

let machine_arg =
  Arg.(
    value
    & opt machine_conv Runner.Ipsc
    & info [ "machine" ] ~docv:"M" ~doc:"dash, ipsc (default) or lan.")

(* The fault plan of a command that runs on one machine. DASH has no
   message fabric, so a drop, duplicate or jitter rate would print a
   chaos plan that changes nothing there: it is a usage error naming the
   flag. Crash flags and a bare --fault-seed stay valid on DASH. *)
let machine_fault_term =
  let check machine fault =
    let fabric_flag (s : Jade_net.Fault.spec) =
      List.find_opt
        (fun (_, rate) -> rate > 0.0)
        [
          ("--drop-rate", s.drop_rate);
          ("--dup-rate", s.dup_rate);
          ("--jitter", s.jitter);
        ]
    in
    match (machine, Option.bind fault fabric_flag) with
    | Runner.Dash, Some (flag, _) ->
        Error
          (`Msg
            (Printf.sprintf
               "%s does not apply to --machine dash: DASH has no message \
                fabric (use ipsc or lan)"
               flag))
    | _ -> Ok fault
  in
  Term.(term_result ~usage:true (const check $ machine_arg $ fault_term))

let level_conv =
  Arg.enum [ ("placement", Runner.Tp); ("locality", Runner.Loc); ("none", Runner.Noloc) ]

let run_cmd =
  let app_arg =
    Arg.(
      required
      & opt (some app_conv) None
      & info [ "app" ] ~docv:"APP" ~doc:"water, string, ocean or cholesky.")
  in
  let procs_arg =
    Arg.(
      value & opt positive_int 8
      & info [ "procs"; "p" ] ~docv:"P" ~doc:"Processors.")
  in
  let level_arg =
    Arg.(
      value
      & opt level_conv Runner.Loc
      & info [ "level" ] ~docv:"L"
          ~doc:"Locality level: placement, locality (default) or none.")
  in
  let broadcast_arg =
    Arg.(value & flag & info [ "no-broadcast" ] ~doc:"Disable adaptive broadcast.")
  in
  let fetch_arg =
    Arg.(value & flag & info [ "no-concurrent-fetch" ] ~doc:"Disable concurrent fetches.")
  in
  let replication_arg =
    Arg.(value & flag & info [ "no-replication" ] ~doc:"Serialize readers.")
  in
  let target_arg =
    Arg.(
      value & opt positive_int 1
      & info [ "target-tasks" ] ~docv:"T"
          ~doc:"Tasks the scheduler keeps per processor (2 = latency hiding).")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a Chrome trace-event JSON of the task schedule to FILE.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Also print the run's occupancy high-water marks (fabric \
             messages in flight as $(b,msg-cells), far-lane event heap, \
             now-lane capacity) and its idle traffic (DASH wake-up and \
             steal-patience probes, main-release polls), each out of \
             the run's events, with the polls taken in place; under a \
             fault plan, also the retransmit timers that fired and \
             those dropped as dead. Forces a real \
             (uncached, every kernel executed) simulation, since cached \
             summaries do not carry them.")
  in
  let run app machine nprocs level no_bcast no_fetch no_repl target size trace
      stats fault =
    let r = Runner.create ?fault size in
    let config =
      {
        (Runner.config_of_level level) with
        Jade.Config.adaptive_broadcast = not no_bcast;
        Jade.Config.concurrent_fetch = not no_fetch;
        Jade.Config.replication = not no_repl;
        Jade.Config.target_tasks = target;
      }
    in
    let placed = level = Runner.Tp in
    let s, occ =
      if trace = None && not stats then
        (Runner.run r ~app ~machine ~nprocs ~config ~placed, None)
      else begin
        let traced = Option.map (fun path -> (path, Jade.Tracing.create ())) trace in
        let s, occ =
          Runner.run_observed ?trace:(Option.map snd traced) r ~app ~machine
            ~nprocs ~config ~placed
        in
        Option.iter
          (fun (path, tr) ->
            Jade.Tracing.write_chrome_json tr path;
            Format.printf "wrote %d task events to %s@."
              (Jade.Tracing.count tr) path)
          traced;
        (s, if stats then Some occ else None)
      end
    in
    Format.printf "%s on %s, %d processors, %s@."
      (Runner.app_name app)
      (Runner.machine_name machine)
      nprocs
      (Runner.level_name level);
    Format.printf "  %a@." Jade.Metrics.pp_summary s;
    (match occ with
    | Some o ->
        Format.printf "  occupancy: %a@." Jade.Metrics.pp_occupancy o;
        Format.printf "  idle: %a@." Jade.Metrics.pp_idle o;
        if fault <> None then
          Format.printf "  timers: %a@." Jade.Metrics.pp_timers o
    | None -> ());
    match fault with
    | Some spec ->
        Format.printf "  chaos: %a@." Jade_net.Fault.pp_spec spec;
        Format.printf
          "  chaos: dropped=%d duplicated=%d retransmits=%d acks=%d \
           give-ups=%d@."
          s.Jade.Metrics.dropped_count s.Jade.Metrics.duplicated_count
          s.Jade.Metrics.retransmit_count s.Jade.Metrics.ack_count
          s.Jade.Metrics.give_up_count;
        if Jade_net.Fault.crash_active spec then
          Format.printf
            "  recovery: crashes=%d detected=%d reexecuted=%d \
             reconstructed=%d recovery_s=%.6f@."
            s.Jade.Metrics.crash_injected_count
            s.Jade.Metrics.crash_detected_count
            s.Jade.Metrics.reexecuted_count
            s.Jade.Metrics.reconstructed_count s.Jade.Metrics.recovery_s
    | None -> ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one application/machine/configuration and print metrics.")
    Term.(
      const run $ app_arg $ machine_arg $ procs_arg $ level_arg $ broadcast_arg
      $ fetch_arg $ replication_arg $ target_arg $ size_arg $ trace_arg
      $ stats_arg $ machine_fault_term)

(* One summary line per (app, level, nprocs) on a single machine backend.
   The output is deterministic and jobs-independent, so CI hashes it at
   --jobs 1 and --jobs 4 per machine and fails on any mismatch — the
   backend-parity matrix. *)
let digest_cmd =
  let run machine r =
    (* Collect inside [parallel] (its planning pass evaluates the closure
       against placeholders, so side effects there would print twice and
       print garbage); render outside, from the warm memo. *)
    let lines =
      Runner.parallel r (fun () ->
          List.concat_map
            (fun app ->
              List.concat_map
                (fun level ->
                  List.map
                    (fun nprocs ->
                      let s = Runner.run_level r ~app ~machine ~nprocs ~level in
                      Format.asprintf "%s|%s|%s|p%d %a"
                        (Runner.machine_name machine)
                        (Runner.app_name app) (Runner.level_name level) nprocs
                        Jade.Metrics.pp_summary s)
                    [ 1; 2; 4; 8 ])
                (Runner.levels_for app))
            Runner.all_apps)
    in
    List.iter print_endline lines
  in
  Cmd.v
    (Cmd.info "digest"
       ~doc:
         "Print a deterministic per-machine summary digest (every app and \
          locality level at 1-8 processors) for backend-parity checking.")
    Term.(const run $ machine_arg $ runner_term_of machine_fault_term)

(* Inspect the task-graph IR directly: lift one traced run of a program
   into the DAG and dump or summarize it. *)
let graph_cmd =
  let action_arg =
    Arg.(
      required
      & pos 0 (some (enum [ ("dump", `Dump); ("stats", `Stats) ])) None
      & info [] ~docv:"ACTION"
          ~doc:
            "$(b,dump) prints the serialized IR; $(b,stats) summarizes the \
             DAG (tasks, edges, objects, grain).")
  in
  let app_arg =
    Arg.(
      required
      & opt (some app_conv) None
      & info [ "app" ] ~docv:"APP" ~doc:"water, string, ocean or cholesky.")
  in
  let procs_arg =
    Arg.(
      value & opt positive_int 8
      & info [ "procs"; "p" ] ~docv:"P" ~doc:"Processors.")
  in
  let placed_arg =
    Arg.(
      value & flag
      & info [ "placed" ]
          ~doc:"Use the program variant with explicit task placement.")
  in
  let run action app machine nprocs placed size =
    let r = Runner.create ~jobs:1 size in
    let g = Runner.task_graph r ~app ~machine ~nprocs ~placed in
    let module Ir = Jade_graph.Ir in
    match action with
    | `Dump -> print_string (Ir.encode g)
    | `Stats ->
        let n = Ir.node_count g in
        let total = Ir.total_work g in
        let max_grain = ref 0.0 and releasers = ref 0 and placed_n = ref 0 in
        Array.iter
          (fun node ->
            let w = Ir.node_work node in
            if w > !max_grain then max_grain := w;
            if
              Array.exists
                (function Ir.Release _ -> true | Ir.Work _ -> false)
                node.Ir.n_ops
            then incr releasers;
            if node.Ir.n_placement <> None then incr placed_n)
          g.Ir.nodes;
        Format.printf "%s on %s, %d processors, %s@."
          (Runner.app_name app)
          (Runner.machine_name machine)
          nprocs
          (if placed then "placed" else "unplaced");
        Format.printf "  tasks: %d@." n;
        Format.printf "  data-flow edges: %d@." (Ir.edge_count g);
        Format.printf "  shared objects: %d@." (Ir.object_count g);
        Format.printf "  total work: %.6g flops@." total;
        Format.printf "  mean grain: %.6g flops, max %.6g@."
          (if n = 0 then 0.0 else total /. float_of_int n)
          !max_grain;
        Format.printf "  tasks with mid-body releases: %d@." !releasers;
        Format.printf "  explicitly placed tasks: %d@." !placed_n
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:
         "Lift a traced run of a program into the task-graph IR and dump \
          or summarize it.")
    Term.(
      const run $ action_arg $ app_arg $ machine_arg $ procs_arg $ placed_arg
      $ size_arg)

let factor_cmd =
  let matrix_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "matrix" ] ~docv:"FILE"
          ~doc:"Symmetric positive-definite matrix in MatrixMarket format.")
  in
  let procs_arg =
    Arg.(
      value & opt positive_int 8
      & info [ "procs"; "p" ] ~docv:"P" ~doc:"Processors.")
  in
  let width_arg =
    Arg.(
      value & opt positive_int 8
      & info [ "panel-width" ] ~docv:"W" ~doc:"Panel width.")
  in
  let machine_arg =
    Arg.(
      value
      & opt (enum [ ("ipsc", Jade.Runtime.ipsc860); ("lan", Jade.Runtime.lan) ])
          Jade.Runtime.ipsc860
      & info [ "machine" ] ~docv:"M" ~doc:"ipsc (default) or lan.")
  in
  (* A matrix the factorization cannot take — malformed, not square, not
     symmetric, or not positive definite (found only when a panel's
     pivot goes non-positive mid-run) — is a named error on the input
     file, not an uncaught exception. *)
  let run path nprocs width machine =
    let reject msg =
      Printf.eprintf "factor: %s: %s\n%!" path msg;
      exit 1
    in
    let a =
      match Jade_sparse.Matrix_market.read_file path with
      | a -> a
      | exception (Jade_sparse.Matrix_market.Parse_error msg | Invalid_argument msg)
        ->
          reject msg
    in
    Format.printf "read %s: n=%d, nnz=%d@." path a.Jade_sparse.Csc.n
      (Jade_sparse.Csc.nnz a);
    let program, result =
      match
        Jade_apps.Cholesky.factor_matrix a ~panel_width:width
          ~kind:Jade_apps.App_common.Mp ~placed:false ~nprocs
      with
      | pr -> pr
      | exception Invalid_argument msg -> reject msg
    in
    let s =
      match Jade.Runtime.run ~machine ~nprocs program with
      | s -> s
      | exception Failure msg -> reject msg
    in
    let r = result () in
    Format.printf "factored with %d tasks in %.4f virtual seconds@."
      r.Jade_apps.Cholesky.tasks s.Jade.Metrics.elapsed_s;
    let err =
      Jade_sparse.Dense.max_diff
        (Jade_sparse.Dense.mul_lt r.Jade_apps.Cholesky.l)
        (Jade_sparse.Csc.to_dense a)
    in
    Format.printf "max |L L^T - A| = %.3e@." err
  in
  Cmd.v
    (Cmd.info "factor"
       ~doc:"Factor a MatrixMarket SPD matrix with the Panel Cholesky task graph.")
    Term.(const run $ matrix_arg $ procs_arg $ width_arg $ machine_arg)

(* Failures a correct program can meet at run time — a crash plan the
   run cannot survive, a fault plan that starves it, a path it cannot
   write — end in one named line and exit 1, not in cmdliner's
   uncaught-exception report. Anything else is a bug and propagates. *)
let failure_reason = function
  | Jade.Runtime.Unrecoverable f -> Some (Jade.Recovery.failure_to_string f)
  | Jade.Runtime.Deadlock d -> Some (Jade.Runtime.deadlock_to_string d)
  | Sys_error msg -> Some msg
  | Unix.Unix_error (err, fn, arg) ->
      Some (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message err))
  | _ -> None

let () =
  let doc =
    "Reproduction of 'Communication Optimizations for Parallel Computing \
     Using Data Access Information' (Rinard, SC '95)"
  in
  let info = Cmd.info "jade-repro" ~version:"1.0.0" ~doc in
  let main =
    Cmd.group info
      [
        table_cmd;
        figure_cmd;
        analyses_cmd;
        all_cmd;
        regen_cmd;
        cache_cmd;
        run_cmd;
        digest_cmd;
        graph_cmd;
        factor_cmd;
      ]
  in
  match Cmd.eval ~catch:false main with
  | code -> exit code
  | exception e -> (
      match failure_reason e with
      | Some reason ->
          Printf.eprintf "repro: %s\n%!" reason;
          exit 1
      | None -> raise e)
