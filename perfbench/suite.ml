(* Benchmark probe: runs one workload in this process and prints one JSON
   line of raw metrics. perfbench/run.py starts a fresh process per sample
   and aggregates the lines; perfbench/README.md defines every name.

   Usage: suite.exe --workload regen|regen_warm|regen_kernels|mp_chaos
            [--seed S] [--size bench|test] [--spawned-at EPOCH]
            [--golden DIR] [--write-golden] [--trace FILE]

   A sample must be a fresh process: the experiment layer memoizes String
   ray paths, String observed times and the Cholesky plan for the life of
   the process, so a second regeneration in one process runs 25-30 %
   faster than the first, which is the one every `repro all` pays for.

   Every layer is timed from outside, around calls into the libraries'
   public functions. With --trace the process also runs the probe cells
   and the engine and fabric micro-probes after the measured phase, and
   writes its spans as Chrome trace-event JSON. The PDES engine is never
   started: with 4 domains it hung in 2 of 8 runs. *)

module Rn = Jade_experiments.Runner
module Report = Jade_experiments.Report
module Runcache = Jade_experiments.Runcache
module M = Jade.Metrics
module Engine = Jade_sim.Engine
module Fabric = Jade_net.Fabric

let now = Unix.gettimeofday

let started = now ()

(* ------------------------------------------------------------------ *)
(* Spans, kept in memory and written out when the run ends. *)

type span = { sp_name : string; sp_cat : string; sp_t0 : float; sp_t1 : float }

let tracing = ref false

let spans = ref []

let add_span ?(cat = "bench") name t0 t1 =
  if !tracing then
    spans := { sp_name = name; sp_cat = cat; sp_t0 = t0; sp_t1 = t1 } :: !spans

let span ?cat name f =
  if not !tracing then f ()
  else
    let t0 = now () in
    Fun.protect ~finally:(fun () -> add_span ?cat name t0 (now ())) f

(* Runs [f] without recording the spans it opens. *)
let quietly f =
  let was = !tracing in
  tracing := false;
  Fun.protect ~finally:(fun () -> tracing := was) f

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number x =
  if not (Float.is_finite x) then invalid_arg "json_number: not finite"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

(* Parents sort before the children they contain, as trace viewers
   expect; timestamps are microseconds since the process was spawned. *)
let write_trace path ~origin =
  let order a b =
    match Float.compare a.sp_t0 b.sp_t0 with
    | 0 -> Float.compare b.sp_t1 a.sp_t1
    | c -> c
  in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
         \"ts\": %.3f, \"dur\": %.3f}"
        (if i = 0 then "" else ",\n")
        (json_string s.sp_name) (json_string s.sp_cat)
        (1e6 *. (s.sp_t0 -. origin))
        (1e6 *. (s.sp_t1 -. s.sp_t0)))
    (List.sort order !spans);
  output_string oc "\n]}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Metrics and failure accounting. *)

let metrics = ref []

let metric name v = metrics := (name, v) :: !metrics

let count name n = metric name (float_of_int n)

let ratio a b = if b = 0.0 then 0.0 else a /. b

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it: the 11th
   largest sample, or the largest when there are fewer than 11. *)
let tail xs =
  let a = Array.of_list (List.sort (fun x y -> Float.compare y x) xs) in
  if a = [||] then 0.0 else a.(min 10 (Array.length a - 1))

let ops = ref 0

let failed_ops = ref 0

let errors = ref []

(* One attempted operation; [Some reason] marks it failed. *)
let op_result failure =
  incr ops;
  Option.iter
    (fun reason ->
      incr failed_ops;
      errors := reason :: !errors)
    failure

exception Fatal of string

let fatal fmt = Printf.ksprintf (fun s -> raise (Fatal s)) fmt

(* ------------------------------------------------------------------ *)
(* Golden outputs. *)

let golden_dir = ref "perfbench/golden"

let write_golden = ref false

let size_name = function Rn.Test -> "test" | Rn.Bench -> "bench" | Rn.Paper -> "paper"

let golden_path name = Filename.concat !golden_dir name

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let read_lines path =
  String.split_on_char '\n' (read_file path) |> List.filter (( <> ) "")

(* The md5 of the regenerated `repro all` text at [size]. With
   --write-golden the first regeneration defines it. *)
let regen_golden size =
  let path = golden_path (Printf.sprintf "regen-%s.md5" (size_name size)) in
  let golden =
    if !write_golden then ref None
    else if Sys.file_exists path then ref (Some (String.trim (read_file path)))
    else fatal "missing golden %s (regenerate with --write-golden)" path
  in
  fun text ->
    let d = Digest.to_hex (Digest.string text) in
    match !golden with
    | None ->
        write_file path (d ^ "\n");
        golden := Some d;
        None
    | Some g when g = d -> None
    | Some g -> Some (Printf.sprintf "regeneration digest %s, golden %s" d g)

(* ------------------------------------------------------------------ *)
(* The regeneration: the exact text `repro all` prints, built artifact by
   artifact so each Tables/Figures/Analyses call and each render gets its
   own span. *)

let analyses =
  let open Jade_experiments.Analyses in
  [
    (fun r -> replication r ~app:Rn.Water);
    broadcast_breakdown;
    latency_hiding;
    concurrent_fetch;
    eager_transfer;
    ablation_steal_patience;
    portability;
  ]

type regen = {
  text : string;
  wall : float;
  render_s : float;
  events : int;
  stats : Rn.stats;
}

let regenerate ~size ~replay ~cache_dir =
  let t0 = now () in
  let r = Rn.create ~jobs:1 ~cache_dir ~replay size in
  let buf = Buffer.create 32768 and render_s = ref 0.0 in
  let artifact name ?paper compute =
    let table = span name compute in
    let t0 = now () in
    let text = Report.render_comparison ~ours:table ~paper in
    let t1 = now () in
    add_span ~cat:"render" ("render." ^ name) t0 t1;
    render_s := !render_s +. (t1 -. t0);
    Buffer.add_string buf text;
    Buffer.add_char buf '\n'
  in
  for n = 1 to 14 do
    artifact (Printf.sprintf "table%02d" n)
      ?paper:(Jade_experiments.Paper_data.table n)
      (fun () -> Jade_experiments.Tables.table r n)
  done;
  for n = 2 to 21 do
    artifact (Printf.sprintf "figure%02d" n) (fun () ->
        Jade_experiments.Figures.figure r n)
  done;
  List.iteri
    (fun i analysis ->
      artifact (Printf.sprintf "analysis%02d" (i + 1)) (fun () -> analysis r))
    analyses;
  {
    text = Buffer.contents buf;
    wall = now () -. t0;
    render_s = !render_s;
    events = Rn.events_simulated r;
    stats = Rn.stats r;
  }

(* ------------------------------------------------------------------ *)
(* Cells: one simulation each. *)

type cell = {
  app : Rn.app;
  machine : Rn.machine;
  nprocs : int;
  variant : string;
  config : Jade.Config.t;
}

let label c =
  Printf.sprintf "%s|%s|%s|p%d" (Rn.machine_name c.machine) (Rn.app_name c.app)
    c.variant c.nprocs

let cells ~machines ~procs ~variants =
  List.concat_map
    (fun app ->
      List.concat_map
        (fun machine ->
          List.concat_map
            (fun nprocs ->
              List.map
                (fun (variant, config) -> { app; machine; nprocs; variant; config })
                variants)
            procs)
        machines)
    Rn.all_apps

let chaos_variants =
  let d = Jade.Config.default in
  [
    ("default", d);
    ("no-broadcast", { d with Jade.Config.adaptive_broadcast = false });
    ("no-concurrent-fetch", { d with Jade.Config.concurrent_fetch = false });
    ("eager", { d with Jade.Config.eager_transfer = true });
    ("target-tasks-2", { d with Jade.Config.target_tasks = 2 });
    ("no-locality", Rn.config_of_level Rn.Noloc);
  ]

let chaos_cells =
  cells ~machines:[ Rn.Ipsc; Rn.Lan ] ~procs:[ 16; 32; 64; 128 ]
    ~variants:chaos_variants

(* retry_timeout 0.2: at the default 0.05, String on LAN at p=64 with
   eager transfer gave up 120 times on each of seeds 1-3. *)
let chaos_fault seed =
  Jade_net.Fault.spec ~seed ~drop_rate:0.02 ~dup_rate:0.01 ~jitter:5e-5
    ~retry_timeout:0.2 ()

let probe_cells_regen =
  cells ~machines:[ Rn.Dash; Rn.Ipsc; Rn.Lan ] ~procs:[ 8; 32 ]
    ~variants:[ ("default", Jade.Config.default) ]

(* ------------------------------------------------------------------ *)
(* Workloads. Each one's set-up returns its measured phase. *)

type workload = Regen | Regen_warm | Regen_kernels | Mp_chaos

type measured = {
  samples : float list;  (** seconds per operation *)
  render : float;  (** seconds of it spent rendering output *)
  out_bytes : int;
  sim_events : int;
  replayed : int;
  lookups : int;
  hits : int;
  cache : Runcache.t option;
  digest : string;  (** of every output, for the cross-process check *)
}

let fresh_cache_dir () = Filename.temp_dir "perfbench-cache" ""

let regen_workload ~size ~replay () =
  let cache_dir = fresh_cache_dir () in
  let check = regen_golden size in
  fun () ->
    let g = regenerate ~size ~replay ~cache_dir in
    op_result (check g.text);
    {
      samples = [ g.wall ];
      render = g.render_s;
      out_bytes = String.length g.text;
      sim_events = g.events;
      replayed = g.stats.Rn.replayed_tasks;
      lookups = g.stats.Rn.cache_lookups;
      hits = g.stats.Rn.cache_hits;
      cache = Some (Runcache.create ~dir:cache_dir);
      digest = Digest.to_hex (Digest.string g.text);
    }

(* Set-up populates a fresh cache with one cold regeneration; every
   measured regeneration then starts from a fresh runner on that cache. *)
let regen_warm_workload ~size () =
  let cache_dir = fresh_cache_dir () in
  let check = regen_golden size in
  let cold = span "cold_regen" (fun () -> regenerate ~size ~replay:true ~cache_dir) in
  (match check cold.text with
  | None -> ()
  | Some reason -> fatal "set-up regeneration: %s" reason);
  Gc.compact ();
  let n = match size with Rn.Test -> 100 | _ -> 1000 in
  fun () ->
    let samples = ref [] and render = ref 0.0 and events = ref 0 in
    let replayed = ref 0 and lookups = ref 0 and hits = ref 0 in
    for i = 1 to n do
      (* Spans of the first regeneration only: 1000 detailed copies
         would bloat the trace without saying more. *)
      let g =
        span "regen" (fun () ->
            let run () = regenerate ~size ~replay:true ~cache_dir in
            if i = 1 then run () else quietly run)
      in
      samples := g.wall :: !samples;
      render := !render +. g.render_s;
      events := !events + g.events;
      replayed := !replayed + g.stats.Rn.replayed_tasks;
      lookups := !lookups + g.stats.Rn.cache_lookups;
      hits := !hits + g.stats.Rn.cache_hits;
      op_result
        (match check g.text with
        | Some _ as failure -> failure
        | None when g.stats.Rn.cache_hits <> g.stats.Rn.cache_lookups ->
            Some
              (Printf.sprintf "warm regeneration %d: %d hits of %d lookups" i
                 g.stats.Rn.cache_hits g.stats.Rn.cache_lookups)
        | None -> None)
    done;
    {
      samples = !samples;
      render = !render;
      out_bytes = String.length cold.text;
      sim_events = !events;
      replayed = !replayed;
      lookups = !lookups;
      hits = !hits;
      cache = Some (Runcache.create ~dir:cache_dir);
      digest = Digest.to_hex (Digest.string cold.text);
    }

let find_sub line key =
  let kl = String.length key in
  let rec go i =
    if i + kl > String.length line then None
    else if String.sub line i kl = key then Some i
    else go (i + 1)
  in
  go 0

(* A chaos line is "<label> <summary>"; labels hold spaces ("Panel
   Cholesky"), so the label ends where the summary's first field starts. *)
let line_label line =
  match find_sub line " elapsed=" with
  | Some i -> String.sub line 0 i
  | None -> line

let tasks_field line =
  match find_sub line " tasks=" with
  | None -> None
  | Some i ->
      let start = i + String.length " tasks=" in
      let stop =
        Option.value (String.index_from_opt line start ' ')
          ~default:(String.length line)
      in
      int_of_string_opt (String.sub line start (stop - start))

let chaos_golden_path size seed =
  golden_path (Printf.sprintf "mp_chaos-%s-seed%d.txt" (size_name size) seed)

(* The check of one chaos line. A seed with a golden file must reproduce
   it line for line. Any other seed must finish every cell with the task
   count of the seed-1 golden: faults delay messages, they never change
   the task graph. *)
let chaos_check ~size ~seed =
  let by_label path field =
    let t = Hashtbl.create 256 in
    List.iter (fun l -> Hashtbl.replace t (line_label l) (field l)) (read_lines path);
    fun l -> Hashtbl.find_opt t (line_label l)
  in
  let own = chaos_golden_path size seed and first = chaos_golden_path size 1 in
  if !write_golden then fun _ -> None
  else if Sys.file_exists own then
    let golden = by_label own Fun.id in
    fun l -> if golden l = Some l then None else Some ("differs from golden: " ^ l)
  else if Sys.file_exists first then
    let tasks = by_label first tasks_field in
    fun l ->
      match tasks l with
      | Some (Some t) when tasks_field l = Some t -> None
      | _ -> Some ("task count differs from the seed-1 golden: " ^ l)
  else fatal "missing golden %s (regenerate with --write-golden)" first

let mp_chaos_workload ~size ~seed () =
  let check = chaos_check ~size ~seed in
  let r = Rn.create ~jobs:1 ~fault:(chaos_fault seed) ~replay:true size in
  fun () ->
    let samples = ref [] and render = ref 0.0 and lines = ref [] in
    List.iter
      (fun c ->
        let line, failure =
          span ~cat:"cell" (label c) (fun () ->
              let t0 = now () in
              match
                Rn.run r ~app:c.app ~machine:c.machine ~nprocs:c.nprocs
                  ~config:c.config ~placed:false
              with
              | s ->
                  let t1 = now () in
                  let line = Format.asprintf "%s %a" (label c) M.pp_summary s in
                  let t2 = now () in
                  add_span ~cat:"render" "render.summary" t1 t2;
                  samples := (t2 -. t0) :: !samples;
                  render := !render +. (t2 -. t1);
                  if s.M.give_up_count > 0 then
                    ( line,
                      Some
                        (Printf.sprintf "%s: %d give-ups" (label c)
                           s.M.give_up_count) )
                  else (line, check line)
              | exception e ->
                  samples := (now () -. t0) :: !samples;
                  ( label c ^ " raised",
                    Some
                      (Printf.sprintf "%s raised %s" (label c)
                         (Printexc.to_string e)) ))
        in
        op_result failure;
        lines := line :: !lines)
      chaos_cells;
    let text = String.concat "\n" (List.rev !lines) ^ "\n" in
    if !write_golden then write_file (chaos_golden_path size seed) text;
    let st = Rn.stats r in
    {
      samples = !samples;
      render = !render;
      out_bytes = String.length text;
      sim_events = Rn.events_simulated r;
      replayed = st.Rn.replayed_tasks;
      lookups = st.Rn.cache_lookups;
      hits = st.Rn.cache_hits;
      cache = None;
      digest = Digest.to_hex (Digest.string text);
    }

(* ------------------------------------------------------------------ *)
(* Traced runs only: the probe cells and the micro-probes. *)

let timed name f =
  let t0 = now () in
  let v = span ~cat:"probe" name f in
  (v, now () -. t0)

(* Each probe cell runs three ways on one runner: observed (kernels plus
   simulation, with occupancy), record (Runner.task_graph: records the
   group's op streams on first use, lifts the IR after) and replayed
   (simulation only, from the sealed group). The replayed summary must
   equal the observed one. [apps.kernel_share] models the cells executed
   the way the measured phase executes them: with replay on, only each
   group's first cell runs its kernels. *)
let probe ~size ~fault ~replay ~simulates cells =
  let r = Rn.create ~jobs:1 ?fault ~replay:true size in
  let kernel = ref 0.0 and record = ref 0.0 and replayed = ref 0.0 in
  let words = ref 0.0 and mode_kernel = ref 0.0 and mode_time = ref 0.0 in
  let groups = Hashtbl.create 16 in
  let observed =
    List.map
      (fun c ->
        span ~cat:"probe" ("probe." ^ label c) (fun () ->
            let (so, occ), o =
              timed "observed" (fun () ->
                  Rn.run_observed r ~app:c.app ~machine:c.machine
                    ~nprocs:c.nprocs ~config:c.config ~placed:false)
            in
            let _, rec_s =
              timed "record" (fun () ->
                  Rn.task_graph r ~app:c.app ~machine:c.machine ~nprocs:c.nprocs
                    ~placed:false)
            in
            let w0 = Gc.minor_words () in
            let sp, p =
              timed "replayed" (fun () ->
                  Rn.run r ~app:c.app ~machine:c.machine ~nprocs:c.nprocs
                    ~config:c.config ~placed:false)
            in
            words := !words +. (Gc.minor_words () -. w0);
            op_result
              (if so = sp then None
               else Some (label c ^ ": replayed summary differs from observed"));
            kernel := !kernel +. (o -. p);
            record := !record +. rec_s;
            replayed := !replayed +. p;
            let first = not (Hashtbl.mem groups (c.app, c.nprocs)) in
            Hashtbl.replace groups (c.app, c.nprocs) ();
            if replay && not first then mode_time := !mode_time +. p
            else begin
              mode_kernel := !mode_kernel +. (o -. p);
              mode_time := !mode_time +. o
            end;
            (sp, occ)))
      cells
  in
  let sum f = List.fold_left (fun acc (s, _) -> acc + f s) 0 observed in
  let sumf f = List.fold_left (fun acc (s, _) -> acc +. f s) 0.0 observed in
  let occ f = List.fold_left (fun acc (_, o) -> max acc (f o)) 0 observed in
  let events = sum (fun s -> s.M.event_count) in
  let msgs = sum (fun s -> s.M.msg_count) in
  let retransmits = sum (fun s -> s.M.retransmit_count) in
  let duplicated = sum (fun s -> s.M.duplicated_count) in
  let tasks = sum (fun s -> s.M.tasks) in
  (* Where kernels are negligible (test size) observed - replayed is
     timing noise and can dip below zero. *)
  metric "apps.kernel_s" (Float.max 0.0 !kernel);
  metric "apps.kernel_share"
    (if simulates then Float.max 0.0 (ratio !mode_kernel !mode_time) else 0.0);
  metric "replay.record_s" !record;
  metric "sim.replayed_s" !replayed;
  count "sim.events" events;
  metric "sim.events_per_s" (ratio (float_of_int events) !replayed);
  metric "sim.minor_words_per_event" (ratio !words (float_of_int events));
  count "sim.calendar_hwm" (occ (fun o -> o.M.cal_hwm));
  count "sim.calendar_rebuilds"
    (List.fold_left (fun acc (_, o) -> acc + o.M.cal_rebuilds) 0 observed);
  count "sim.now_lane_cap" (occ (fun o -> o.M.now_cap));
  count "sim.escape_hwm" (occ (fun o -> o.M.esc_hwm));
  count "net.msgs" msgs;
  metric "net.mbytes" (sumf (fun s -> s.M.comm_mbytes));
  count "net.fetches" (sum (fun s -> s.M.fetches));
  count "net.broadcasts" (sum (fun s -> s.M.broadcast_count));
  count "net.eager" (sum (fun s -> s.M.eager_count));
  count "net.retransmits" retransmits;
  count "net.acks" (sum (fun s -> s.M.ack_count));
  count "net.dropped" (sum (fun s -> s.M.dropped_count));
  count "net.duplicated" duplicated;
  count "net.give_ups" (sum (fun s -> s.M.give_up_count));
  metric "net.useful_ratio"
    (ratio (float_of_int (msgs - retransmits - duplicated)) (float_of_int msgs));
  count "net.pool_hwm" (occ (fun o -> o.M.pool_hwm));
  count "net.msg_cells" (occ (fun o -> o.M.msg_cells));
  count "sched.tasks" tasks;
  count "sched.steals" (sum (fun s -> s.M.steal_count));
  metric "sched.locality_pct"
    (ratio (sumf (fun s -> s.M.locality_pct *. float_of_int s.M.tasks)) (float_of_int tasks))

(* Flat events through register_op / schedule_op_at / run: [chains]
   self-rescheduling events with a spread of delays that keeps the
   calendar populated. *)
let micro_engine n =
  let eng = Engine.create () in
  let chains = 256 and fired = ref 0 and op = ref 0 in
  op :=
    Engine.register_op eng (fun arg ->
        incr fired;
        if !fired <= n - chains then
          Engine.schedule_op_at eng ~op:!op
            ~arg:(((arg * 7) + 3) land 1023)
            (Engine.now eng +. (1e-6 *. float_of_int (1 + arg))));
  for i = 0 to chains - 1 do
    Engine.schedule_op_at eng ~op:!op ~arg:i (1e-6 *. float_of_int i)
  done;
  let t0 = now () in
  let events = Engine.run eng in
  metric "sim.ns_per_event" (1e9 *. ratio (now () -. t0) (float_of_int events))

(* Fabric.post -> handler on a 64-node hypercube with iPSC/860 costs: one
   message chain per node, each delivery posting the next hop. *)
let micro_fabric n =
  let eng = Engine.create () in
  let nodes = 64 in
  let c = Jade_machines.Costs.ipsc860 in
  let fab =
    Fabric.create eng ~dummy:0
      ~nodes:(Array.init nodes (Jade_machines.Mnode.create eng))
      ~topology:(Jade_net.Topology.hypercube nodes)
      ~startup:c.Jade_machines.Costs.msg_startup
      ~bandwidth:c.Jade_machines.Costs.bandwidth
      ~hop_latency:c.Jade_machines.Costs.hop_latency
  in
  let delivered = ref 0 in
  let post src hop =
    Fabric.post fab ~src ~dst:((src + 1 + (hop mod (nodes - 1))) mod nodes)
      ~size:64 ~tag:Jade_net.Tag.Obj (hop + 1)
  in
  for p = 0 to nodes - 1 do
    Fabric.set_handler fab p (fun m ->
        incr delivered;
        if !delivered <= n - nodes then post p m.Fabric.body)
  done;
  for p = 0 to nodes - 1 do
    post p p
  done;
  let t0 = now () in
  ignore (Engine.run eng);
  metric "net.ns_per_msg" (1e9 *. ratio (now () -. t0) (float_of_int !delivered))

(* ------------------------------------------------------------------ *)

let print_result ~workload ~seed ~size digest =
  let fields =
    List.rev_map
      (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) (json_number v))
      !metrics
  in
  let errors = List.filteri (fun i _ -> i < 10) (List.rev !errors) in
  Printf.printf
    "{\"workload\": %s, \"seed\": %d, \"size\": %s, \"ops\": %d, \
     \"failed_ops\": %d, \"errors\": [%s], \"digest\": %s, \"metrics\": {%s}}\n\
     %!"
    (json_string workload) seed (json_string size) !ops !failed_ops
    (String.concat ", " (List.map json_string errors))
    (json_string digest) (String.concat ", " fields)

let () =
  let workload = ref "" and seed = ref 1 and size = ref "bench" in
  let spawned_at = ref Float.nan and trace = ref "" in
  let usage =
    "suite.exe --workload regen|regen_warm|regen_kernels|mp_chaos [options]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W workload to run");
      ("--seed", Arg.Set_int seed, "S seed of the mp_chaos fault plan (default 1)");
      ("--size", Arg.Symbol ([ "bench"; "test" ], ( := ) size), " problem size");
      ("--spawned-at", Arg.Set_float spawned_at,
       "EPOCH when the parent spawned this process (start of set-up)");
      ("--golden", Arg.Set_string golden_dir, "DIR golden outputs");
      ("--write-golden", Arg.Set write_golden, " write the goldens instead of checking");
      ("--trace", Arg.Set_string trace, "FILE run the probes, write spans to FILE");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let kind =
    match !workload with
    | "regen" -> Regen
    | "regen_warm" -> Regen_warm
    | "regen_kernels" -> Regen_kernels
    | "mp_chaos" -> Mp_chaos
    | w ->
        prerr_endline ("suite: unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  let sz = if !size = "test" then Rn.Test else Rn.Bench in
  let origin = if Float.is_nan !spawned_at then started else !spawned_at in
  tracing := !trace <> "";
  match
    let measure =
      match kind with
      | Regen -> regen_workload ~size:sz ~replay:true ()
      | Regen_kernels -> regen_workload ~size:sz ~replay:false ()
      | Regen_warm -> regen_warm_workload ~size:sz ()
      | Mp_chaos -> mp_chaos_workload ~size:sz ~seed:!seed ()
    in
    let t_measure = now () in
    add_span "setup" origin t_measure;
    let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
    let m = span "measure" measure in
    let gc = Gc.quick_stat () in
    let wall = List.fold_left ( +. ) 0.0 m.samples in
    metric "wall_s" wall;
    metric "setup_s" (t_measure -. origin);
    metric "peak_heap_mb" (float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
    metric "op_ms_p50" (1e3 *. median m.samples);
    metric "op_ms_tail" (1e3 *. tail m.samples);
    count "op_samples" (List.length m.samples);
    metric "trace.wall_s" wall;
    metric "runner.compute_s" (wall -. m.render);
    count "runner.events" m.sim_events;
    count "replay.replayed_tasks" m.replayed;
    count "runcache.lookups" m.lookups;
    count "runcache.hits" m.hits;
    metric "runcache.hit_ratio" (ratio (float_of_int m.hits) (float_of_int m.lookups));
    let entries, bytes =
      match m.cache with Some c -> Runcache.dir_stats c | None -> (0, 0)
    in
    count "runcache.entries" entries;
    count "runcache.bytes" bytes;
    metric "report.render_s" m.render;
    count "report.bytes" m.out_bytes;
    metric "gc.minor_mwords" ((Gc.minor_words () -. minor0) /. 1e6);
    count "gc.major_collections" (gc.Gc.major_collections - major0);
    Option.iter
      (fun c ->
        ignore (Runcache.clear c);
        try Unix.rmdir (Runcache.dir c) with Unix.Unix_error _ -> ())
      m.cache;
    if !tracing then begin
      let fault, cells =
        match kind with
        | Mp_chaos -> (Some (chaos_fault !seed), chaos_cells)
        | _ -> (None, probe_cells_regen)
      in
      span "probe" (fun () ->
          probe ~size:sz ~fault ~replay:(kind <> Regen_kernels)
            ~simulates:(m.sim_events > 0) cells);
      let scale = match sz with Rn.Test -> 1 | _ -> 10 in
      span "micro.engine" (fun () -> micro_engine (scale * 50_000));
      span "micro.fabric" (fun () -> micro_fabric (scale * 20_000));
      add_span "run" origin (now ());
      write_trace !trace ~origin
    end;
    m.digest
  with
  | digest ->
      print_result ~workload:!workload ~seed:!seed ~size:!size digest;
      exit (if !failed_ops = 0 then 0 else 1)
  | exception Fatal reason ->
      prerr_endline ("suite: " ^ reason);
      exit 2
