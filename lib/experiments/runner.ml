open Jade_apps

type app = Water | String_ | Ocean | Cholesky

type machine = Dash | Ipsc | Lan

type size = Test | Bench | Paper

type level = Tp | Loc | Noloc

let app_name = function
  | Water -> "Water"
  | String_ -> "String"
  | Ocean -> "Ocean"
  | Cholesky -> "Panel Cholesky"

let machine_name = function
  | Dash -> "DASH"
  | Ipsc -> "iPSC/860"
  | Lan -> "LAN"

let level_name = function
  | Tp -> "Task Placement"
  | Loc -> "Locality"
  | Noloc -> "No Locality"

let all_apps = [ Water; String_; Ocean; Cholesky ]

let procs = [ 1; 2; 4; 8; 16; 24; 32 ]

let config_of_level level =
  match level with
  | Tp -> { Jade.Config.default with Jade.Config.locality = Jade.Config.Task_placement }
  | Loc -> Jade.Config.default
  | Noloc -> { Jade.Config.default with Jade.Config.locality = Jade.Config.No_locality }

let levels_for = function
  | Water | String_ -> [ Loc; Noloc ]
  | Ocean | Cholesky -> [ Tp; Loc; Noloc ]

(* Scaled problem instances. [Bench] keeps the paper's data-set geometry
   where it matters for communication (object sizes) while trimming
   iteration counts and ray/pair volume so the full harness finishes in
   minutes. *)
let water_params = function
  | Test -> Jade_apps.Water.test_params
  | Bench -> { Jade_apps.Water.paper_params with Jade_apps.Water.iters = 2 }
  | Paper -> Jade_apps.Water.paper_params

let string_params = function
  | Test -> String_app.test_params
  | Bench -> String_app.bench_params
  | Paper -> String_app.paper_params

let ocean_params = function
  | Test -> Jade_apps.Ocean.test_params
  | Bench -> { Jade_apps.Ocean.paper_params with Jade_apps.Ocean.iters = 50 }
  | Paper -> Jade_apps.Ocean.paper_params

let cholesky_params = function
  | Test -> Jade_apps.Cholesky.test_params
  | Bench -> Jade_apps.Cholesky.bench_params
  | Paper -> Jade_apps.Cholesky.paper_params

type key = {
  k_app : app;
  k_machine : machine;
  k_nprocs : int;
  k_config : Jade.Config.t;
  k_placed : bool;
}

(* A unit of cacheable work discovered during a planning pass. [Custom]
   names a caller-registered thunk (see {!run_custom}); the name, not the
   closure, lives in the work list so plans stay comparable/sortable. *)
type work =
  | Sim of key
  | Serial_flops of app
  | Total_flops of app
  | Custom of string

(* The replay group of a simulation: within a fixed (app, nprocs, placed)
   — the runner already fixes the size — every machine and optimization
   configuration creates the identical task graph and numeric work, so one
   recorded run's per-task op streams replay for all of them. [work_free]
   configs are excluded (their bodies never execute, so they neither
   record nor need the recorded kernels). *)
type group = { g_app : app; g_nprocs : int; g_placed : bool }

type stats = { cache_lookups : int; cache_hits : int; replayed_tasks : int }

type t = {
  sz : size;
  jobs : int;
  fault : Jade_net.Fault.spec option;
      (** chaos plan folded into every run's config (before the memo key is
          built, so chaos results never alias fault-free ones) *)
  graph_opt : Jade.Config.graph_opt option;
      (** task-graph transformation selection folded into every run's
          config, like [fault] — it participates in both cache keys *)
  use_replay : bool;  (** cross-configuration record/replay enabled *)
  disk : Runcache.t option;  (** persistent result cache, when configured *)
  lock : Mutex.t;  (** guards every mutable field below *)
  cache : (key, Jade.Metrics.summary) Hashtbl.t;
  serial_flops : (app, float) Hashtbl.t;
  total_flops : (app, float) Hashtbl.t;
  customs : (string, unit -> float) Hashtbl.t;
      (** thunks registered by {!run_custom} during a planning pass *)
  custom_results : (string, float) Hashtbl.t;
  stores : (group, Jade.Replay.store) Hashtbl.t;
  tstores : (group, Jade.Replay.store) Hashtbl.t;
      (** cluster-transformed stores, derived once per group from the
          group's sealed base store *)
  mutable plan : work list option;
      (** [Some acc] while a {!parallel} planning pass records the runs a
          computation needs (reversed); [None] during normal execution *)
  mutable events : int;  (** engine events across every simulation executed *)
  mutable n_cache_lookups : int;  (** disk-cache probes *)
  mutable n_cache_hits : int;  (** disk-cache probes that hit *)
  mutable n_replayed_tasks : int;  (** task bodies replayed, not executed *)
}

let create ?jobs ?fault ?graph_opt ?cache_dir ?(replay = true) sz =
  let jobs = match jobs with Some j -> max 1 j | None -> Pool.default_jobs () in
  (match graph_opt with
  | Some g when g <> Jade.Config.Gr_none && not replay ->
      invalid_arg
        "Runner.create: graph transformation (--graph-opt) replays \
         transformed op streams, so it requires record/replay (--replay on)"
  | _ -> ());
  {
    sz;
    jobs;
    fault;
    graph_opt;
    use_replay = replay;
    disk = Option.map (fun dir -> Runcache.create ~dir) cache_dir;
    lock = Mutex.create ();
    cache = Hashtbl.create 64;
    serial_flops = Hashtbl.create 8;
    total_flops = Hashtbl.create 8;
    customs = Hashtbl.create 8;
    custom_results = Hashtbl.create 8;
    stores = Hashtbl.create 16;
    tstores = Hashtbl.create 16;
    plan = None;
    events = 0;
    n_cache_lookups = 0;
    n_cache_hits = 0;
    n_replayed_tasks = 0;
  }

let size t = t.sz

let jobs t = t.jobs

let locked t f = Mutex.protect t.lock f

let events_simulated t = locked t (fun () -> t.events)

let note_events t n = locked t (fun () -> t.events <- t.events + n)

let stats t =
  locked t (fun () ->
      {
        cache_lookups = t.n_cache_lookups;
        cache_hits = t.n_cache_hits;
        replayed_tasks = t.n_replayed_tasks;
      })

let cache_dir t = Option.map Runcache.dir t.disk

let flush_cache_stats t =
  match t.disk with
  | None -> ()
  | Some d ->
      let s = stats t in
      Runcache.write_last_run d ~lookups:s.cache_lookups ~hits:s.cache_hits

let jade_machine = function
  | Dash -> Jade.Runtime.dash
  | Ipsc -> Jade.Runtime.ipsc860
  | Lan -> Jade.Runtime.lan

let kind_of = function Dash -> App_common.Shm | Ipsc | Lan -> App_common.Mp

let flops_of = function
  | Dash -> Jade_machines.Costs.(dash.flops_shm)
  | Ipsc -> Jade_machines.Costs.(ipsc860.flops)
  | Lan -> Jade_machines.Costs.(workstation_lan.flops)

let make_program t app ~kind ~placed ~nprocs =
  match app with
  | Water ->
      fst (Jade_apps.Water.make (water_params t.sz) ~kind ~placed ~nprocs)
  | String_ -> fst (String_app.make (string_params t.sz) ~kind ~placed ~nprocs)
  | Ocean -> fst (Jade_apps.Ocean.make (ocean_params t.sz) ~kind ~placed ~nprocs)
  | Cholesky ->
      fst (Jade_apps.Cholesky.make (cholesky_params t.sz) ~kind ~placed ~nprocs)

(* ------------------------------------------------------------------ *)
(* Persistent cache addressing. A work unit's identity is everything
   that can change its result: the schema version (in the entry header),
   the app and its actual size parameters (marshalled, so a retuned
   Bench instance invalidates naturally), the machine, the processor
   count, the placement variant, and the complete [Jade.Config] —
   including the fault spec, because a chaos run and a clean run of the
   same cell are different computations with different summaries. *)

let params_blob t = function
  | Water -> Marshal.to_string (water_params t.sz) []
  | String_ -> Marshal.to_string (string_params t.sz) []
  | Ocean -> Marshal.to_string (ocean_params t.sz) []
  | Cholesky -> Marshal.to_string (cholesky_params t.sz) []

let sim_parts t key =
  [
    "sim";
    app_name key.k_app;
    params_blob t key.k_app;
    machine_name key.k_machine;
    string_of_int key.k_nprocs;
    (if key.k_placed then "placed" else "unplaced");
    Marshal.to_string key.k_config [];
  ]

let flops_parts t tag app = [ tag; app_name app; params_blob t app ]

(* Custom units are addressed purely by the caller's key string: the
   caller must encode every input of the computation in it (including
   problem scale if the thunk depends on the runner's size). *)
let custom_parts name = [ "custom"; name ]

let disk_find t parts =
  match t.disk with
  | None -> None
  | Some d ->
      let r = Runcache.find d ~digest:(Runcache.digest_key parts) in
      locked t (fun () ->
          t.n_cache_lookups <- t.n_cache_lookups + 1;
          if r <> None then t.n_cache_hits <- t.n_cache_hits + 1);
      r

let disk_store t parts v =
  match t.disk with
  | None -> ()
  | Some d -> Runcache.store d ~digest:(Runcache.digest_key parts) v

(* ------------------------------------------------------------------ *)
(* Raw computation of each work unit. These are what pool workers
   execute: they touch runner state only under the lock, so they can run
   on any domain. *)

let size_name = function Test -> "test" | Bench -> "bench" | Paper -> "paper"

let group_label t g =
  Printf.sprintf "%s p%d %s @%s" (app_name g.g_app) g.g_nprocs
    (if g.g_placed then "placed" else "unplaced")
    (size_name t.sz)

let group_of key =
  { g_app = key.k_app; g_nprocs = key.k_nprocs; g_placed = key.k_placed }

(* The replay handle for one simulation: the group's first simulated run
   records (it created the group's store), later runs replay from the
   sealed store. A concurrently-recording (unsealed) store yields no
   handle — the run executes its bodies for real, which is always
   correct, just not accelerated. *)
let replay_handle t key =
  if (not t.use_replay) || key.k_config.Jade.Config.work_free then None
  else
    locked t (fun () ->
        let g = group_of key in
        match Hashtbl.find_opt t.stores g with
        | Some store ->
            if Jade.Replay.sealed store then Some (Jade.Replay.replayer store)
            else None
        | None ->
            let store = Jade.Replay.create_store ~label:(group_label t g) () in
            Hashtbl.add t.stores g store;
            Some (Jade.Replay.recorder store))

(* Execute one simulation against an explicit replay handle (or none). *)
let run_sim t key handle =
  let program =
    make_program t key.k_app ~kind:(kind_of key.k_machine)
      ~placed:key.k_placed ~nprocs:key.k_nprocs
  in
  Jade.Runtime.run ?replay:handle ~config:key.k_config
    ~machine:(jade_machine key.k_machine) ~nprocs:key.k_nprocs program

(* The untransformed path: exactly the pre-IR behavior. *)
let simulate_base t key =
  let handle = replay_handle t key in
  let s = run_sim t key handle in
  (match handle with
  | None -> ()
  | Some h -> (
      match Jade.Replay.mode h with
      | Jade.Replay.Record ->
          (* Poisoned or not, seal: replayers of a poisoned store fall
             back to executing every body, which is still correct. *)
          Jade.Replay.seal (Jade.Replay.store_of h)
      | Jade.Replay.Replay ->
          locked t (fun () ->
              t.n_replayed_tasks <-
                t.n_replayed_tasks + Jade.Replay.replayed h)));
  s

(* ------------------------------------------------------------------ *)
(* Graph-transformed simulation. A cell whose config selects the graph
   optimization needs the group's op streams before it can run at all:
   the pass rewrites the recorded graph and the run replays the
   transformed store (placement overrides ride the replay handle into the
   unmodified runtime). *)

(* A sealed base store for the group, recording one (its summary is
   discarded, its events counted) if no prior run has. The warm-phase
   partition runs at most one simulation per group concurrently, so the
   `Busy` arm — another domain mid-recording — is unreachable from
   {!parallel}; direct concurrent callers fall back to a private
   recording, which is slower but correct. *)
let ensure_group_store t key =
  let g = group_of key in
  let claim =
    locked t (fun () ->
        match Hashtbl.find_opt t.stores g with
        | Some store when Jade.Replay.sealed store -> `Sealed store
        | Some _ -> `Busy
        | None ->
            let store = Jade.Replay.create_store ~label:(group_label t g) () in
            Hashtbl.add t.stores g store;
            `Record store)
  in
  let record store =
    let s = run_sim t key (Some (Jade.Replay.recorder store)) in
    Jade.Replay.seal store;
    locked t (fun () -> t.events <- t.events + s.Jade.Metrics.event_count);
    store
  in
  match claim with
  | `Sealed store -> store
  | `Record store -> record store
  | `Busy -> record (Jade.Replay.create_store ~label:(group_label t g) ())

(* The cluster-transformed store for the group, derived once from the
   sealed base store under the runner lock (the pass is deterministic, so
   any domain deriving it produces the same store). *)
let transformed_store t key store =
  let g = group_of key in
  locked t (fun () ->
      match Hashtbl.find_opt t.tstores g with
      | Some ts -> ts
      | None ->
          let graph =
            match Jade.Replay.graph store with
            | Some graph -> graph
            | None -> assert false (* caller checked the store is clean *)
          in
          let res = Jade_graph.Passes.cluster graph in
          let ts = Jade.Replay.of_graph res.Jade_graph.Passes.graph in
          Hashtbl.add t.tstores g ts;
          ts)

let simulate_transformed t key =
  let store = ensure_group_store t key in
  if Jade.Replay.poisoned store then
    (* Some body created tasks or objects mid-run: the group has no
       liftable graph. Run untransformed — the store already warned. *)
    simulate_base t key
  else begin
    let ts = transformed_store t key store in
    let h = Jade.Replay.replayer ts in
    let s = run_sim t key (Some h) in
    locked t (fun () ->
        t.n_replayed_tasks <- t.n_replayed_tasks + Jade.Replay.replayed h);
    s
  end

let simulate t key =
  let config = key.k_config in
  if
    config.Jade.Config.graph_opt = Jade.Config.Gr_none
    || config.Jade.Config.work_free
  then simulate_base t key
  else if not t.use_replay then
    invalid_arg
      "Runner: graph transformation (--graph-opt) replays transformed op \
       streams, so it requires record/replay (--replay on)"
  else simulate_transformed t key

(* Disk-aware computation: the boolean reports whether a simulation
   actually ran (a disk hit must not count engine events). *)
let compute_sim t key =
  match disk_find t (sim_parts t key) with
  | Some (Runcache.Summary s) -> (s, false)
  | Some (Runcache.Flops _) | None ->
      let s = simulate t key in
      disk_store t (sim_parts t key) (Runcache.Summary s);
      (s, true)

let flops_cached t parts compute =
  match disk_find t parts with
  | Some (Runcache.Flops f) -> f
  | Some (Runcache.Summary _) | None ->
      let f = compute () in
      disk_store t parts (Runcache.Flops f);
      f

let compute_serial_flops t app =
  flops_cached t
    (flops_parts t "serial_flops" app)
    (fun () ->
      (* The [serial_flops] variants produce bit-identical numbers to
         [snd (serial ...)] without executing the serial numerics, which
         only the (discarded) result needs. *)
      match app with
      | Water -> Jade_apps.Water.serial_flops (water_params t.sz)
      | String_ -> String_app.serial_flops (string_params t.sz)
      | Ocean -> Jade_apps.Ocean.serial_flops (ocean_params t.sz) ~nprocs:32
      | Cholesky -> Jade_apps.Cholesky.serial_flops (cholesky_params t.sz))

let compute_total_flops t app =
  flops_cached t
    (flops_parts t "total_flops" app)
    (fun () ->
      match app with
      | Water -> Jade_apps.Water.total_work (water_params t.sz) ~nprocs:1
      | String_ -> String_app.total_work (string_params t.sz) ~nprocs:1
      | Ocean -> Jade_apps.Ocean.total_work (ocean_params t.sz) ~nprocs:32
      | Cholesky ->
          Jade_apps.Cholesky.total_work (cholesky_params t.sz) ~nprocs:1)

let compute_custom t name =
  match disk_find t (custom_parts name) with
  | Some (Runcache.Flops f) -> f
  | Some (Runcache.Summary _) | None ->
      let thunk =
        match locked t (fun () -> Hashtbl.find_opt t.customs name) with
        | Some f -> f
        | None -> invalid_arg ("Runner: unregistered custom work unit " ^ name)
      in
      let f = thunk () in
      disk_store t (custom_parts name) (Runcache.Flops f);
      f

(* ------------------------------------------------------------------ *)
(* Cache (domain-safe: results computed off the main domain are merged
   under the lock, keyed and deduplicated, so cache contents — and the
   tables rendered from them — are independent of completion order). *)

let cache_add_sim t key s ~simulated =
  locked t (fun () ->
      if not (Hashtbl.mem t.cache key) then begin
        Hashtbl.add t.cache key s;
        if simulated then t.events <- t.events + s.Jade.Metrics.event_count
      end)

(* Placeholder returned while planning: a clearly-poisoned summary. The
   values are never rendered (the replay pass recomputes against the warm
   cache; {!Report.render} asserts no poisoned cell leaks); NaN-free and
   negative so planning-pass arithmetic and sign guards stay
   well-behaved. *)
let planning_summary =
  let p = Report.poison and pi = Report.poison_int in
  {
    Jade.Metrics.tasks = pi;
    elapsed_s = p;
    locality_pct = p;
    task_time_s = p;
    compute_time_s = p;
    comm_time_s = p;
    comm_mbytes = p;
    comm_to_comp = p;
    msg_count = pi;
    fetches = pi;
    object_latency_s = p;
    task_latency_s = p;
    latency_ratio = p;
    broadcast_count = pi;
    eager_count = pi;
    steal_count = pi;
    event_count = 0;
    retransmit_count = pi;
    ack_count = pi;
    give_up_count = pi;
    dropped_count = pi;
    duplicated_count = pi;
    crash_injected_count = pi;
    crash_detected_count = pi;
    reexecuted_count = pi;
    reconstructed_count = pi;
    recovery_s = p;
  }

let record t w =
  match t.plan with
  | Some acc -> t.plan <- Some (w :: acc)
  | None -> assert false

(* Fold the runner-wide fault plan and graph-opt selection into a run's
   config before the memo key is built — both change the computation, so
   both live in the key. *)
let with_overrides t (config : Jade.Config.t) =
  let config =
    match t.fault with
    | None -> config
    | Some f -> { config with Jade.Config.fault = Some f }
  in
  match t.graph_opt with
  | None -> config
  | Some g -> { config with Jade.Config.graph_opt = g }

let run t ~app ~machine ~nprocs ~config ~placed =
  let config = with_overrides t config in
  let key =
    { k_app = app; k_machine = machine; k_nprocs = nprocs; k_config = config;
      k_placed = placed }
  in
  match locked t (fun () -> Hashtbl.find_opt t.cache key) with
  | Some s -> s
  | None ->
      if t.plan <> None then begin
        record t (Sim key);
        planning_summary
      end
      else begin
        let s, simulated = compute_sim t key in
        cache_add_sim t key s ~simulated;
        s
      end

(* An observed run bypasses the cache and replay like a traced one: it
   wants a real execution, plus the raw metrics' occupancy snapshot —
   pool/calendar/now-lane high-water marks a cached summary cannot
   carry. *)
let run_observed t ~app ~machine ~nprocs ~config ~placed =
  let config = with_overrides t config in
  let program = make_program t app ~kind:(kind_of machine) ~placed ~nprocs in
  let s, occ =
    Jade.Runtime.run_with ~config ~machine:(jade_machine machine) ~nprocs
      program
      ~inspect:(fun _ m -> Jade.Metrics.occupancy m)
  in
  locked t (fun () -> t.events <- t.events + s.Jade.Metrics.event_count);
  (s, occ)

(* A traced run bypasses the cache and replay: tracing mutates external
   state and wants the real execution. *)
let run_traced t ~trace ~app ~machine ~nprocs ~config ~placed =
  let config = with_overrides t config in
  let program = make_program t app ~kind:(kind_of machine) ~placed ~nprocs in
  let s =
    Jade.Runtime.run ~config ~trace ~machine:(jade_machine machine) ~nprocs
      program
  in
  locked t (fun () -> t.events <- t.events + s.Jade.Metrics.event_count);
  s

let run_level t ~app ~machine ~nprocs ~level =
  let placed = level = Tp in
  run t ~app ~machine ~nprocs ~config:(config_of_level level) ~placed

let flops_memo t table compute_it work_of app =
  match locked t (fun () -> Hashtbl.find_opt table app) with
  | Some f -> f
  | None ->
      if t.plan <> None then begin
        record t (work_of app);
        Report.poison
      end
      else begin
        let f = compute_it t app in
        locked t (fun () ->
            if not (Hashtbl.mem table app) then Hashtbl.add table app f);
        f
      end

let serial_flops t app =
  flops_memo t t.serial_flops compute_serial_flops (fun a -> Serial_flops a) app

let total_flops t app =
  flops_memo t t.total_flops compute_total_flops (fun a -> Total_flops a) app

let serial_time t ~app ~machine = serial_flops t app /. flops_of machine

let stripped_time t ~app ~machine = total_flops t app /. flops_of machine

let run_custom t ~key:name thunk =
  match locked t (fun () -> Hashtbl.find_opt t.custom_results name) with
  | Some v -> v
  | None ->
      if t.plan <> None then begin
        locked t (fun () -> Hashtbl.replace t.customs name thunk);
        record t (Custom name);
        Report.poison
      end
      else begin
        locked t (fun () -> Hashtbl.replace t.customs name thunk);
        let v = compute_custom t name in
        locked t (fun () ->
            if not (Hashtbl.mem t.custom_results name) then
              Hashtbl.add t.custom_results name v);
        v
      end

(* Lift one program's recorded execution into its task-graph IR, for the
   CLI's [graph] subcommand and the tests. Reuses (or creates and seals)
   the group's replay store, so a later [run] of the same group replays
   instead of re-recording. *)
let task_graph t ~app ~machine ~nprocs ~placed =
  let config =
    {
      (with_overrides t Jade.Config.default) with
      Jade.Config.graph_opt = Jade.Config.Gr_none;
    }
  in
  let key =
    { k_app = app; k_machine = machine; k_nprocs = nprocs; k_config = config;
      k_placed = placed }
  in
  let store = ensure_group_store t key in
  if Jade.Replay.poisoned store then
    Error
      (Printf.sprintf "%s: a task created tasks or objects mid-execution; \
                       the op streams do not lift into a static graph"
         (group_label t (group_of key)))
  else
    match Jade.Replay.graph store with
    | Some g -> Ok g
    | None -> Error "store poisoned during lifting"
    | exception Invalid_argument e -> Error e

let task_management_pct t ~app ~machine ~nprocs ~level =
  let placed = level = Tp in
  let config = config_of_level level in
  let orig = run t ~app ~machine ~nprocs ~config ~placed in
  let wf_config = { config with Jade.Config.work_free = true } in
  let wf = run t ~app ~machine ~nprocs ~config:wf_config ~placed in
  if orig.Jade.Metrics.elapsed_s <= 0.0 then 0.0
  else 100.0 *. wf.Jade.Metrics.elapsed_s /. orig.Jade.Metrics.elapsed_s

(* ------------------------------------------------------------------ *)
(* Parallel evaluation: plan, warm, replay. *)

type warm_result =
  | W_sim of Jade.Metrics.summary * bool
  | W_flops of float
  | W_custom of float

let not_cached t = function
  | Sim key -> locked t (fun () -> not (Hashtbl.mem t.cache key))
  | Serial_flops app -> locked t (fun () -> not (Hashtbl.mem t.serial_flops app))
  | Total_flops app -> locked t (fun () -> not (Hashtbl.mem t.total_flops app))
  | Custom name -> locked t (fun () -> not (Hashtbl.mem t.custom_results name))

let warm_phase t works =
  if works <> [] then begin
    let thunks =
      List.map
        (fun w () ->
          match w with
          | Sim key ->
              let s, simulated = compute_sim t key in
              W_sim (s, simulated)
          | Serial_flops app -> W_flops (compute_serial_flops t app)
          | Total_flops app -> W_flops (compute_total_flops t app)
          | Custom name -> W_custom (compute_custom t name))
        works
    in
    let results = Pool.run ~jobs:t.jobs thunks in
    List.iter2
      (fun w r ->
        match (w, r) with
        | Sim key, W_sim (s, simulated) -> cache_add_sim t key s ~simulated
        | Serial_flops app, W_flops f ->
            locked t (fun () ->
                if not (Hashtbl.mem t.serial_flops app) then
                  Hashtbl.add t.serial_flops app f)
        | Total_flops app, W_flops f ->
            locked t (fun () ->
                if not (Hashtbl.mem t.total_flops app) then
                  Hashtbl.add t.total_flops app f)
        | Custom name, W_custom f ->
            locked t (fun () ->
                if not (Hashtbl.mem t.custom_results name) then
                  Hashtbl.add t.custom_results name f)
        | _ -> assert false)
      works results
  end

let warm t works =
  let works = List.sort_uniq compare works in
  let works = List.filter (not_cached t) works in
  (* Two phases: each replay group's representative must finish recording
     (and seal its store) before the group's other configurations can
     replay from it. Phase one holds one simulation per group plus all
     ungroupable work; phase two holds the replayers. *)
  let seen = Hashtbl.create 16 in
  let phase1, phase2 =
    List.partition
      (fun w ->
        match w with
        | Sim k when t.use_replay && not k.k_config.Jade.Config.work_free ->
            let g =
              { g_app = k.k_app; g_nprocs = k.k_nprocs; g_placed = k.k_placed }
            in
            if Hashtbl.mem seen g then false
            else begin
              Hashtbl.add seen g ();
              true
            end
        | _ -> true)
      works
  in
  warm_phase t phase1;
  warm_phase t phase2

let parallel t f =
  match t.plan with
  | Some _ ->
      (* Nested inside an enclosing planning pass: keep recording; the
         outermost [parallel] performs the warming. *)
      f ()
  | None ->
      (* Pass 1 — plan: execute [f] against the cache, recording every
         uncached run it asks for (cheap placeholders are returned instead
         of simulating). A planning-pass exception just truncates the
         plan; the replay pass re-raises it for real. Fatal conditions
         are the exception to that rule: swallowing [Out_of_memory] or
         [Stack_overflow] leaves the heap/stack in a state the replay
         can't trust, and a failed [assert] is a programming error that
         must never be masked — all three propagate immediately. *)
      t.plan <- Some [];
      (try ignore (f ()) with
      | (Out_of_memory | Stack_overflow | Assert_failure _) as fatal ->
          t.plan <- None;
          raise fatal
      | _ -> ());
      let works =
        match t.plan with Some acc -> List.rev acc | None -> assert false
      in
      t.plan <- None;
      (* Pass 2 — warm: run the recorded work across domains and merge the
         results into the cache, keyed and deduplicated. *)
      warm t works;
      (* Pass 3 — replay [f] against the warm cache: pure cache hits, in
         [f]'s own sequential order, so the result is byte-identical to a
         fully sequential evaluation whatever [jobs] is. *)
      f ()
