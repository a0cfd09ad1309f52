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

(* The identity of one memoized result. [Custom] names a caller-supplied
   computation (see {!run_custom}) by the caller's key string. The memo
   compares ids structurally; the disk cache digests them marshalled. *)
type id =
  | Sim of key
  | Serial_flops of app
  | Total_flops of app
  | Custom of string

type stats = { cache_lookups : int; cache_hits : int; replayed_tasks : int }

type t = {
  sz : size;
  jobs : int;
  fault : Jade_net.Fault.spec option;
      (** chaos plan folded into every run's config (before the memo key is
          built, so chaos results never alias fault-free ones) *)
  kernels : bool;  (** memoized runs execute kernel bodies ([--replay off]) *)
  disk : Runcache.t option;  (** persistent result cache, when configured *)
  params : string;
      (** the MD5 of the four apps' parameters at [sz], marshalled: the
          prefix of every disk key *)
  lock : Mutex.t;  (** guards every mutable field below *)
  results : (id, Runcache.value) Hashtbl.t;
  absent : (id, unit) Hashtbl.t;  (** ids the disk cache was asked for and lacks *)
  mutable plan : (id * (unit -> Runcache.value)) list option;
      (** [Some acc] while a {!parallel} planning pass records the results
          a computation needs that neither the memo nor the disk cache
          holds; [None] during normal execution *)
  mutable events : int;  (** engine events across every simulation executed *)
  mutable n_cache_lookups : int;  (** disk-cache probes *)
  mutable n_cache_hits : int;  (** disk-cache probes that hit *)
  mutable n_skipped : int;  (** kernel bodies skipped, not executed *)
}

let create ?jobs ?fault ?cache_dir ?(replay = true) sz =
  let jobs = match jobs with Some j -> max 1 j | None -> Pool.default_jobs () in
  {
    sz;
    jobs;
    fault;
    kernels = not replay;
    disk = Option.map (fun dir -> Runcache.create ~dir) cache_dir;
    params =
      Digest.string
        (Marshal.to_string
           (water_params sz, string_params sz, ocean_params sz, cholesky_params sz)
           [ Marshal.No_sharing ]);
    lock = Mutex.create ();
    results = Hashtbl.create 64;
    absent = Hashtbl.create 64;
    plan = None;
    events = 0;
    n_cache_lookups = 0;
    n_cache_hits = 0;
    n_skipped = 0;
  }

let locked t f = Mutex.protect t.lock f

let events_simulated t = locked t (fun () -> t.events)

let stats t =
  locked t (fun () ->
      {
        cache_lookups = t.n_cache_lookups;
        cache_hits = t.n_cache_hits;
        replayed_tasks = t.n_skipped;
      })

let flush_cache_stats t =
  let s = stats t in
  Option.iter (Runcache.write_last_run ~lookups:s.cache_lookups ~hits:s.cache_hits) t.disk

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
(* The disk cache. A result's disk identity is everything that can change
   it: the schema version (in the segment header), the apps' actual size
   parameters (so a retuned Bench instance invalidates naturally) and the
   id — for a simulation the app, machine, processor count, placement
   variant and complete [Jade.Config], fault spec included, because a
   chaos run and a clean run of the same cell are different computations.
   [Custom] ids are their caller's key string, which must encode every
   other input of the computation. The key is the parameters' 16-byte
   MD5 (fixed length, so it cannot alias the id after it) followed by
   the id marshalled [No_sharing]: [Marshal] shares only physically
   equal blocks, so two equal ids built differently (fault specs holding
   separately boxed equal floats) would otherwise marshal differently. *)
let disk_key t id = t.params ^ Marshal.to_string id [ Marshal.No_sharing ]

(* Persist freshly computed results as one segment. *)
let persist t results =
  let store d = Runcache.store d (List.map (fun (id, v) -> (disk_key t id, v)) results) in
  Option.iter (fun d -> locked t (fun () -> store d)) t.disk

(* ------------------------------------------------------------------ *)
(* Simulation. Every run goes through [exec], which counts its engine
   events and skipped kernel bodies. *)

let exec t ?trace ~kernels ~config ~machine ~nprocs program =
  let s, (occ, skipped) =
    Jade.Runtime.run_with ?trace ~kernels ~config ~machine ~nprocs program
      ~inspect:(fun rt m ->
        (Jade.Metrics.occupancy m, Jade.Runtime.kernels_skipped rt))
  in
  locked t (fun () ->
      t.events <- t.events + s.Jade.Metrics.event_count;
      t.n_skipped <- t.n_skipped + skipped);
  (s, occ)

let run_key t key =
  let program =
    make_program t key.k_app ~kind:(kind_of key.k_machine)
      ~placed:key.k_placed ~nprocs:key.k_nprocs
  in
  fst
    (exec t ~kernels:t.kernels ~config:key.k_config
       ~machine:(jade_machine key.k_machine) ~nprocs:key.k_nprocs program)

let simulate t ~machine ~nprocs program =
  fst
    (exec t ~kernels:t.kernels ~config:Jade.Config.default ~machine ~nprocs
       program)

(* ------------------------------------------------------------------ *)
(* The memo (domain-safe: results computed off the main domain are merged
   under the lock, keyed and deduplicated, so its contents — and the
   tables rendered from them — are independent of completion order). *)

let remember t id v =
  locked t (fun () ->
      if not (Hashtbl.mem t.results id) then Hashtbl.add t.results id v)

(* The value of [id] from the memo, else from the disk cache — a lookup,
   counted, whose answer is remembered either way, so the disk is asked
   about each id at most once per runner. Under the lock: the first
   lookup loads the index, which two domains must never do. *)
let lookup t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.results id with
      | Some _ as v -> v
      | None -> (
          match t.disk with
          | Some d when not (Hashtbl.mem t.absent id) ->
              let hit = Runcache.find d ~key:(disk_key t id) in
              t.n_cache_lookups <- t.n_cache_lookups + 1;
              (match hit with
              | Some v ->
                  t.n_cache_hits <- t.n_cache_hits + 1;
                  Hashtbl.add t.results id v
              | None -> Hashtbl.add t.absent id ());
              hit
          | _ -> None))

(* Compute the results [plan] names — none of them in the memo or on
   disk — on the pool, persist them as one segment and merge them into
   the memo. Disk I/O stays on this domain; pool workers only compute. *)
let compute t plan =
  let todo = List.sort_uniq (fun (a, _) (b, _) -> compare a b) plan in
  let values = Pool.run ~jobs:t.jobs (List.map snd todo) in
  let results = List.combine (List.map fst todo) values in
  persist t results;
  List.iter (fun (id, v) -> remember t id v) results

(* The value of [id]: memoized, on disk, or computed by [f] now — or,
   during a planning pass, [None], with [(id, f)] recorded for after it. *)
let memo t id f =
  match (lookup t id, t.plan) with
  | (Some _ as v), _ -> v
  | None, Some acc ->
      t.plan <- Some ((id, f) :: acc);
      None
  | None, None ->
      compute t [ (id, f) ];
      lookup t id

(* Placeholder returned while planning: a clearly-poisoned summary. The
   values are never rendered (a pass that met one is replayed against the
   warm memo; {!Report.render} asserts no poisoned cell leaks); NaN-free and
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

(* An id fixes the kind of its value — in memory by construction, on disk
   through the key — so the other arm is unreachable. *)
let flops_value = function
  | Some (Runcache.Flops f) -> f
  | None -> Report.poison
  | Some (Runcache.Summary _) -> assert false

(* Fold the runner-wide fault plan into a run's config before the memo
   key is built — it changes the computation, so it lives in the key. *)
let with_overrides t (config : Jade.Config.t) =
  match t.fault with
  | None -> config
  | Some f -> { config with Jade.Config.fault = Some f }

let run t ~app ~machine ~nprocs ~config ~placed =
  let key =
    { k_app = app; k_machine = machine; k_nprocs = nprocs;
      k_config = with_overrides t config; k_placed = placed }
  in
  match memo t (Sim key) (fun () -> Runcache.Summary (run_key t key)) with
  | Some (Runcache.Summary s) -> s
  | None -> planning_summary
  | Some (Runcache.Flops _) -> assert false

(* An observed run bypasses the memo and runs every kernel: it wants a
   real execution, plus what a cached summary cannot carry — the
   occupancy high-water marks, and the task-lifecycle events when [trace]
   is given. *)
let run_observed ?trace t ~app ~machine ~nprocs ~config ~placed =
  exec t ?trace ~kernels:true ~config:(with_overrides t config)
    ~machine:(jade_machine machine) ~nprocs
    (make_program t app ~kind:(kind_of machine) ~placed ~nprocs)

let run_level t ~app ~machine ~nprocs ~level =
  let placed = level = Tp in
  run t ~app ~machine ~nprocs ~config:(config_of_level level) ~placed

let serial_flops t app =
  flops_value
    (memo t (Serial_flops app) (fun () ->
         (* The [serial_flops] variants produce bit-identical numbers to
            [snd (serial ...)] without executing the serial numerics,
            which only the (discarded) result needs. *)
         Runcache.Flops
           (match app with
           | Water -> Jade_apps.Water.serial_flops (water_params t.sz)
           | String_ -> String_app.serial_flops (string_params t.sz)
           | Ocean -> Jade_apps.Ocean.serial_flops (ocean_params t.sz) ~nprocs:32
           | Cholesky -> Jade_apps.Cholesky.serial_flops (cholesky_params t.sz))))

let total_flops t app =
  flops_value
    (memo t (Total_flops app) (fun () ->
         Runcache.Flops
           (match app with
           | Water -> Jade_apps.Water.total_work (water_params t.sz) ~nprocs:1
           | String_ -> String_app.total_work (string_params t.sz) ~nprocs:1
           | Ocean -> Jade_apps.Ocean.total_work (ocean_params t.sz) ~nprocs:32
           | Cholesky ->
               Jade_apps.Cholesky.total_work (cholesky_params t.sz) ~nprocs:1)))

let serial_time t ~app ~machine = serial_flops t app /. flops_of machine

let stripped_time t ~app ~machine = total_flops t app /. flops_of machine

let run_custom t ~key thunk =
  flops_value (memo t (Custom key) (fun () -> Runcache.Flops (thunk ())))

(* Lift one traced run of a program into its task-graph IR, for the CLI's
   [graph] subcommand and the tests. *)
let task_graph t ~app ~machine ~nprocs ~placed =
  let trace = Jade.Tracing.create () in
  ignore
    (exec t ~trace ~kernels:t.kernels
       ~config:(with_overrides t Jade.Config.default)
       ~machine:(jade_machine machine) ~nprocs
       (make_program t app ~kind:(kind_of machine) ~placed ~nprocs));
  Jade.Tracing.graph trace

let task_management_pct t ~app ~machine ~nprocs ~level =
  let placed = level = Tp in
  let config = config_of_level level in
  let orig = run t ~app ~machine ~nprocs ~config ~placed in
  let wf_config = { config with Jade.Config.work_free = true } in
  let wf = run t ~app ~machine ~nprocs ~config:wf_config ~placed in
  if orig.Jade.Metrics.elapsed_s <= 0.0 then 0.0
  else 100.0 *. wf.Jade.Metrics.elapsed_s /. orig.Jade.Metrics.elapsed_s

(* ------------------------------------------------------------------ *)
(* Parallel evaluation: plan, then — only if something is missing —
   compute and replay. *)

let parallel t f =
  match t.plan with
  | Some _ ->
      (* Nested inside an enclosing planning pass: keep recording; the
         outermost [parallel] computes. *)
      f ()
  | None -> (
      (* Pass 1 — plan: execute [f] against the memo and the disk cache,
         recording every result neither holds (cheap placeholders are
         returned instead of computing). A planning-pass exception just
         truncates the plan; the replay pass re-raises it for real.
         Fatal conditions are the exception to that rule: swallowing
         [Out_of_memory] or [Stack_overflow] leaves the heap/stack in a
         state the replay can't trust, and a failed [assert] is a
         programming error that must never be masked — all three
         propagate immediately. *)
      t.plan <- Some [];
      let planned =
        try Some (f ()) with
        | (Out_of_memory | Stack_overflow | Assert_failure _) as fatal ->
            t.plan <- None;
            raise fatal
        | _ -> None
      in
      let plan = match t.plan with Some acc -> acc | None -> assert false in
      t.plan <- None;
      match (planned, plan) with
      | Some v, [] ->
          (* Nothing was missing: every value the pass saw was real, so
             its result is [f]'s. *)
          v
      | _ ->
          (* Pass 2 — compute the recorded results across domains and
             merge them into the memo, keyed and deduplicated. Pass 3 —
             replay [f] against the warm memo: pure hits, in [f]'s own
             sequential order, so the result is byte-identical to a fully
             sequential evaluation whatever [jobs] is. *)
          compute t plan;
          f ())
