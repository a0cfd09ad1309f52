open Jade_sim
open Jade_machines

type machine = Dash of Costs.shm | Ipsc of Costs.mp | Lan of Costs.mp

let dash = Dash Costs.dash

let ipsc860 = Ipsc Costs.ipsc860

let lan = Lan Costs.workstation_lan

exception Access_violation of string

type deadlock_report = {
  dl_outstanding : int;  (** tasks created but never completed *)
  dl_live : int;  (** simulation processes that never terminated *)
  dl_blocked : (string * string) list;
      (** (process, what it is blocked on), in blocking order *)
  dl_fetches : (int * int * int) list;
      (** per-processor (proc, in-flight fetches, retransmits) *)
  dl_give_ups : int;  (** retransmit loops that hit the retry cap *)
}

exception Deadlock of deadlock_report

exception Unrecoverable = Recovery.Unrecoverable

let deadlock_to_string r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "Jade runtime: deadlock (%d tasks outstanding, %d live processes)"
       r.dl_outstanding r.dl_live);
  if r.dl_blocked = [] then
    Buffer.add_string b "; no registered waiters (lost wakeup outside ivars?)"
  else
    List.iter
      (fun (who, what) ->
        Buffer.add_string b (Printf.sprintf "\n  %s blocked on %s" who what))
      r.dl_blocked;
  List.iter
    (fun (p, inflight, retrans) ->
      if inflight > 0 || retrans > 0 then
        Buffer.add_string b
          (Printf.sprintf "\n  P%d: %d fetches in flight, %d retransmits" p
             inflight retrans))
    r.dl_fetches;
  if r.dl_give_ups > 0 then
    Buffer.add_string b
      (Printf.sprintf
         "\n  fetch give-ups: %d (retransmit loops that hit the retry cap)"
         r.dl_give_ups);
  Buffer.contents b

let () =
  Printexc.register_printer (function
    | Deadlock r -> Some (deadlock_to_string r)
    | _ -> None)

(* Constant blocked-registry label, preallocated so waiting is free. *)
let on_drain () = "drain"

type t = {
  core : Backend.core;
  backend : Backend.ops;
  kernels : bool;  (** run [withonly] bodies (else skip them) *)
  mutable in_kernel : bool;
      (** a kernel body is executing; kernels never suspend, so nothing
          else runs until it returns *)
  mutable kernels_skipped : int;
  mutable obj_counter : int;
  mutable task_counter : int;
  mutable objects : Meta.t list;
      (** shared-object registry, newest first; maintained only when a
          crash plan is active (the recovery supervisor walks it) *)
}

type kernel

type staged

type 'k env = { env_task : Taskrec.t; proc : int; env_rt : t }

let nprocs t = t.core.Backend.nprocs

let config t = t.core.Backend.cfg

let now t = Engine.now t.core.Backend.eng

(* ------------------------------------------------------------------ *)
(* Backend construction — the only place the machine type is inspected.
   Everything below speaks through [Backend.ops]. *)

let machine_name = function
  | Dash _ -> "DASH"
  | Ipsc _ -> "iPSC/860"
  | Lan _ -> "LAN"

(* Heartbeat/watchdog tuning from the machine's latency floors: the
   period must dwarf one probe round-trip so supervision stays off the
   critical path, and the timeout must tolerate probe replies serialized
   behind a busy node's backlog. On message-passing machines processor 0
   pays one send occupancy per probe, so the period also grows with the
   processor count: one probe round takes at most a quarter of it, and
   processor 0's probe backlog stays bounded at any machine size. *)
let recovery_tuning machine ~nprocs =
  match machine with
  | Dash c ->
      let period = 20.0 *. c.Costs.steal_patience in
      ( period,
        3.0 *. period,
        c.Costs.flops_shm,
        fun size ->
          (* reconstruction = pulling the object through remote memory *)
          c.Costs.cycle
          *. float_of_int
               ((size + c.Costs.cache_line - 1)
               / c.Costs.cache_line * c.Costs.remote_cycles) )
  | Ipsc c | Lan c ->
      let period =
        Float.max
          (50.0 *. (c.Costs.msg_startup +. c.Costs.hop_latency))
          (4.0 *. float_of_int (nprocs - 1)
          *. Costs.mp_send_occupancy c ~size:c.Costs.small_msg)
      in
      ( period,
        6.0 *. period,
        c.Costs.flops,
        fun size ->
          c.Costs.msg_startup +. (float_of_int size /. c.Costs.bandwidth) )

let make ?trace ~kernels cfg machine nprocs =
  let eng = Engine.create () in
  let nodes = Array.init nprocs (Mnode.create eng) in
  let metrics = Metrics.create () in
  (* The synchronizer notifies the backend (enable, write-commit) and the
     backend retires tasks through the synchronizer; break the cycle with
     forward cells filled immediately after backend construction — before
     any simulation process runs or task exists. *)
  let enable_cell = ref (fun (_ : Taskrec.t) -> ()) in
  let commit_cell = ref (fun (_ : Meta.t) (_ : Taskrec.t) -> ()) in
  let sync =
    Synchronizer.create ~replication:cfg.Config.replication
      ~on_enable:(fun task -> !enable_cell task)
      ~on_write_commit:(fun meta task -> !commit_cell meta task)
  in
  let core =
    {
      Backend.eng;
      cfg;
      nprocs;
      nodes;
      metrics;
      sync;
      trace;
      outstanding = 0;
      main_done = false;
      main_blocked = false;
      stopped = false;
      finish_time = 0.0;
      ctx_proc = 0;
      drain_waiters = [];
      stop_hook = (fun () -> ());
      recovery = None;
    }
  in
  let backend =
    match machine with
    | Dash c -> Backend_shm.create core c
    | Ipsc c | Lan c -> Backend_mp.create core c
  in
  (match (cfg.Config.fault, backend.Backend.recovery_actions) with
  | Some spec, Some actions when Jade_net.Fault.crash_active spec ->
      let period, timeout, flop_rate, copy_cost =
        recovery_tuning machine ~nprocs
      in
      let r =
        Recovery.create ~spec ~nprocs ~period ~timeout ~flop_rate ~copy_cost
          ~actions eng metrics
      in
      Recovery.set_should_stop r (fun () -> core.Backend.stopped);
      core.Backend.recovery <- Some r
  | _ -> ());
  enable_cell := backend.Backend.on_enable;
  (commit_cell :=
     match core.Backend.recovery with
     | Some r ->
         fun meta task ->
           Recovery.note_commit r meta task;
           backend.Backend.on_write_commit meta task
     | None -> backend.Backend.on_write_commit);
  core.Backend.stop_hook <- backend.Backend.stop;
  let t =
    {
      core;
      backend;
      kernels;
      in_kernel = false;
      kernels_skipped = 0;
      obj_counter = 0;
      task_counter = 0;
      objects = [];
    }
  in
  (match core.Backend.recovery with
  | Some r -> Recovery.set_objects r (fun () -> List.rev t.objects)
  | None -> ());
  t

(* ------------------------------------------------------------------ *)
(* Public program API *)

(* Kernels run to completion between two engine events, so while
   [in_kernel] is set nothing but the kernel itself can call in here. *)
let not_in_kernel t fn =
  if t.in_kernel then
    invalid_arg
      (Printf.sprintf
         "Runtime.%s: called from a withonly body, which may only read \
          and write its declared objects (create tasks and objects from a \
          withonly_staged body)"
         fn)

let object_meta t ~home ~name ~size =
  let c = t.core in
  not_in_kernel t "create_object";
  if home < 0 || home >= c.Backend.nprocs then
    invalid_arg "Runtime.create_object: home out of range";
  t.obj_counter <- t.obj_counter + 1;
  let meta =
    Meta.create ~id:t.obj_counter ~name ~size ~home ~nprocs:c.Backend.nprocs
  in
  (match c.Backend.recovery with
  | Some _ -> t.objects <- meta :: t.objects
  | None -> ());
  meta

let create_object t ?(home = 0) ~name ~size data =
  Shared.make (object_meta t ~home ~name ~size) data

(* With kernels skipped only staged bodies can read a payload, so building
   the initial data eagerly is mostly waste — a measurable slice of every
   such run at bench scale. Everywhere else the thunk is forced right
   here, on the run's own domain, so the deferred constructor is
   observationally identical to [create_object]. *)
let create_object_deferred t ?(home = 0) ~name ~size thunk =
  let meta = object_meta t ~home ~name ~size in
  if t.kernels then Shared.make meta (thunk ())
  else Shared.make_deferred meta thunk

let create_task t ?placement ~wait ~name ~work ~accesses body =
  let c = t.core in
  not_in_kernel t "withonly";
  (match placement with
  | Some p when p < 0 || p >= c.Backend.nprocs ->
      invalid_arg "Runtime.withonly: placement out of range"
  | _ -> ());
  Mnode.occupy c.Backend.nodes.(0) t.backend.Backend.task_create_cost;
  let spec = Spec.create () in
  accesses spec;
  t.task_counter <- t.task_counter + 1;
  let task =
    Taskrec.create ~tid:t.task_counter ~tname:name ~spec:(Spec.entries spec)
      ~body ~work ~placement ~now:(Engine.now c.Backend.eng)
  in
  c.Backend.outstanding <- c.Backend.outstanding + 1;
  c.Backend.metrics.Metrics.tasks_created <-
    c.Backend.metrics.Metrics.tasks_created + 1;
  c.Backend.ctx_proc <- 0;
  if wait then
    task.Taskrec.done_ivar <-
      Some (Ivar.create ~name_fn:(fun () -> "done:" ^ name) ());
  Synchronizer.add_task c.Backend.sync task;
  match task.Taskrec.done_ivar with
  | Some iv ->
      c.Backend.main_blocked <- true;
      Ivar.read c.Backend.eng iv;
      c.Backend.main_blocked <- false
  | None -> ()

let withonly t ?placement ?(wait = false) ~name ~work ~accesses body =
  create_task t ?placement ~wait ~name ~work ~accesses (fun task proc ->
      if t.kernels then begin
        t.in_kernel <- true;
        body { env_task = task; proc; env_rt = t };
        t.in_kernel <- false
      end
      else t.kernels_skipped <- t.kernels_skipped + 1)

let withonly_staged t ?placement ?(wait = false) ~name ~work ~accesses body =
  create_task t ?placement ~wait ~name ~work ~accesses (fun task proc ->
      task.Taskrec.ops <- [];
      body { env_task = task; proc; env_rt = t })

let rd env shared =
  if Taskrec.declares env.env_task (Shared.meta shared) ~write:false then
    Shared.data shared
  else
    raise
      (Access_violation
         (Printf.sprintf "task %s reads undeclared object %s"
            env.env_task.Taskrec.tname
            (Shared.name shared)))

let wr env shared =
  if Taskrec.declares env.env_task (Shared.meta shared) ~write:true then
    Shared.data shared
  else
    raise
      (Access_violation
         (Printf.sprintf "task %s writes undeclared object %s"
            env.env_task.Taskrec.tname
            (Shared.name shared)))

let work env flops =
  if flops < 0.0 then invalid_arg "Runtime.work: negative flops";
  let t = env.env_rt and task = env.env_task in
  task.Taskrec.ops <- Jade_graph.Ir.Work flops :: task.Taskrec.ops;
  task.Taskrec.fl.Taskrec.charged <- task.Taskrec.fl.Taskrec.charged +. flops;
  Mnode.occupy t.core.Backend.nodes.(env.proc)
    (flops /. t.backend.Backend.flop_rate)

let release env shared =
  let task = env.env_task and meta = Shared.meta shared in
  (match Taskrec.spec_slot task meta with
  | slot -> task.Taskrec.ops <- Jade_graph.Ir.Release slot :: task.Taskrec.ops
  | exception Not_found -> ());
  let c = env.env_rt.core in
  c.Backend.ctx_proc <- env.proc;
  Synchronizer.release c.Backend.sync task meta

let node_busy t p = Mnode.busy_time t.core.Backend.nodes.(p)

let drain t =
  let c = t.core in
  not_in_kernel t "drain";
  if c.Backend.outstanding > 0 then begin
    c.Backend.main_blocked <- true;
    Engine.await ~on:on_drain c.Backend.eng (fun resume ->
        c.Backend.drain_waiters <- resume :: c.Backend.drain_waiters);
    c.Backend.main_blocked <- false
  end

(* ------------------------------------------------------------------ *)
(* Top level *)

let run_with ?(config = Config.default) ?trace ?(kernels = true) ~machine
    ~nprocs main ~inspect =
  if nprocs < 1 then
    invalid_arg
      (Printf.sprintf "Runtime.run: %s machine needs nprocs >= 1 (got %d)"
         (machine_name machine) nprocs);
  if config.Config.target_tasks < 1 then
    invalid_arg "Runtime.run: target_tasks must be >= 1";
  let t = make ?trace ~kernels config machine nprocs in
  let c = t.core in
  t.backend.Backend.start ();
  (match c.Backend.recovery with
  | Some r -> Recovery.start r
  | None -> ());
  Engine.spawn ~name:"main" c.Backend.eng (fun () ->
      main t;
      c.Backend.main_done <- true;
      Backend.maybe_finish c);
  ignore (Engine.run c.Backend.eng);
  (* An unrecoverable crash takes precedence over the deadlock watchdog:
     a dead root or lost object legitimately leaves work outstanding. *)
  (match c.Backend.recovery with
  | Some r -> (
      match Recovery.fatal r with
      | Some f ->
          raise
            (Unrecoverable
               { f with Recovery.ur_fetches = t.backend.Backend.comm_stats () })
      | None -> ())
  | None -> ());
  if c.Backend.outstanding > 0 || Engine.live_processes c.Backend.eng > 0 then
    (* The heap drained with work still pending: a lost wakeup. Name the
       stuck processes and what each is blocked on instead of leaving the
       user to guess from bare counts. *)
    raise
      (Deadlock
         {
           dl_outstanding = c.Backend.outstanding;
           dl_live = Engine.live_processes c.Backend.eng;
           dl_blocked = Engine.blocked_report c.Backend.eng;
           dl_fetches = t.backend.Backend.comm_stats ();
           dl_give_ups = c.Backend.metrics.Metrics.fetch_give_ups;
         });
  c.Backend.metrics.Metrics.fl.Metrics.elapsed <- c.Backend.finish_time;
  c.Backend.metrics.Metrics.events <- Engine.events_processed c.Backend.eng;
  (* Engine-side occupancy high-water marks; the backend finalizer below
     fills the fabric/pool ones on the message-passing machines. *)
  c.Backend.metrics.Metrics.occ_cal_hwm <-
    Engine.far_lane_high_water c.Backend.eng;
  c.Backend.metrics.Metrics.occ_now_cap <-
    Engine.now_lane_capacity c.Backend.eng;
  c.Backend.metrics.Metrics.occ_esc_hwm <-
    Engine.escape_high_water c.Backend.eng;
  t.backend.Backend.finalize ();
  let extra = inspect t c.Backend.metrics in
  (Metrics.summary c.Backend.metrics, extra)

let run ?config ?trace ?kernels ~machine ~nprocs main =
  fst
    (run_with ?config ?trace ?kernels ~machine ~nprocs main
       ~inspect:(fun _ _ -> ()))

let kernels_skipped t = t.kernels_skipped
