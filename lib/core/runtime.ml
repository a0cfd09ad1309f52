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
  replay : Replay.t option;
  mutable obj_counter : int;
  mutable task_counter : int;
  mutable body_tid : int;
      (** task id whose body is executing synchronously right now, or
          [-1]. Cleared (and restored) across the body's suspension
          points, so anything the main program creates while a body sits
          suspended on virtual time is never attributed to the body. *)
  mutable body_created : bool;
      (** the body named by [body_tid] created a task or shared object *)
  mutable objects : Meta.t list;
      (** shared-object registry, newest first; maintained only when a
          crash plan is active (the recovery supervisor walks it) *)
}

type env = { env_task : Taskrec.t; proc : int; env_rt : t }

let nprocs t = t.core.Backend.nprocs

let config t = t.core.Backend.cfg

let now t = Engine.now t.core.Backend.eng

(* ------------------------------------------------------------------ *)
(* Backend construction — the only place the machine type is inspected.
   Everything below speaks through [Backend.ops]. *)

let validate_machine ~machine ~nprocs =
  match machine with
  | Dash _ -> Backend_shm.validate ~nprocs
  | Ipsc _ -> Backend_mp.validate ~nprocs
  | Lan _ -> Backend_lan.validate ~nprocs

(* Heartbeat/watchdog tuning from the machine's latency floors: the
   period must dwarf one probe round-trip so supervision stays off the
   critical path, and the timeout must tolerate probe replies serialized
   behind a busy node's backlog. *)
let recovery_tuning machine =
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
      let period = 50.0 *. (c.Costs.msg_startup +. c.Costs.hop_latency) in
      ( period,
        6.0 *. period,
        c.Costs.flops,
        fun size ->
          c.Costs.msg_startup +. (float_of_int size /. c.Costs.bandwidth) )

let make ?trace ?replay cfg machine nprocs =
  (* Event-queue population scales with the processor count (dispatchers,
     mailboxes, in-flight fabric messages): pre-size the heap so large
     runs never pay the growth-doubling cascade. *)
  let eng = Engine.create ~events_hint:(256 * nprocs) () in
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
    | Ipsc c -> Backend_mp.create core c
    | Lan c -> Backend_lan.create core c
  in
  (match (cfg.Config.fault, backend.Backend.recovery_actions) with
  | Some spec, Some actions when Jade_net.Fault.crash_active spec ->
      let period, timeout, flop_rate, copy_cost = recovery_tuning machine in
      let trace_work =
        match replay with
        | Some h ->
            Some
              (fun tid ->
                match Replay.trace h ~tid with
                | Some ops ->
                    Some
                      (Array.fold_left
                         (fun acc op ->
                           match op with
                           | Replay.Work f -> acc +. f
                           | Replay.Release _ -> acc)
                         0.0 ops)
                | None -> None)
        | None -> None
      in
      let r =
        Recovery.create ?trace_work ~spec ~nprocs ~period ~timeout ~flop_rate
          ~copy_cost ~actions eng metrics
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
      replay;
      obj_counter = 0;
      task_counter = 0;
      body_tid = -1;
      body_created = false;
      objects = [];
    }
  in
  (match core.Backend.recovery with
  | Some r -> Recovery.set_objects r (fun () -> List.rev t.objects)
  | None -> ());
  t

(* ------------------------------------------------------------------ *)
(* Public program API *)

let object_meta t ~home ~name ~size =
  let c = t.core in
  if home < 0 || home >= c.Backend.nprocs then
    invalid_arg "Runtime.create_object: home out of range";
  if t.body_tid >= 0 then t.body_created <- true;
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

(* Replayed runs never execute task bodies, so nothing reads the payload
   and building the initial data is pure waste — a measurable slice of
   every replayed run at bench scale. Everywhere else the thunk is forced
   right here, on the run's own domain, so the deferred constructor is
   observationally identical to [create_object]. *)
let create_object_deferred t ?(home = 0) ~name ~size thunk =
  let meta = object_meta t ~home ~name ~size in
  let replaying =
    match t.replay with Some h -> Replay.mode h = Replay.Replay | None -> false
  in
  if replaying then Shared.make_deferred meta thunk
  else Shared.make meta (thunk ())

(* Apply one recorded body effect. Mirrors exactly what [work] and
   [release] below do when the body runs for real, so a replayed task is
   indistinguishable from an executed one to the simulation. *)
let replay_op t task proc = function
  | Replay.Work flops ->
      if not t.core.Backend.cfg.Config.work_free then begin
        task.Taskrec.fl.Taskrec.charged <-
          task.Taskrec.fl.Taskrec.charged +. flops;
        Mnode.occupy t.core.Backend.nodes.(proc)
          (flops /. t.backend.Backend.flop_rate)
      end
  | Replay.Release slot ->
      t.core.Backend.ctx_proc <- proc;
      Synchronizer.release t.core.Backend.sync task
        (fst task.Taskrec.spec.(slot))

(* Execute a task body under the runtime's replay handle (if any).
   Replay: a recorded trace substitutes for the body. Record: run the
   body for real and capture its op stream; a body that creates tasks or
   shared objects mid-execution is not replayable and poisons the store.
   No handle, no trace (fallback), or record-into-poisoned-store all
   execute the body unchanged. *)
let dispatch_body t body task proc =
  match t.replay with
  | None -> body { env_task = task; proc; env_rt = t }
  | Some h -> (
      let tid = task.Taskrec.tid in
      match Replay.trace h ~tid with
      | Some ops ->
          Replay.note_replayed h;
          Array.iter (replay_op t task proc) ops
      | None -> (
          match Replay.mode h with
          | Replay.Replay -> body { env_task = task; proc; env_rt = t }
          | Replay.Record ->
              Replay.task_begin h ~tid;
              t.body_tid <- tid;
              t.body_created <- false;
              body { env_task = task; proc; env_rt = t };
              let created = t.body_created in
              t.body_tid <- -1;
              t.body_created <- false;
              Replay.task_end h ~task ~ran_on:proc ~ok:(not created)))

let withonly t ?placement ?(wait = false) ~name ~work ~accesses body =
  let c = t.core in
  (match placement with
  | Some p when p < 0 || p >= c.Backend.nprocs ->
      invalid_arg "Runtime.withonly: placement out of range"
  | _ -> ());
  if t.body_tid >= 0 then t.body_created <- true;
  Mnode.occupy c.Backend.nodes.(0) t.backend.Backend.task_create_cost;
  let spec = Spec.create () in
  accesses spec;
  t.task_counter <- t.task_counter + 1;
  let wrapped task proc = dispatch_body t body task proc in
  let task =
    Taskrec.create ~tid:t.task_counter ~tname:name ~spec:(Spec.entries spec)
      ~body:wrapped ~work ~placement ~now:(Engine.now c.Backend.eng)
  in
  c.Backend.outstanding <- c.Backend.outstanding + 1;
  c.Backend.metrics.Metrics.tasks_created <-
    c.Backend.metrics.Metrics.tasks_created + 1;
  c.Backend.ctx_proc <- 0;
  Synchronizer.add_task c.Backend.sync task;
  if wait then begin
    c.Backend.main_blocked <- true;
    Ivar.read c.Backend.eng task.Taskrec.done_ivar;
    c.Backend.main_blocked <- false
  end

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

let env_proc env = env.proc

let work env flops =
  if flops < 0.0 then invalid_arg "Runtime.work: negative flops";
  let t = env.env_rt in
  (match t.replay with
  | Some h ->
      Replay.record h ~tid:env.env_task.Taskrec.tid (Replay.Work flops)
  | None -> ());
  let c = t.core in
  if not c.Backend.cfg.Config.work_free then begin
    env.env_task.Taskrec.fl.Taskrec.charged <-
      env.env_task.Taskrec.fl.Taskrec.charged +. flops;
    (* The occupancy suspends this body on virtual time; clear the
       body-attribution marker so whatever the main program creates in
       the meantime is not blamed on this task. *)
    let tid = t.body_tid and created = t.body_created in
    t.body_tid <- -1;
    Mnode.occupy c.Backend.nodes.(env.proc)
      (flops /. t.backend.Backend.flop_rate);
    t.body_tid <- tid;
    t.body_created <- created
  end

let release env shared =
  let t = env.env_rt in
  (match t.replay with
  | Some h -> (
      match Taskrec.spec_slot env.env_task (Shared.meta shared) with
      | slot ->
          Replay.record h ~tid:env.env_task.Taskrec.tid (Replay.Release slot)
      | exception Not_found -> ())
  | None -> ());
  let c = t.core in
  c.Backend.ctx_proc <- env.proc;
  (* Releasing may enable downstream tasks, whose handling suspends this
     body — same attribution dance as [work]. *)
  let tid = t.body_tid and created = t.body_created in
  t.body_tid <- -1;
  Synchronizer.release c.Backend.sync env.env_task (Shared.meta shared);
  t.body_tid <- tid;
  t.body_created <- created

let node_busy t p = Mnode.busy_time t.core.Backend.nodes.(p)

let drain t =
  let c = t.core in
  if c.Backend.outstanding > 0 then begin
    c.Backend.main_blocked <- true;
    Engine.await ~on:on_drain c.Backend.eng (fun resume ->
        c.Backend.drain_waiters <- resume :: c.Backend.drain_waiters);
    c.Backend.main_blocked <- false
  end

(* ------------------------------------------------------------------ *)
(* Top level *)

let run_with ?(config = Config.default) ?trace ?replay ~machine ~nprocs main
    ~inspect =
  validate_machine ~machine ~nprocs;
  if config.Config.target_tasks < 1 then
    invalid_arg "Runtime.run: target_tasks must be >= 1";
  let t = make ?trace ?replay config machine nprocs in
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
         });
  c.Backend.metrics.Metrics.fl.Metrics.elapsed <- c.Backend.finish_time;
  c.Backend.metrics.Metrics.events <- Engine.events_processed c.Backend.eng;
  (* Engine-side occupancy high-water marks; the backend finalizer below
     fills the fabric/pool ones on the message-passing machines. *)
  c.Backend.metrics.Metrics.occ_cal_hwm <-
    Engine.calendar_high_water c.Backend.eng;
  c.Backend.metrics.Metrics.occ_cal_rebuilds <-
    Engine.calendar_rebuilds c.Backend.eng;
  c.Backend.metrics.Metrics.occ_now_cap <-
    Engine.now_lane_capacity c.Backend.eng;
  c.Backend.metrics.Metrics.occ_esc_hwm <-
    Engine.escape_high_water c.Backend.eng;
  t.backend.Backend.finalize ();
  let extra = inspect t c.Backend.metrics in
  (Metrics.summary c.Backend.metrics, extra)

let run ?config ?trace ?replay ~machine ~nprocs main =
  fst
    (run_with ?config ?trace ?replay ~machine ~nprocs main
       ~inspect:(fun _ _ -> ()))
