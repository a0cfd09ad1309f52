(** Message-passing backend (§3.3, §3.4): the iPSC/860, and the
    workstation LAN under its own costs ({!Jade_machines.Costs.workstation_lan}
    serializes every transfer through one shared medium). Both run over a
    point-to-point hypercube fabric.

    A centralized scheduler process on processor 0 receives enable and
    completion events, assigns tasks to the least-loaded processor
    (preferring the task's target) and pools the excess; one dispatcher
    process per processor executes assigned tasks after the
    {!Communicator} has fetched the required object versions. The
    communicator implements replication, concurrent fetch, adaptive
    broadcast and the eager update protocol — all optimization-flag
    policy lives on this side of the {!Backend} seam. *)

open Jade_sim
open Jade_machines
open Jade_net

type sched_event =
  | Enabled of Taskrec.t
  | Completed of int * Taskrec.t
  | Stop_sched

type dispatch_item = Exec of Taskrec.t | Stop_disp

type t = {
  core : Backend.core;
  costs : Costs.mp;
  sched : Scheduler_mp.t;
  fabric : Protocol.t Fabric.t;
  fault : Fault.t option;
      (** the fabric's chaos plan, kept for end-of-run accounting *)
  comm : Communicator.t;
  sched_events : sched_event Mailbox.t;
  dispatch_boxes : dispatch_item Mailbox.t array;
  track : bool;  (** crash plan active: maintain the assignment ledger *)
  doomed : bool array;
      (** crash injected; the dispatcher halts at its next boundary *)
  assigned : (int, Taskrec.t) Hashtbl.t array;
      (** per-processor unfinished assignments (tid -> task), the ledger
          recovery re-enqueues from; only populated when [track] *)
}

let dispatch_box_name = Names.memo (Printf.sprintf "dispatch-box-%d")

let send_assign b proc (task : Taskrec.t) =
  if b.track then Hashtbl.replace b.assigned.(proc) task.Taskrec.tid task;
  Fabric.send b.fabric ~src:0 ~dst:proc ~size:b.costs.Costs.small_msg
    ~tag:Tag.Assign (Protocol.Assign task)

(* The centralized scheduler process on processor 0 (§3.4.3). *)
let scheduler_process b =
  let c = b.core in
  let rec loop () =
    match Mailbox.recv c.Backend.eng b.sched_events with
    | Stop_sched -> ()
    | Enabled task ->
        task.Taskrec.fl.Taskrec.enabled_at <- Engine.now c.Backend.eng;
        Mnode.occupy c.Backend.nodes.(0) b.costs.Costs.task_enable;
        (match Scheduler_mp.on_enabled b.sched task with
        | `Assign p -> send_assign b p task
        | `Pooled -> ());
        loop ()
    | Completed (proc, task)
      when b.track && task.Taskrec.state = Taskrec.Completed ->
        (* Duplicate completion: the task was already retired (it completed
           elsewhere after crash recovery reassigned it). Release the
           sender's load but skip retirement. *)
        Mnode.occupy c.Backend.nodes.(0) b.costs.Costs.completion_handling;
        let handed = Scheduler_mp.on_completed b.sched ~proc in
        List.iter (fun task -> send_assign b proc task) handed;
        loop ()
    | Completed (proc, task) ->
        if b.track then Hashtbl.remove b.assigned.(proc) task.Taskrec.tid;
        Mnode.occupy c.Backend.nodes.(0) b.costs.Costs.completion_handling;
        c.Backend.ctx_proc <- proc;
        Synchronizer.complete c.Backend.sync task;
        Taskrec.signal_done c.Backend.eng task;
        let handed = Scheduler_mp.on_completed b.sched ~proc in
        List.iter (fun task -> send_assign b proc task) handed;
        c.Backend.outstanding <- c.Backend.outstanding - 1;
        Backend.maybe_finish c;
        loop ()
  in
  loop ()

(* Crash boundary: the dispatcher halts, and only now does the
   processor's NIC go dark and the halt become observable to the
   supervisor. Queued work stays in the assignment ledger for recovery. *)
let halt b proc =
  Fabric.set_down b.fabric proc;
  match b.core.Backend.recovery with
  | Some r -> Recovery.note_stopped r proc
  | None -> ()

let dispatcher b proc =
  let c = b.core in
  let costs = b.costs in
  let rec loop () =
    if b.track && b.doomed.(proc) then halt b proc
    else
      match Mailbox.recv c.Backend.eng b.dispatch_boxes.(proc) with
      | Stop_disp ->
          if b.track && b.doomed.(proc) then halt b proc
          else if not c.Backend.stopped then
            (* Stale poison from a crash that a restart cancelled before
               the boundary was reached: ignore it. *)
            loop ()
      | Exec _ when b.track && b.doomed.(proc) ->
          (* Crashed between enqueue and receive: the task stays in the
             assignment ledger for recovery; halt at this boundary. *)
          halt b proc
      | Exec task when b.track && task.Taskrec.state = Taskrec.Completed ->
          (* Stale assignment: the task already completed elsewhere after
             crash recovery reassigned it. Send the completion so the
             scheduler unwinds this processor's load, but do not run the
             body twice. *)
          Fabric.send b.fabric ~src:proc ~dst:0 ~size:costs.Costs.small_msg
            ~tag:Tag.Done (Protocol.Done { task; proc });
          loop ()
      | Exec task ->
        if proc = 0 then Backend.wait_for_main_release c ~poll:1e-3;
        Communicator.ensure_local b.comm task ~proc;
        Communicator.assert_coherent b.comm task ~proc;
        Communicator.note_accesses b.comm task ~proc;
        Backend.execute c task ~proc ~flops:costs.Costs.flops
          ~overhead:costs.Costs.task_dispatch ~comm:0.0;
        Fabric.send b.fabric ~src:proc ~dst:0 ~size:costs.Costs.small_msg
          ~tag:Tag.Done (Protocol.Done { task; proc });
        loop ()
  in
  loop ()

(* Interrupt-context message handler installed on every node: task
   traffic is routed to the scheduler/dispatcher processes, object
   traffic to the communicator. *)
let handler b proc (msg : Protocol.t Fabric.msg) =
  match msg.Fabric.body with
  | Protocol.Assign task ->
      Communicator.prefetch b.comm task ~proc;
      Mailbox.send b.core.Backend.eng b.dispatch_boxes.(proc) (Exec task)
  | Protocol.Done { task; proc = ran_on } ->
      Mailbox.send b.core.Backend.eng b.sched_events (Completed (ran_on, task))
  | Protocol.Ping _ ->
      (* Heartbeat probe from the supervisor: reply in interrupt context.
         A crashed processor stops answering once its NIC goes dark (the
         fabric drops both the probe and any reply). *)
      Fabric.post b.fabric ~src:proc ~dst:0 ~size:b.costs.Costs.small_msg
        ~tag:Tag.Pong (Protocol.Pong proc)
  | Protocol.Pong from -> (
      match b.core.Backend.recovery with
      | Some r -> Recovery.note_pong r from
      | None -> ())
  | Protocol.Reassign _ ->
      (* Ownership-transfer notice: metadata is already consistent (the
         supervisor rewrote the shared [Meta.t]); the message models the
         protocol traffic survivors would need to learn the new owner. *)
      ()
  | Protocol.Request _ | Protocol.Obj _ | Protocol.Bcast _ | Protocol.Eager _
  | Protocol.Ack _ ->
      Communicator.handle b.comm msg

(* ---- crash-recovery actions (wired into the supervisor) -------------- *)

let doom b p =
  b.doomed.(p) <- true;
  (* Wake the dispatcher if it is idle so it reaches the halt boundary;
     a busy dispatcher sees the flag when its current task finishes. *)
  Mailbox.send b.core.Backend.eng b.dispatch_boxes.(p) Stop_disp

(* Detection-time recovery: exclude the victim from placement and re-route
   its unfinished assignments through the scheduler. Sorted by task id so
   recovery order is deterministic regardless of ledger hashing. *)
let recover b p =
  Scheduler_mp.mark_down b.sched p;
  let tasks = Hashtbl.fold (fun _ task acc -> task :: acc) b.assigned.(p) [] in
  Hashtbl.reset b.assigned.(p);
  let tasks =
    List.sort
      (fun (x : Taskrec.t) (y : Taskrec.t) ->
        compare x.Taskrec.tid y.Taskrec.tid)
      tasks
  in
  let moved = ref 0 in
  List.iter
    (fun (task : Taskrec.t) ->
      if task.Taskrec.state <> Taskrec.Completed then begin
        incr moved;
        match Scheduler_mp.on_enabled b.sched task with
        | `Assign q -> send_assign b q task
        | `Pooled -> ()
      end)
    tasks;
  !moved

let restart b p ~was_detected =
  if b.doomed.(p) then begin
    b.doomed.(p) <- false;
    if Fabric.is_down b.fabric p then begin
      (* The dispatcher halted: revive the NIC and respawn it. If the
         victim's queue was already recovered, purge the stale mailbox so
         nothing runs twice; an undetected victim keeps its queue. *)
      Fabric.clear_down b.fabric p;
      if was_detected then begin
        let rec drain () =
          match Mailbox.try_recv b.dispatch_boxes.(p) with
          | Some _ -> drain ()
          | None -> ()
        in
        drain ();
        Scheduler_mp.mark_up b.sched p
      end;
      Engine.spawn
        ~name:(Backend.dispatcher_name p)
        b.core.Backend.eng
        (fun () -> dispatcher b p)
    end
    (* else: the crash was cancelled before the boundary — the dispatcher
       never halted and simply keeps running; its stale poison message is
       ignored on receipt. *)
  end

let ping b p =
  Fabric.post b.fabric ~src:0 ~dst:p ~size:b.costs.Costs.small_msg
    ~tag:Tag.Ping (Protocol.Ping p)

let announce b (meta : Meta.t) =
  let body =
    Protocol.Reassign
      { meta; version = meta.Meta.committed; owner = meta.Meta.owner }
  in
  for q = 1 to b.core.Backend.nprocs - 1 do
    if not (Fabric.is_down b.fabric q) then
      Fabric.post b.fabric ~src:0 ~dst:q ~size:b.costs.Costs.small_msg
        ~tag:Tag.Reassign body
  done

let on_enable b (task : Taskrec.t) =
  Mailbox.send b.core.Backend.eng b.sched_events (Enabled task)

let start b () =
  for p = 0 to b.core.Backend.nprocs - 1 do
    Fabric.set_handler b.fabric p (handler b p)
  done;
  Engine.spawn ~name:"mp-scheduler" b.core.Backend.eng (fun () ->
      scheduler_process b);
  for p = 0 to b.core.Backend.nprocs - 1 do
    Engine.spawn
      ~name:(Backend.dispatcher_name p)
      b.core.Backend.eng
      (fun () -> dispatcher b p)
  done

let stop b () =
  Mailbox.send b.core.Backend.eng b.sched_events Stop_sched;
  Array.iter
    (fun box -> Mailbox.send b.core.Backend.eng box Stop_disp)
    b.dispatch_boxes

let finalize b () =
  let m = b.core.Backend.metrics in
  m.Metrics.messages <- Fabric.message_count b.fabric;
  m.Metrics.occ_msg_cells <- Fabric.peak_in_flight b.fabric;
  match b.fault with
  | Some f ->
      m.Metrics.dropped_messages <- Fault.dropped f;
      m.Metrics.duplicated_messages <- Fault.duplicated f
  | None -> ()

(* The e-cube hypercube handles any node count (partial cubes route
   through the containing cube's dimensions), so no power-of-two
   constraint applies — the paper's processor counts include 24. *)
let create (core : Backend.core) (costs : Costs.mp) : Backend.ops =
  let eng = core.Backend.eng in
  let nprocs = core.Backend.nprocs in
  let fault = Option.map Fault.create core.Backend.cfg.Config.fault in
  let bus =
    if costs.Costs.shared_bus then Some (Mnode.create eng (-1)) else None
  in
  let fabric =
    Fabric.create ?bus ?fault eng ~nodes:core.Backend.nodes
      ~topology:(Topology.hypercube nprocs) ~startup:costs.Costs.msg_startup
      ~bandwidth:costs.Costs.bandwidth ~hop_latency:costs.Costs.hop_latency
  in
  let track =
    match core.Backend.cfg.Config.fault with
    | Some s -> Fault.crash_active s
    | None -> false
  in
  let b =
    {
      core;
      costs;
      sched = Scheduler_mp.create core.Backend.cfg ~nprocs;
      fabric;
      fault;
      comm =
        Communicator.create eng ~cfg:core.Backend.cfg ~costs
          ~nodes:core.Backend.nodes ~fabric ~metrics:core.Backend.metrics
          ?trace:core.Backend.trace;
      sched_events = Mailbox.create ~name:"sched-events" ();
      dispatch_boxes =
        Array.init nprocs (fun p ->
            Mailbox.create ~name:(dispatch_box_name p) ());
      track;
      doomed = Array.make nprocs false;
      assigned = Array.init nprocs (fun _ -> Hashtbl.create 16);
    }
  in
  {
    Backend.task_create_cost = costs.Costs.task_create;
    flop_rate = costs.Costs.flops;
    on_enable = on_enable b;
    on_write_commit = Communicator.on_write_commit b.comm;
    start = start b;
    stop = stop b;
    finalize = finalize b;
    comm_stats = (fun () -> Communicator.stats b.comm);
    recovery_actions =
      (if track then
         Some
           {
             Recovery.act_doom = doom b;
             act_recover = recover b;
             act_restart = restart b;
             act_ping = Some (ping b);
             act_announce = Some (announce b);
           }
       else None);
  }
