(** DASH backend (§3.1, §3.2): hardware-coherent shared memory.

    Tasks are enabled into the distributed shared-memory scheduler
    (per-processor queues of per-object task queues) and executed by one
    dispatcher process per processor; an idle dispatcher waits out the
    cyclic-search time, then steals — own cluster first. Communication is
    implicit: {!Shm_model} folds the cache/remote-memory traffic of each
    task's declared objects into its execution time. *)

open Jade_sim
open Jade_machines

type t = {
  core : Backend.core;
  costs : Costs.shm;
  sched : Scheduler_shm.t;
  model : Shm_model.t;
  idle_wakers : (unit -> unit) option array;
  track : bool;  (** crash plan active *)
  doomed : bool array;
      (** crash injected; the dispatcher halts at its next boundary *)
  halted : bool array;  (** dispatcher reached its halt boundary *)
}

(* Wake idle dispatchers. [first] (a task's target processor) is woken
   before the others so that, at equal virtual times, the home processor
   gets the first chance at a newly enabled task and stealing only happens
   when the home processor is busy — matching the intent of §3.2.1. *)
let wake_idle ?first b =
  let wake p =
    match b.idle_wakers.(p) with
    | Some f ->
        b.idle_wakers.(p) <- None;
        Engine.schedule_now b.core.Backend.eng f
    | None -> ()
  in
  (match first with Some p -> wake p | None -> ());
  Array.iteri (fun p _ -> wake p) b.idle_wakers

let execute b proc (task : Taskrec.t) =
  let c = b.core in
  let costs = b.costs in
  task.Taskrec.ran_on <- proc;
  task.Taskrec.fl.Taskrec.started_at <- Engine.now c.Backend.eng;
  task.Taskrec.state <- Taskrec.Running;
  Backend.record_execution c task proc;
  let steal_extra = if task.Taskrec.stolen then costs.Costs.steal_cost else 0.0 in
  let comm =
    if c.Backend.cfg.Config.work_free then 0.0
    else Shm_model.task_cost b.model task ~proc
  in
  let compute =
    if c.Backend.cfg.Config.work_free then 0.0
    else task.Taskrec.work /. costs.Costs.flops_shm
  in
  Mnode.occupy c.Backend.nodes.(proc)
    (costs.Costs.task_dispatch_shm +. steal_extra +. comm);
  task.Taskrec.fl.Taskrec.charged <- 0.0;
  Backend.run_body c task proc;
  (* Charge whatever compute the body did not already charge through
     [Runtime.work] (the common case charges it all here). *)
  let remaining =
    Float.max 0.0
      (compute -. (task.Taskrec.fl.Taskrec.charged /. costs.Costs.flops_shm))
  in
  if remaining > 0.0 then Mnode.occupy c.Backend.nodes.(proc) remaining;
  let m = c.Backend.metrics in
  m.Metrics.fl.Metrics.total_task_time <-
    m.Metrics.fl.Metrics.total_task_time +. compute +. comm;
  m.Metrics.fl.Metrics.total_compute_time <-
    m.Metrics.fl.Metrics.total_compute_time +. compute;
  m.Metrics.fl.Metrics.total_comm_time <-
    m.Metrics.fl.Metrics.total_comm_time +. comm;
  task.Taskrec.fl.Taskrec.finished_at <- Engine.now c.Backend.eng;
  (match c.Backend.trace with Some tr -> Tracing.record tr task | None -> ());
  Backend.complete_task c task ~proc

(* Crash boundary: the dispatcher halts; the supervisor's watchdog
   observes the halt (shared memory has no fabric to probe over). *)
let halt b proc =
  b.halted.(proc) <- true;
  match b.core.Backend.recovery with
  | Some r -> Recovery.note_stopped r proc
  | None -> ()

let dispatcher b proc =
  let c = b.core in
  let doomed () = b.track && b.doomed.(proc) in
  let run_and_yield task =
    execute b proc task;
    (* Yield through the event queue so dispatchers woken by this task's
       completion run before we grab the next task — the completing
       processor must not outrace the home processors of the tasks it
       just enabled. *)
    Engine.delay c.Backend.eng 0.0
  in
  let rec loop () =
    if doomed () then halt b proc
    else if not c.Backend.stopped then begin
      if proc = 0 then
        Backend.wait_for_main_release c ~poll:b.costs.Costs.steal_patience;
      match Scheduler_shm.next b.sched ~allow_steal:false ~proc with
      | Some task ->
          run_and_yield task;
          loop ()
      | None ->
          (* Nothing local: spend the cyclic-search time, re-check our own
             queue, and only then steal — the balancer should not move a
             task off its target processor the instant it appears. *)
          Engine.delay c.Backend.eng b.costs.Costs.steal_patience;
          if doomed () then halt b proc
          else if not c.Backend.stopped then begin
            match Scheduler_shm.next b.sched ~proc with
            | Some task ->
                run_and_yield task;
                loop ()
            | None ->
                if not c.Backend.stopped then begin
                  Engine.await ~on:Backend.on_task_queue c.Backend.eng
                    (fun resume -> b.idle_wakers.(proc) <- Some resume);
                  loop ()
                end
          end
    end
  in
  loop ()

(* Crash-recovery hooks (watchdog mode: no fabric, so the supervisor
   relies on the doomed/halted handshake instead of heartbeat probes). *)

let doom b p =
  b.doomed.(p) <- true;
  (* Wake the victim if it is parked so it reaches its halt boundary
     instead of sleeping through the failure. *)
  match b.idle_wakers.(p) with
  | Some f ->
      b.idle_wakers.(p) <- None;
      Engine.schedule_now b.core.Backend.eng f
  | None -> ()

let recover b p =
  Scheduler_shm.mark_down b.sched p;
  let moved = Scheduler_shm.fail_over b.sched ~proc:p in
  if moved > 0 then wake_idle b;
  moved

let restart b p ~was_detected:_ =
  b.doomed.(p) <- false;
  if b.halted.(p) then begin
    b.halted.(p) <- false;
    Scheduler_shm.mark_up b.sched p;
    Engine.spawn
      ~name:(Printf.sprintf "dispatcher-%d" p)
      b.core.Backend.eng
      (fun () -> dispatcher b p)
  end

let on_enable b (task : Taskrec.t) =
  let c = b.core in
  task.Taskrec.fl.Taskrec.enabled_at <- Engine.now c.Backend.eng;
  ignore
    (Mnode.charge
       c.Backend.nodes.(c.Backend.ctx_proc)
       b.costs.Costs.task_enable_shm);
  Scheduler_shm.enqueue b.sched task;
  (* At the locality-aware levels the target processor gets first chance;
     under No_locality distribution is strictly first-come first-served —
     the locality policy knob is consulted here, in the backend. *)
  match c.Backend.cfg.Config.locality with
  | Config.No_locality -> wake_idle b
  | Config.Locality | Config.Task_placement ->
      wake_idle ~first:task.Taskrec.target b

let start b () =
  for p = 0 to b.core.Backend.nprocs - 1 do
    Engine.spawn
      ~name:(Printf.sprintf "dispatcher-%d" p)
      b.core.Backend.eng
      (fun () -> dispatcher b p)
  done

let finalize b () =
  b.core.Backend.metrics.Metrics.steals <- Scheduler_shm.steals b.sched

let machine_name = "DASH"

let validate ~nprocs =
  if nprocs < 1 then Backend.invalid_nprocs ~machine:machine_name ~nprocs

let create (core : Backend.core) (costs : Costs.shm) : Backend.ops =
  let track =
    match core.Backend.cfg.Config.fault with
    | Some s -> Jade_net.Fault.crash_active s
    | None -> false
  in
  let b =
    {
      core;
      costs;
      sched =
        Scheduler_shm.create ~cluster_size:costs.Costs.cluster_size
          core.Backend.cfg ~nprocs:core.Backend.nprocs;
      model = Shm_model.create costs ~nprocs:core.Backend.nprocs;
      idle_wakers = Array.make core.Backend.nprocs None;
      track;
      doomed = Array.make core.Backend.nprocs false;
      halted = Array.make core.Backend.nprocs false;
    }
  in
  {
    Backend.name = machine_name;
    task_create_cost = costs.Costs.task_create_shm;
    flop_rate = costs.Costs.flops_shm;
    validate;
    on_enable = on_enable b;
    on_write_commit = (fun _ _ -> ());
    start = start b;
    stop = (fun () -> wake_idle b);
    finalize = finalize b;
    comm_stats = (fun () -> []);
    recovery_actions =
      (if track then
         Some
           {
             Recovery.act_doom = doom b;
             act_recover = recover b;
             act_restart = restart b;
             act_ping = None;
             act_announce = None;
           }
       else None);
  }
