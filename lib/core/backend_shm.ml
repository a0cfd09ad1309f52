(** DASH backend (§3.1, §3.2): hardware-coherent shared memory.

    Tasks are enabled into the distributed shared-memory scheduler
    (per-processor queues of per-object task queues) and executed by one
    dispatcher process per processor; an idle dispatcher waits out the
    cyclic-search time, then steals — own cluster first. Communication is
    implicit: {!Shm_model} folds the cache/remote-memory traffic of each
    task's declared objects into its execution time.

    The idle search runs in engine callbacks, pushed where the fiber's own
    delays and wake-ups were; they resume a fiber only to hand it a task
    or let it exit. A wake-up herd, or the patience delays of one event's
    searchers, ride one event that counts each activation: nothing could
    have run between their own consecutive events at one instant. *)

open Jade_sim
open Jade_machines

(* An idle step hands the fiber a task, lets it exit, or goes on. *)
type step = Run of Taskrec.t | Quit | Idle

type t = {
  core : Backend.core;
  costs : Costs.shm;
  sched : Scheduler_shm.t;
  model : Shm_model.t;
  parked : bool array;  (** searched in vain; the next enable wakes it *)
  hand_off : (step -> unit) array;  (** resumes an idle dispatcher's fiber *)
  mutable waiting : int list;  (** this event's searchers, latest first *)
}

let execute b proc (task : Taskrec.t) =
  let c = b.core in
  let costs = b.costs in
  let steal_extra = if task.Taskrec.stolen then costs.Costs.steal_cost else 0.0 in
  let comm =
    if c.Backend.cfg.Config.work_free then 0.0
    else Shm_model.task_cost b.model task ~proc
  in
  Backend.execute c task ~proc ~flops:costs.Costs.flops_shm
    ~overhead:(costs.Costs.task_dispatch_shm +. steal_extra +. comm)
    ~comm;
  Backend.complete_task c task ~proc

(* Crash boundary: the dispatcher halts; the supervisor's watchdog
   observes the halt (shared memory has no fabric to probe over). *)
let halt b proc =
  Backend.note_halted b.core proc;
  Quit

(* Nothing local: spend the cyclic-search time before stealing — the
   balancer should not move a task off its target processor the instant
   it appears. *)
let probe b p =
  match Scheduler_shm.next b.sched ~allow_steal:false ~proc:p with
  | Some task -> Run task
  | None ->
      b.waiting <- p :: b.waiting;
      Idle

(* The patience ran out: re-check the own queue, steal, or park. *)
let steal b p =
  let m = b.core.Backend.metrics in
  m.Metrics.patience_probes <- m.Metrics.patience_probes + 1;
  if Backend.doomed b.core p then halt b p
  else if b.core.Backend.stopped then Quit
  else
    match Scheduler_shm.next b.sched ~proc:p with
    | Some task -> Run task
    | None ->
        b.parked.(p) <- true;
        Idle

(* Push this event's patience batch. Called before anything else is
   pushed, so the batch takes its members' place in the event order. *)
let rec flush b =
  if b.waiting <> [] then begin
    let ps = List.rev b.waiting in
    b.waiting <- [];
    Engine.schedule_after b.core.Backend.eng b.costs.Costs.steal_patience
      (fun () -> carry b steal ps)
  end

(* One event carrying [step] for each of [ps] in order, resuming the
   fiber of each member that gets a task or must exit. *)
and carry b step ps =
  List.iter
    (fun p ->
      match step b p with
      | Idle -> ()
      | s ->
          flush b;
          b.hand_off.(p) s)
    ps;
  flush b;
  Engine.count_events b.core.Backend.eng (List.length ps - 1)

let search b p =
  let c = b.core in
  if Backend.doomed c p then halt b p
  else if c.Backend.stopped then Quit
  else if p = 0 && Backend.main_owns_proc0 c then begin
    flush b;
    Backend.on_main_release c ~poll:b.costs.Costs.steal_patience (fun () ->
        carry b probe [ 0 ]);
    Idle
  end
  else probe b p

let herd b ps =
  let m = b.core.Backend.metrics in
  m.Metrics.wake_probes <- m.Metrics.wake_probes + List.length ps;
  List.iter (fun p -> b.parked.(p) <- false) ps;
  Engine.schedule_now b.core.Backend.eng (fun () -> carry b search ps)

(* Wake idle dispatchers. [first] (a task's target processor) is woken
   before the others so that, at equal virtual times, the home processor
   gets the first chance at a newly enabled task and stealing only happens
   when the home processor is busy — matching the intent of §3.2.1. *)
let wake_idle ?(first = -1) b =
  let ps = ref [] in
  for p = b.core.Backend.nprocs - 1 downto 0 do
    if b.parked.(p) && p <> first then ps := p :: !ps
  done;
  if first >= 0 && b.parked.(first) then ps := first :: !ps;
  if !ps <> [] then herd b !ps

let rec dispatcher b proc =
  let c = b.core in
  let step =
    match search b proc with
    | Idle ->
        flush b;
        Engine.await ~on:Backend.on_task_queue c.Backend.eng (fun resume ->
            b.hand_off.(proc) <- resume)
    | step -> step
  in
  match step with
  | Run task ->
      execute b proc task;
      (* Yield through the event queue so dispatchers woken by this task's
         completion run before we grab the next task — the completing
         processor must not outrace the home processors of the tasks it
         just enabled. *)
      Engine.delay c.Backend.eng 0.0;
      dispatcher b proc
  | Quit | Idle -> ()

(* Crash-recovery hooks (watchdog mode: no fabric, so the supervisor
   observes the halt directly instead of probing). *)

let doom b p =
  (* Wake the victim if it is parked so it reaches its halt boundary
     instead of sleeping through the failure. *)
  if b.parked.(p) then herd b [ p ]

let recover b p =
  Scheduler_shm.mark_down b.sched p;
  let moved = Scheduler_shm.fail_over b.sched ~proc:p in
  if moved > 0 then wake_idle b;
  moved

(* A halted victim rejoins after recovery moved its queue away. *)
let restart b p =
  Scheduler_shm.mark_up b.sched p;
  Engine.spawn
    ~name:(Backend.dispatcher_name p)
    b.core.Backend.eng
    (fun () -> dispatcher b p)

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
      ~name:(Backend.dispatcher_name p)
      b.core.Backend.eng
      (fun () -> dispatcher b p)
  done

let finalize b () =
  b.core.Backend.metrics.Metrics.steals <- Scheduler_shm.steals b.sched

let create (core : Backend.core) (costs : Costs.shm) : Backend.ops =
  let b =
    {
      core;
      costs;
      sched =
        Scheduler_shm.create ~cluster_size:costs.Costs.cluster_size
          core.Backend.cfg ~nprocs:core.Backend.nprocs;
      model = Shm_model.create costs ~nprocs:core.Backend.nprocs;
      parked = Array.make core.Backend.nprocs false;
      hand_off = Array.make core.Backend.nprocs ignore;
      waiting = [];
    }
  in
  {
    Backend.task_create_cost = costs.Costs.task_create_shm;
    flop_rate = costs.Costs.flops_shm;
    on_enable = on_enable b;
    on_write_commit = (fun _ _ -> ());
    start = start b;
    stop = (fun () -> wake_idle b);
    finalize = finalize b;
    comm_stats = (fun () -> []);
    recovery_actions =
      {
        Recovery.act_doom = doom b;
        act_recover = recover b;
        act_restart = restart b;
        act_ping = None;
        act_announce = None;
      };
  }
