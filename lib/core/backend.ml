(** The machine-backend architecture.

    The paper's runtime exists as "several variants ... each tailored for
    the different memory hierarchies of different machines" (§3.2). This
    module is the seam between those variants and the platform-neutral
    core: {!core} is the state the core owns and every backend operates on
    (task graph bookkeeping, synchronizer, metrics, the simulated
    processors), and {!ops} is the signature a machine backend satisfies —
    task enable/placement policy, the dispatch loop, completion
    notification, shutdown and end-of-run accounting.

    Two implementations exist: {!Backend_shm} (DASH: hardware shared
    memory, distributed task queues, cluster-aware stealing) and
    {!Backend_mp} (message passing: a hypercube fabric, centralized
    scheduler and software coherence via the communicator — the iPSC/860
    and, with a shared-bus cost model, the workstation LAN). Adding a
    machine means writing one more [create : core -> costs -> ops] and
    listing it in [Runtime]'s backend construction — the core never
    dispatches on machine type. *)

open Jade_sim
open Jade_machines

(** Platform-neutral runtime state, shared between the core and its
    backend. Mutable scheduling state ([outstanding], [stopped], ...) is
    written by both sides; the backend-facing hooks at the bottom are set
    once, immediately after backend construction. *)
type core = {
  eng : Engine.t;
  cfg : Config.t;
  nprocs : int;
  nodes : Mnode.t array;
  metrics : Metrics.t;
  sync : Synchronizer.t;
  trace : Tracing.t option;
  mutable outstanding : int;  (** tasks created but not yet completed *)
  mutable main_done : bool;
  mutable main_blocked : bool;
      (** main thread is waiting on a task or in [drain]; until then it
          owns processor 0 and the local dispatcher defers to it *)
  mutable stopped : bool;
  mutable finish_time : float;
  mutable ctx_proc : int;  (** processor charged for synchronizer work *)
  mutable drain_waiters : (unit -> unit) list;
  mutable stop_hook : unit -> unit;
      (** backend's shutdown (stop dispatch loops); wired by [Runtime]
          right after backend construction, before any task can exist *)
  mutable recovery : Recovery.t option;
      (** crash supervisor, present only when the fault plan is
          crash-active; wired by [Runtime] right after backend
          construction *)
}

(** What a machine backend provides. One record per machine; the core
    calls through it and never matches on machine type. *)
type ops = {
  task_create_cost : float;  (** charged to processor 0 per [withonly] *)
  flop_rate : float;  (** effective flops/s, for [Runtime.work] charging *)
  on_enable : Taskrec.t -> unit;
      (** the synchronizer enabled a task: place/queue it *)
  on_write_commit : Meta.t -> Taskrec.t -> unit;
      (** a writer committed a new object version (broadcast/eager hook) *)
  start : unit -> unit;  (** spawn the backend's simulation processes *)
  stop : unit -> unit;  (** all work done: stop the dispatch loops *)
  finalize : unit -> unit;  (** end-of-run metrics accounting *)
  comm_stats : unit -> (int * int * int) list;
      (** per-processor (proc, in-flight fetches, retransmits), for
          deadlock / unrecoverable reports; [[]] where meaningless *)
  recovery_actions : Recovery.actions;
      (** crash-recovery mechanics, handed to the supervisor when the
          fault plan is crash-active *)
}

(* ------------------------------------------------------------------ *)
(* Shared execution helpers (used by every backend). *)

(* Constant blocked-registry label, preallocated so waiting is free. *)
let on_task_queue () = "task-queue"

(* A crash felled processor [p]: its dispatcher halts at this boundary. *)
let doomed (c : core) p =
  match c.recovery with Some r -> Recovery.doomed r p | None -> false

(* Processor [p]'s dispatcher reached its halt boundary. *)
let note_halted (c : core) p =
  match c.recovery with Some r -> Recovery.note_stopped r p | None -> ()

(* Processor [p]'s dispatch process is "dispatcher-<p>". *)
let dispatcher_name = Names.memo (Printf.sprintf "dispatcher-%d")

(* Run [task] on [proc], every machine alike: occupy the processor for
   [overhead] (dispatch, plus on DASH the steal and cache costs), run the
   body, charge whatever compute the body did not already charge through
   [Runtime.work] at [flops] (the common case charges it all here), and
   account the time. [comm] is the part of [overhead] that is
   communication: DASH's cache-model cost, zero on message-passing
   machines, whose fetches happen before the task starts. *)
let execute (c : core) (task : Taskrec.t) ~proc ~flops ~overhead ~comm =
  let m = c.metrics in
  task.Taskrec.ran_on <- proc;
  task.Taskrec.fl.Taskrec.started_at <- Engine.now c.eng;
  task.Taskrec.state <- Taskrec.Running;
  m.Metrics.tasks_executed <- m.Metrics.tasks_executed + 1;
  if proc = task.Taskrec.target then
    m.Metrics.tasks_on_target <- m.Metrics.tasks_on_target + 1;
  let compute =
    if c.cfg.Config.work_free then 0.0 else task.Taskrec.work /. flops
  in
  Mnode.occupy c.nodes.(proc) overhead;
  task.Taskrec.fl.Taskrec.charged <- 0.0;
  if not c.cfg.Config.work_free then task.Taskrec.body task proc;
  let remaining =
    Float.max 0.0 (compute -. (task.Taskrec.fl.Taskrec.charged /. flops))
  in
  if remaining > 0.0 then Mnode.occupy c.nodes.(proc) remaining;
  let fl = m.Metrics.fl in
  fl.Metrics.total_task_time <- fl.Metrics.total_task_time +. compute +. comm;
  fl.Metrics.total_compute_time <- fl.Metrics.total_compute_time +. compute;
  fl.Metrics.total_comm_time <- fl.Metrics.total_comm_time +. comm;
  task.Taskrec.fl.Taskrec.finished_at <- Engine.now c.eng;
  match c.trace with Some tr -> Tracing.record tr task | None -> ()

let finish_now (c : core) =
  let max_avail =
    Array.fold_left (fun acc n -> Float.max acc (Mnode.avail n)) 0.0 c.nodes
  in
  Float.max (Engine.now c.eng) max_avail

(* Run-completion check, called after every task completion: releases
   [drain] waiters when the graph empties, and once the main program has
   also returned, stamps the finish time and asks the backend to stop its
   dispatch loops. *)
let maybe_finish (c : core) =
  if c.outstanding = 0 then begin
    List.iter (fun f -> Engine.schedule_now c.eng f) c.drain_waiters;
    c.drain_waiters <- []
  end;
  if c.main_done && c.outstanding = 0 && not c.stopped then begin
    c.stopped <- true;
    c.finish_time <- finish_now c;
    c.stop_hook ()
  end

(* The main thread runs on processor 0 and keeps it until it blocks: the
   processor-0 dispatcher polls rather than racing the program's task
   creation (the paper devotes the main processor to creating tasks for
   exactly this reason, §5.2). *)
let main_owns_proc0 (c : core) = not (c.main_done || c.main_blocked)

(* Call [k] at the first poll, every [poll] seconds from now, that finds
   processor 0 released. Each poll is an engine tick, not a process
   resume, and one that finds processor 0 still owned usually skips the
   far lane ({!Engine.poll}). *)
let on_main_release (c : core) ~poll k =
  let m = c.metrics in
  (* Clamp so a zero poll interval cannot respin at a fixed virtual time. *)
  Engine.poll c.eng (Float.max poll 1e-6)
    (fun () ->
      m.Metrics.main_polls <- m.Metrics.main_polls + 1;
      not (main_owns_proc0 c))
    k

let wait_for_main_release (c : core) ~poll =
  if main_owns_proc0 c then Engine.await c.eng (on_main_release c ~poll)

(* A task finished executing: retire it from the synchronizer (enabling
   successors), wake anyone [wait]ing on it, and re-check termination.
   [proc] is charged for the synchronizer work the completion triggers. *)
let complete_task (c : core) (task : Taskrec.t) ~proc =
  c.ctx_proc <- proc;
  Synchronizer.complete c.sync task;
  Taskrec.signal_done c.eng task;
  c.outstanding <- c.outstanding - 1;
  maybe_finish c
