(** Crash-stop processor failures and access-information-driven recovery.

    The runtime knows, per task, exactly which shared objects are read and
    written — and that same access information is what makes recovery
    tractable: when a processor crash-stops, the supervisor can tell which
    object versions it held (from {!Meta} copy tables), which tasks were in
    flight on it (from the backend's assignment ledger), and what must be
    re-fetched or re-executed (from the producer log fed by write
    commits).

    The failure model is *crash-stop at a task boundary*: an injected crash
    dooms the processor; its dispatcher halts at the next boundary (before
    starting another task), and only then does its NIC go dark
    ({!Fabric.set_down}) and the halt become observable. Work already
    underway completes — partial numeric mutation of shared payloads is
    exactly what a deterministic simulation cannot tolerate — so "the
    victim's tasks" means its assigned-but-unstarted queue plus anything the
    scheduler routes to it before detection.

    Detection is a heartbeat/suspicion protocol run by a supervisor process
    on processor 0: periodic {!Jade_net.Tag.Ping} probes over the fabric
    (exempt from the message-level chaos plan, but not from down-endpoint
    loss), with a suspicion timeout derived from the machine's latency
    floors. Because interrupt-context replies serialize behind a busy node's
    backlog, suspicion alone could false-positive on a slow node; the
    supervisor therefore only declares a processor dead when it is
    suspicious *and* the crash plan actually felled it (the injector has
    ground truth). The DASH backend has no fabric; there the supervisor
    degrades to a watchdog that observes the halt directly, with the same
    timeout discipline.

    On detection the supervisor, in order: (1) reassigns the victim's
    unfinished tasks to survivors through the scheduler; (2) invalidates
    the victim's replicas and, for each object it owned, elects a new owner
    from survivors holding the committed version — reconstructing the
    version when none survives (initial contents regenerate from the
    program image; later versions re-execute the producing task, charging
    its declared work) — and (3) leaves in-flight fetches to
    the communicator's retransmit machinery, which re-aims each retry at
    the object's *current* owner, so ownership transfer heals them.

    When an object version is lost beyond reconstruction (or the root
    processor itself crashes), the run completes its event drain and then
    raises {!Unrecoverable} naming the lost objects — never a hang, never a
    wrong answer. All of this is gated on {!Jade_net.Fault.crash_active}: a
    crash-inactive plan spawns nothing and the trajectory is bit-identical
    to running with no plan at all. *)

open Jade_sim

(** Backend-provided recovery actions. The supervisor is backend-agnostic;
    each backend wires the mechanics of dooming, recovering and restarting
    a processor. *)
type actions = {
  act_doom : int -> unit;
      (** crash injection: the processor is now {!doomed}; wake its
          dispatcher so it reaches the halt boundary *)
  act_recover : int -> int;
      (** detection: mark the processor down in the scheduler and
          re-enqueue its unfinished tasks; returns how many were moved *)
  act_restart : int -> unit;
      (** optional restart: bring a halted processor back with an empty
          queue; called only once its old queue has been recovered *)
  act_ping : (int -> unit) option;
      (** heartbeat probe; [None] selects watchdog detection (DASH) *)
  act_announce : (Meta.t -> unit) option;
      (** ownership-transfer notice to survivors (message-passing only) *)
}

(** Producer-log entry: the task whose write committed an object's current
    version, kept so a lost version can be re-executed deterministically. *)
type producer = { pr_tid : int; pr_work : float }

type failure = {
  ur_proc : int;  (** the crashed processor that made the run unrecoverable *)
  ur_lost : (string * int) list;  (** lost objects as (name, version) *)
  ur_fetches : (int * int * int) list;
      (** per-processor (proc, in-flight fetches, retransmits) *)
}

exception Unrecoverable of failure

let failure_to_string f =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "Unrecoverable: processor %d crashed and %d object version(s) have no \
        surviving or reconstructible copy"
       f.ur_proc (List.length f.ur_lost));
  List.iter
    (fun (name, version) ->
      Buffer.add_string buf (Printf.sprintf "\n  lost %s v%d" name version))
    f.ur_lost;
  List.iter
    (fun (p, inflight, retrans) ->
      if inflight > 0 || retrans > 0 then
        Buffer.add_string buf
          (Printf.sprintf "\n  proc %d: %d fetch(es) in flight, %d retransmit(s)"
             p inflight retrans))
    f.ur_fetches;
  Buffer.contents buf

let () =
  Printexc.register_printer (function
    | Unrecoverable f -> Some (failure_to_string f)
    | _ -> None)

type t = {
  eng : Engine.t;
  nprocs : int;
  spec : Jade_net.Fault.spec;
  metrics : Metrics.t;
  plan : (int * float) list;  (** the pure crash schedule for this run *)
  period : float;  (** heartbeat / watchdog scan interval *)
  timeout : float;  (** suspicion threshold *)
  flop_rate : float;  (** survivor compute rate, for re-execution charges *)
  copy_cost : int -> float;  (** virtual seconds to rebuild a replica *)
  actions : actions;
  crashed : bool array;  (** injected and not yet restarted *)
  halted : bool array;  (** dispatcher reached its halt boundary *)
  detected : bool array;  (** supervisor declared it dead and recovered it *)
  rejoin_due : bool array;
      (** its restart came after the halt but before detection; it
          rejoins once recovered *)
  last_pong : float array;  (** last heartbeat reply per processor *)
  suspect_since : float array;  (** watchdog: first observation of the halt *)
  producers : (int, producer) Hashtbl.t;  (** object id -> producing task *)
  all_objects : unit -> Meta.t list;
  should_stop : unit -> bool;
  mutable fatal : failure option;
}

let create ~spec ~nprocs ~period ~timeout ~flop_rate ~copy_cost ~actions
    ~objects ~should_stop eng metrics =
  if period <= 0.0 || timeout <= 0.0 then
    invalid_arg "Recovery.create: period and timeout must be positive";
  {
    eng;
    nprocs;
    spec;
    metrics;
    plan = Jade_net.Fault.crash_plan spec ~nprocs;
    period;
    timeout;
    flop_rate;
    copy_cost;
    actions;
    crashed = Array.make nprocs false;
    halted = Array.make nprocs false;
    detected = Array.make nprocs false;
    rejoin_due = Array.make nprocs false;
    last_pong = Array.make nprocs 0.0;
    suspect_since = Array.make nprocs (-1.0);
    producers = Hashtbl.create 64;
    all_objects = objects;
    should_stop;
    fatal = None;
  }

let fatal t = t.fatal

let alive t p = not t.crashed.(p)

(* The root's crash is whole-machine failure: no backend halts it. *)
let doomed t p = p > 0 && t.crashed.(p)

(* Lowest-index live processor; recovery targets land here when an
   object's home is dead. *)
let first_alive t =
  let rec go p =
    if p >= t.nprocs then invalid_arg "Recovery: no live processor"
    else if alive t p then p
    else go (p + 1)
  in
  go 0

(** The producer log: remember which task committed each object's current
    version, so a lost version can be charged as a re-execution. Fed by
    the runtime's write-commit hook; only populated in crash-active runs. *)
let note_commit t (meta : Meta.t) (task : Taskrec.t) =
  Hashtbl.replace t.producers meta.Meta.id
    { pr_tid = task.Taskrec.tid; pr_work = task.Taskrec.work }

(** The victim's dispatcher reached its halt boundary (its NIC is dark
    from now on). Suspicion only counts from here. *)
let note_stopped t p = t.halted.(p) <- true

(** A heartbeat reply arrived from processor [p]. *)
let note_pong t p = t.last_pong.(p) <- Engine.now t.eng

(* ---- object recovery ---------------------------------------------------- *)

(* Prefer the home processor, else the lowest-index survivor holding the
   committed version. *)
let elect_holder t (m : Meta.t) =
  if alive t m.Meta.home && m.Meta.copies.(m.Meta.home) >= m.Meta.committed
  then Some m.Meta.home
  else begin
    let found = ref None in
    for q = t.nprocs - 1 downto 0 do
      if alive t q && m.Meta.copies.(q) >= m.Meta.committed then
        found := Some q
    done;
    !found
  end

let transfer t m q =
  m.Meta.owner <- q;
  match t.actions.act_announce with Some f -> f m | None -> ()

let bump_reconstructed t =
  t.metrics.Metrics.objects_reconstructed <-
    t.metrics.Metrics.objects_reconstructed + 1

(* No survivor holds the committed version: rebuild it. Version 0 is the
   initial contents, regenerated from the program image at replica-copy
   cost. Later versions re-execute the producing task (once per task, even
   if it wrote several lost objects), charging its declared work. With no
   producer on record the version is lost for good. *)
let reconstruct t (m : Meta.t) ~lost ~reexecuted =
  if m.Meta.committed = 0 then begin
    let q = first_alive t in
    Engine.delay t.eng (t.copy_cost m.Meta.size);
    m.Meta.copies.(q) <- 0;
    transfer t m q;
    bump_reconstructed t
  end
  else
    match Hashtbl.find_opt t.producers m.Meta.id with
    | Some pr ->
        if not (Hashtbl.mem reexecuted pr.pr_tid) then begin
          Hashtbl.add reexecuted pr.pr_tid ();
          Engine.delay t.eng (pr.pr_work /. t.flop_rate);
          t.metrics.Metrics.tasks_reexecuted <-
            t.metrics.Metrics.tasks_reexecuted + 1
        end;
        let q = if alive t m.Meta.home then m.Meta.home else first_alive t in
        m.Meta.copies.(q) <- m.Meta.committed;
        transfer t m q;
        bump_reconstructed t
    | None -> lost := (m.Meta.name, m.Meta.committed) :: !lost

(* Invalidate the victim's replicas and re-home everything it owned. *)
let recover_objects t p =
  let lost = ref [] in
  let reexecuted = Hashtbl.create 8 in
  List.iter
    (fun (m : Meta.t) ->
      m.Meta.copies.(p) <- -1;
      if m.Meta.owner = p then
        match elect_holder t m with
        | Some q -> transfer t m q
        | None -> reconstruct t m ~lost ~reexecuted)
    (t.all_objects ());
  if !lost <> [] && t.fatal = None then
    t.fatal <- Some { ur_proc = p; ur_lost = List.rev !lost; ur_fetches = [] }

(* ---- detection and injection -------------------------------------------- *)

(* Clear the processor's crash state; a halted one also rejoins through
   its backend, which only ever happens once its queue was recovered. *)
let revive t p =
  let halted = t.halted.(p) in
  t.crashed.(p) <- false;
  t.halted.(p) <- false;
  t.detected.(p) <- false;
  t.rejoin_due.(p) <- false;
  t.suspect_since.(p) <- -1.0;
  t.last_pong.(p) <- Engine.now t.eng;
  if halted then t.actions.act_restart p

let detect t p =
  t.detected.(p) <- true;
  t.metrics.Metrics.crashes_detected <- t.metrics.Metrics.crashes_detected + 1;
  let t0 = Engine.now t.eng in
  let moved = t.actions.act_recover p in
  t.metrics.Metrics.tasks_reexecuted <-
    t.metrics.Metrics.tasks_reexecuted + moved;
  recover_objects t p;
  let fl = t.metrics.Metrics.fl in
  fl.Metrics.recovery_time <-
    fl.Metrics.recovery_time +. (Engine.now t.eng -. t0);
  if t.rejoin_due.(p) && not (t.should_stop ()) then revive t p

(* Objects with no valid copy on a survivor — what a root crash takes with
   it. *)
let root_lost t =
  List.filter_map
    (fun (m : Meta.t) ->
      let ok = ref false in
      for q = 1 to t.nprocs - 1 do
        if alive t q && m.Meta.copies.(q) >= m.Meta.committed then ok := true
      done;
      if !ok then None else Some (m.Meta.name, m.Meta.committed))
    (t.all_objects ())

(* The restart timer fired. Before the halt boundary it cancels the
   crash (the dispatcher never stopped), and after detection the victim
   rejoins now. A victim that halted but is not yet detected rejoins when
   [detect] has recovered it: its queue may hold tasks whose assignment
   was lost at its dark NIC, and only recovery re-routes them. Detecting
   it here instead would re-route tasks whose completion is still in
   flight. *)
let restart t p =
  if (not (t.should_stop ())) && t.crashed.(p) then
    if t.halted.(p) && not t.detected.(p) then t.rejoin_due.(p) <- true
    else revive t p

let inject t p =
  if (not (t.should_stop ())) && not t.crashed.(p) then begin
    t.crashed.(p) <- true;
    t.metrics.Metrics.crashes_injected <-
      t.metrics.Metrics.crashes_injected + 1;
    if p = 0 then begin
      (* Root failure is whole-machine failure: the main program and its
         uncommitted state die with it. The run is allowed to drain so the
         report is complete, then raises Unrecoverable. *)
      if t.fatal = None then
        t.fatal <- Some { ur_proc = 0; ur_lost = root_lost t; ur_fetches = [] }
    end
    else begin
      t.actions.act_doom p;
      if t.spec.Jade_net.Fault.crash_restart > 0.0 then
        Engine.schedule_after t.eng t.spec.Jade_net.Fault.crash_restart
          (fun () -> restart t p)
    end
  end

(* One supervisor scan: probe undetected processors and declare dead any
   that are suspicious. Suspicion alone is not enough — a pong is interrupt
   work that serializes behind the replying node's backlog, so a slow node
   can out-wait any timeout. The injector has ground truth (it felled the
   processor), so detection requires suspicious AND actually crashed AND
   past its halt boundary (before the boundary its NIC still answers, and
   its running task must be allowed to finish). *)
let scan t =
  let now = Engine.now t.eng in
  for p = 1 to t.nprocs - 1 do
    if not t.detected.(p) then
      match t.actions.act_ping with
      | Some ping ->
          ping p;
          if
            t.crashed.(p) && t.halted.(p)
            && now -. t.last_pong.(p) > t.timeout
          then detect t p
      | None ->
          (* Watchdog (shared memory): no fabric to probe over; observe the
             halt directly, with the same timeout discipline. *)
          if t.crashed.(p) && t.halted.(p) then begin
            if t.suspect_since.(p) < 0.0 then t.suspect_since.(p) <- now
            else if now -. t.suspect_since.(p) >= t.timeout then detect t p
          end
          else t.suspect_since.(p) <- -1.0
  done

let monitor t =
  let rec loop () =
    if (not (t.should_stop ())) && t.fatal = None then begin
      Engine.delay t.eng t.period;
      if (not (t.should_stop ())) && t.fatal = None then begin
        scan t;
        loop ()
      end
    end
  in
  loop ()

(** Arm the crash plan: schedule every injection and spawn the supervisor.
    A run whose plan is empty spawns nothing — zero extra events. *)
let start t =
  if t.plan <> [] then begin
    Array.fill t.last_pong 0 t.nprocs (Engine.now t.eng);
    List.iter
      (fun (p, at) -> Engine.schedule_at t.eng at (fun () -> inject t p))
      t.plan;
    Engine.spawn ~name:"recovery-monitor" t.eng (fun () -> monitor t)
  end
