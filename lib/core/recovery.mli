(** Crash-stop processor failures and access-information-driven recovery.

    A supervisor process injects the pure crash plan from
    {!Jade_net.Fault.crash_plan}, detects each failure by
    heartbeat/suspicion (or watchdog on shared memory), and repairs the
    run using the runtime's data access information: the victim's
    unfinished tasks are re-enqueued through the scheduler, its object
    replicas invalidated, and objects it owned re-homed to survivors —
    reconstructed by deterministic re-execution of the producing task when
    no valid copy survives. Failure semantics are crash-stop at a task
    boundary; see the implementation header for the full model.

    Everything is gated on {!Jade_net.Fault.crash_active}: with a
    crash-inactive plan nothing is spawned and the trajectory is
    bit-identical to running without a plan. *)

(** Backend-provided recovery actions; the supervisor is backend-agnostic. *)
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

type failure = {
  ur_proc : int;  (** the crashed processor that made the run unrecoverable *)
  ur_lost : (string * int) list;  (** lost objects as (name, version) *)
  ur_fetches : (int * int * int) list;
      (** per-processor (proc, in-flight fetches, retransmits) *)
}

exception Unrecoverable of failure
(** Raised (by the runtime, after the event drain) when a crash lost
    object versions beyond reconstruction, or the root processor died.
    Never a hang, never a wrong answer. *)

val failure_to_string : failure -> string

type t

val create :
  spec:Jade_net.Fault.spec ->
  nprocs:int ->
  period:float ->
  timeout:float ->
  flop_rate:float ->
  copy_cost:(int -> float) ->
  actions:actions ->
  objects:(unit -> Meta.t list) ->
  should_stop:(unit -> bool) ->
  Jade_sim.Engine.t ->
  Metrics.t ->
  t
(** [period]/[timeout] are the heartbeat interval and suspicion threshold,
    tuned by the caller from the machine's latency floors. [flop_rate] and
    [copy_cost] price re-execution and replica reconstruction in virtual
    time: a re-executed producer is charged its declared work. [objects]
    is the shared-object registry (every {!Meta.t} the run created, in
    creation order); the supervisor polls [should_stop] to exit once the
    run has finished. *)

val doomed : t -> int -> bool
(** A crash felled this non-root processor and it has not restarted:
    its dispatcher halts at its next task boundary. *)

val start : t -> unit
(** Arm the plan: schedule every injection and spawn the supervisor
    process. Does nothing (zero events) when the plan is empty. *)

val note_commit : t -> Meta.t -> Taskrec.t -> unit
(** Producer log: [task]'s write just committed [meta]'s current version. *)

val note_stopped : t -> int -> unit
(** The victim's dispatcher reached its halt boundary. *)

val note_pong : t -> int -> unit
(** A heartbeat reply arrived from the given processor. *)

val fatal : t -> failure option
(** The pending unrecoverable failure, if any; the runtime raises
    {!Unrecoverable} from it after the event drain. *)
