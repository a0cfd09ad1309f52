(** Deterministic fault injection for the message fabric.

    A {!spec} is a seeded *fault plan*: per-message drop / duplicate /
    extra-delay decisions, all pure functions of [(seed, message index)].
    Two runs that present the same message sequence to the same plan see
    exactly the same faults, so chaos runs are as reproducible as clean
    ones.

    Faults apply to interrupt-context traffic ({!Fabric.post} — object
    requests, replies, eager pushes) and to broadcasts. Process-context
    {!Fabric.send} (task assignment and completion, the runtime's control
    channel) and node-local deliveries are never faulted.

    A {!t} wraps a spec with the run's mutable message index and
    drop/duplicate accounting. *)

type spec = {
  seed : int;  (** root of every pseudo-random fault decision *)
  drop_rate : float;  (** probability a message is lost, in [0,1] *)
  dup_rate : float;  (** probability a surviving message is duplicated *)
  jitter : float;  (** max extra delivery latency, seconds *)
  retry_timeout : float;
      (** virtual seconds before the communicator retransmits an unanswered
          request (doubled per retry) *)
  max_retries : int;  (** retransmit cap before giving up *)
  drop_tagged : (Tag.t * int) list;
      (** scripted drops: [(tag, n)] unconditionally drops the [n]-th
          (0-based) faultable message carrying [tag] — for deterministic
          lost-message tests *)
  crash_seed : int;  (** root of the rate-mode crash draws *)
  crash_rate : float;
      (** per-processor probability of a crash-stop failure, in [0,1];
          rate mode never crashes processor 0 *)
  crash_horizon : float;
      (** virtual-time window (seconds) over which rate-mode crash times
          are drawn *)
  crash_at : (int * float) list;
      (** scripted crashes: [(proc, virtual_time)]; entries naming a
          processor outside the run's range are dropped with a one-line
          stderr warning (once per processor count), so one scripted plan
          works across processor counts without a typo passing as a clean
          run *)
  crash_restart : float;
      (** when positive, a crashed processor rejoins with an empty queue
          this many virtual seconds after its crash or once it has been
          recovered, whichever is later *)
}

val spec :
  ?seed:int ->
  ?drop_rate:float ->
  ?dup_rate:float ->
  ?jitter:float ->
  ?retry_timeout:float ->
  ?max_retries:int ->
  ?drop_tagged:(Tag.t * int) list ->
  ?crash_seed:int ->
  ?crash_rate:float ->
  ?crash_horizon:float ->
  ?crash_at:(int * float) list ->
  ?crash_restart:float ->
  unit ->
  spec
(** Zero rates, [retry_timeout = 0.05], [max_retries = 10] and
    [crash_horizon = 0.01], with overrides; validates the rates. *)

val active : spec -> bool
(** True when the plan can actually perturb delivery (some rate positive or
    a scripted drop present). An inactive plan is guaranteed to leave the
    simulation trajectory bit-for-bit identical to running with no plan at
    all. Crash fields are separate: see {!crash_active}. *)

val crash_active : spec -> bool
(** True when the plan can crash a processor (positive [crash_rate] or a
    scripted [crash_at] entry). A crash-inactive plan spawns no recovery
    machinery and leaves the trajectory bit-identical to no plan. *)

val crash_plan : spec -> nprocs:int -> (int * float) list
(** The pure crash schedule for an [nprocs]-processor run:
    [(proc, virtual_time)] sorted by time then processor, at most one entry
    per processor (earliest wins). Scripted entries outside [0, nprocs) are
    dropped, each with a one-line stderr warning naming the entry, printed
    once per process for each (entry, [nprocs]); rate
    mode draws one seeded decision per non-root processor.
    Empty when not {!crash_active}. *)

val reliable : spec -> bool
(** True when the communicator should run its ack/retransmit machinery:
    the plan is {!active} or {!crash_active} and retries are enabled.
    (Crash plans need retransmits so fetches re-aim at an object's current
    owner after ownership transfer.) *)

val pp_spec : Format.formatter -> spec -> unit

type decision = {
  drop : bool;
  duplicate : bool;
  delay : float;  (** extra delivery latency, seconds *)
  dup_delay : float;  (** extra latency of the duplicate copy *)
}

val pass : decision
(** The no-fault decision (deliver once, on time). *)

val decision_at : spec -> index:int -> decision
(** The pure per-message decision for global message [index]. Ignores
    [drop_tagged] (which needs per-tag counting; see {!next_decision}). *)

type t

val create : spec -> t

val next_decision : t -> tag:Tag.t -> decision
(** Consume the next message index and return its decision, applying
    scripted [drop_tagged] entries and updating the drop/duplicate
    counters. *)

val messages_seen : t -> int

val dropped : t -> int

val duplicated : t -> int

val dropped_with_tag : t -> Tag.t -> int
