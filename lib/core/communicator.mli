(** The message-passing communicator (§3.3–3.4): implements the single
    address space in software. Before a processor executes a task, the
    communicator ensures its memory holds the required version of every
    declared object, fetching remote objects with request/reply message
    pairs. It implements replication (copies are installed per processor),
    concurrent fetches, and the adaptive broadcast algorithm. *)

type t

(** [trace], when given, receives a {!Tracing.flow} record for every
    object transfer that arrives (fetch replies, broadcast copies, eager
    pushes) — the data behind the Chrome-trace communication lanes.
    Every message the communicator sends is an immutable {!Protocol.t};
    under the reliable protocol the owner keeps each pushed body to
    re-post it until the receiver acknowledges it. The engine is the
    trailing positional argument so the optional [?trace] is erased at
    every total application. *)
val create :
  ?trace:Tracing.t ->
  cfg:Config.t ->
  costs:Jade_machines.Costs.mp ->
  nodes:Jade_machines.Mnode.t array ->
  fabric:Protocol.t Jade_net.Fabric.t ->
  metrics:Metrics.t ->
  Jade_sim.Engine.t ->
  t

(** Handle a [Request], [Obj], [Bcast], [Eager] or [Ack] message
    (interrupt context). Raises [Invalid_argument] on any other kind, which
    the backend routes itself. Handling is idempotent:
    duplicated replies and pushes never double-fill a fetch ivar or regress
    an installed copy version, and surplus acks are no-ops — the invariants
    the reliable-delivery protocol (chaos mode, {!Jade_net.Fault}) leans
    on. *)
val handle : t -> Protocol.t Jade_net.Fabric.msg -> unit

(** Issue requests for all of the task's remote objects (interrupt
    context, called when an assignment arrives). Only acts when the
    concurrent-fetch optimization is on. *)
val prefetch : t -> Taskrec.t -> proc:int -> unit

(** Block the calling process until all objects the task declared are held
    locally at the required versions. With concurrent fetch off, objects
    are requested and awaited one at a time. Records per-task fetch-window
    latency. *)
val ensure_local : t -> Taskrec.t -> proc:int -> unit

(** Check the protocol invariant: [proc] holds the required version of
    every object the task declared. Raises [Failure] on violation. *)
val assert_coherent : t -> Taskrec.t -> proc:int -> unit

(** Record that the task's accesses happened on [proc] (feeds the
    adaptive-broadcast detector). *)
val note_accesses : t -> Taskrec.t -> proc:int -> unit

(** A writer committed a new version: if the object is in broadcast mode,
    broadcast the new version to all processors. *)
val on_write_commit : t -> Meta.t -> Taskrec.t -> unit

(** Per-processor [(proc, in-flight fetches, retransmits)], one entry per
    processor — the diagnostic payload of deadlock and unrecoverable
    reports. *)
val stats : t -> (int * int * int) list
