(** Task-lifecycle tracing: keeps each completed task's record during a
    run and exports the schedule in the Chrome trace-event format (load
    the file at chrome://tracing or in Perfetto to see it on a timeline,
    one lane per simulated processor). The same records lift into the
    task-graph IR when {!graph} is called, so one traced run yields both
    the schedule and the DAG. *)

(** One object transfer between processors (demand fetch reply, adaptive
    broadcast copy, or eager update push), recorded by the communicator
    when a message-passing backend runs with tracing on. *)
type flow_kind = Fetch | Broadcast | Eager_update

type flow = {
  flow_kind : flow_kind;
  obj : string;  (** shared-object name *)
  src : int;  (** sending processor *)
  dst : int;  (** receiving processor *)
  sent_at : float;
  arrived_at : float;
}

type t

val create : unit -> t

(** Keep one completed task's record (called by the runtime when tracing
    is on). A task executes once and nothing writes its record after it
    completes. *)
val record : t -> Taskrec.t -> unit

(** Record one object transfer (called by the communicator on arrival). *)
val record_flow :
  t ->
  kind:flow_kind ->
  obj:string ->
  src:int ->
  dst:int ->
  sent_at:float ->
  arrived_at:float ->
  unit

val count : t -> int

(** The recorded tasks lifted, on each call, into a task DAG
    ({!Jade_graph.Build.make}): one node per completed task, carrying its
    declared accesses with their resolved version chains, declared work
    and placement, the processor it ran on and a staged body's op stream.
    Raises [Invalid_argument] if the nodes violate the version-chain
    invariants, which the tasks of a completed run never do. *)
val graph : t -> Jade_graph.Ir.t

val flows : t -> flow list
(** In arrival order. *)

val flow_count : t -> int

(** Chrome trace-event JSON: "X" complete events, one per task, with
    microsecond timestamps (pid 0, processor = tid lane), plus — when a
    message-passing backend recorded object transfers — "comm" slices and
    "s"/"f" flow pairs on pid 1, so Perfetto draws object movement as
    arrows between processor lanes. *)
val to_chrome_json : t -> string

val write_chrome_json : t -> string -> unit
