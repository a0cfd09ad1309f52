(** Task-graph intermediate representation.

    A {!t} is one traced execution of a Jade program lifted into a typed
    DAG: one {!node} per task (keyed by the deterministic creation id),
    carrying the task's declared access specification (with the object
    versions the synchronizer resolved at creation time), its declared
    work, any explicit placement, the processor it ran on, and the
    simulation-visible op stream a staged body produced when it ran
    ([Work] charges and mid-body [Release]s, in order; empty for a
    kernel). Edges are not stored — they are derived from the access
    version chains: task B depends on task A exactly when B requires a
    version A produces ({!Build.make}).

    The IR is deliberately dependency-free (ints, floats, strings): the
    runtime's tracer lifts completed tasks into it ([Jade.Tracing.graph])
    and [repro graph] dumps and summarizes it. It is write-only: there is
    no parser for a dump. *)

(** Access mode of one spec entry, mirroring [Jade.Access.mode]. *)
type mode = Rd | Wr | Rw

(** One simulation-visible effect of a staged task body, in execution
    order: a [Jade.Runtime.work] charge or a [Jade.Runtime.release]. *)
type op =
  | Work of float  (** a mid-body work charge, in flops *)
  | Release of int  (** a mid-body release of the given spec slot *)

(** One declared access: the shared object's identity and geometry plus
    the version chain position the synchronizer resolved when the task
    was created. [a_required] is the version this task must observe;
    [a_produces] is the version its write commits, or [-1] for a pure
    read. *)
type access = {
  a_obj : int;  (** shared-object id (creation order, 1-based) *)
  a_name : string;
  a_home : int;  (** allocation home processor *)
  a_size : int;  (** bytes *)
  a_mode : mode;
  a_required : int;
  a_produces : int;
}

(** One task. [n_placement] is the explicit placement the program
    declared. [n_ran_on] is observed data-access information: the
    processor the traced run actually executed the task on ([-1] if
    unknown) — on message-passing machines every object is allocated at
    processor 0, so the static homes say nothing about how work spreads,
    and the traced schedule does. *)
type node = {
  n_id : int;  (** deterministic task id (creation order, 1-based) *)
  n_name : string;
  n_work : float;  (** declared work, in flops *)
  n_placement : int option;
  n_ran_on : int;
  n_accesses : access array;  (** declaration order; entry 0 is the locality object *)
  n_ops : op array;
}

(** A built graph: nodes in ascending id order plus the derived
    data-flow edges, by node {e position} (index into [nodes]). *)
type t = {
  nodes : node array;
  index : (int, int) Hashtbl.t;  (** id -> position *)
  preds : int list array;  (** position -> producer positions, ascending *)
  succs : int list array;  (** position -> consumer positions, ascending *)
}

val node_count : t -> int

val edge_count : t -> int

(** Distinct shared objects accessed anywhere in the graph. *)
val object_count : t -> int

(** The flops task [n] actually charged: the sum of its [Work] ops when
    the stream is non-empty, its declared [n_work] otherwise. *)
val node_work : node -> float

(** Total {!node_work} over the graph. *)
val total_work : t -> float

(** Textual serialization of the node array, line-oriented and
    version-headed ([Work] flops are hex floats, exact to the bit). The IR
    is write-only: nothing reads a dump back. *)
val encode : t -> string
