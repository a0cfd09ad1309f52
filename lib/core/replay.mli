(** Cross-configuration task record/replay over the task-graph IR.

    For a fixed (application, problem size, nprocs, placement) the Jade
    programs in this reproduction create the same task graph and perform
    the same numeric work whatever the simulated machine or optimization
    configuration — only scheduling and communication differ. A {!store}
    exploits that: the first run of such a group executes task bodies for
    real and records, per deterministic task id, a full
    {!Jade_graph.Ir.node} — the task's declared accesses with their
    resolved version chains, its declared work and placement, and every
    simulation-visible effect the body produced (mid-body [Runtime.work]
    charges and [Runtime.release] commits, in order). Subsequent runs in
    the group replay the recorded effects instead of re-executing the
    float kernels, which is byte-identical because a task body's only
    influence on the simulation is exactly that op stream — payload
    mutations feed later bodies (also replayed) and the result closures
    (unused by the experiment harness), never the metrics.

    Because the store holds whole IR nodes, a sealed store lifts into a
    typed task DAG ({!graph}), which [repro graph] dumps and summarizes.

    A body that creates tasks or shared objects mid-execution cannot be
    replayed this way; recording detects this, warns once on stderr
    naming the offending task, and poisons the whole store, after which
    replay runs fall back to executing every body for real.

    Lifecycle: {!create_store}, one {!recorder} run, {!seal}, then any
    number of concurrent {!replayer} runs (a sealed store is read-only, so
    replayers may run on separate domains). *)

(** One simulation-visible effect of a task body, in execution order.
    An alias of {!Jade_graph.Ir.op}. *)
type op = Jade_graph.Ir.op =
  | Work of float  (** a [Runtime.work] charge, in flops *)
  | Release of int  (** a [Runtime.release] of the given spec slot *)

type store

(** [create_store ?label ()] — [label] names the run group in the
    poisoning warning (default: anonymous). *)
val create_store : ?label:string -> unit -> store

(** Recording finished: freeze the store. Replayers may only be created
    from a sealed store. *)
val seal : store -> unit

val sealed : store -> bool

(** Mark the store unusable (some task proved non-replayable). Replayers
    of a poisoned store execute every body for real. *)
val poison : store -> unit

val poisoned : store -> bool

(** Recorded task nodes in the store. *)
val trace_count : store -> int

(** The recorded execution lifted into a task DAG. [None] when the store
    is poisoned. Built on first use and cached; raises
    [Invalid_argument] if the recorded nodes violate the version-chain
    invariants ({!Jade_graph.Build.make}), which a completed recording
    run never does. Not thread-safe with itself. *)
val graph : store -> Jade_graph.Ir.t option

type mode = Record | Replay

(** A per-run handle over a store. *)
type t

(** A handle that records into [store]. Raises [Invalid_argument] if the
    store is sealed. *)
val recorder : store -> t

(** A handle that replays from [store]. Raises [Invalid_argument] if the
    store is not sealed. *)
val replayer : store -> t

val mode : t -> mode

val store_of : t -> store

(** [trace h ~tid] is the recorded op stream for task [tid], or [None]
    when the handle records, the store is poisoned, or the task has no
    trace (replay then falls back to executing the body). *)
val trace : t -> tid:int -> op array option

(** Record-mode: open the recording buffer for task [tid]. *)
val task_begin : t -> tid:int -> unit

(** Append an op to task [tid]'s open buffer (no-op when the handle does
    not record or the buffer is not open). *)
val record : t -> tid:int -> op -> unit

(** Record-mode: close [task]'s buffer and store its IR node, stamping
    [ran_on] — the processor that just executed the body — into the node
    as observed scheduling information ({!Jade_graph.Ir.node}'s
    [n_ran_on]). [ok:false] (the body created tasks or objects) warns
    once on stderr and poisons the store. *)
val task_end : t -> task:Taskrec.t -> ran_on:int -> ok:bool -> unit

(** Count one task whose body was replayed from the store. *)
val note_replayed : t -> unit

(** Tasks replayed through this handle. *)
val replayed : t -> int

(** Tasks recorded through this handle. *)
val recorded : t -> int
