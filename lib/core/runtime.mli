(** The Jade runtime: public API for writing Jade programs, plus the
    machinery that executes them on a simulated machine.

    A Jade program is a function [t -> unit] that allocates shared objects
    ({!create_object}) and decomposes its computation into tasks
    ({!withonly}). {!run} executes it on a simulated DASH or iPSC/860 with
    a given number of processors and optimization configuration, and
    returns the run's metrics.

    Task bodies access shared-object payloads through {!rd} / {!wr}, which
    check the access against the task's declaration and raise
    {!Access_violation} on undeclared accesses — the dynamic check the Jade
    implementation performs.

    A task's simulated cost comes from its access declaration and its
    declared [~work], never from what its body computes. The type of the
    body's {!env} says whether the body can influence the simulation at
    all: a {!withonly} body is a {e kernel} — it may only read and write
    its declared objects — so {!run} [~kernels:false] can skip it without
    changing a single metric; a {!withonly_staged} body may also charge
    work and release objects mid-body, and always runs. *)

type machine =
  | Dash of Jade_machines.Costs.shm
  | Ipsc of Jade_machines.Costs.mp
  | Lan of Jade_machines.Costs.mp
      (** heterogeneous workstations on a shared-medium LAN — the third
          platform the paper mentions; an extension beyond its measured
          machines *)

(** Convenience constructors with the default cost calibration. *)
val dash : machine

val ipsc860 : machine

val lan : machine

type t

(** Phantom tag of a {!withonly} body's context: {!rd} and {!wr}
    only. *)
type kernel

(** Phantom tag of a {!withonly_staged} body's context, which adds
    {!work} and {!release}. *)
type staged

(** Execution context passed to task bodies. *)
type 'k env

exception Access_violation of string

(** What the watchdog saw when the simulation's event heap drained with
    work still pending. *)
type deadlock_report = {
  dl_outstanding : int;  (** tasks created but never completed *)
  dl_live : int;  (** simulation processes that never terminated *)
  dl_blocked : (string * string) list;
      (** (process, what it is blocked on — an ivar or mailbox name), in
          blocking order *)
  dl_fetches : (int * int * int) list;
      (** per-processor (proc, in-flight fetches, retransmits) — which
          processors were still waiting on the network when the run hung *)
  dl_give_ups : int;
      (** chaos mode: retransmit loops (fetch requests and pushes) that
          hit the retry cap and gave up ([Metrics.fetch_give_ups]) — a
          fault plan that outlasts [max_retries] strands its tasks this
          way *)
}

(** Raised by {!run} on deadlock. A printer is registered, so an uncaught
    [Deadlock] prints each stuck process and the synchronization object it
    is blocked on. *)
exception Deadlock of deadlock_report

(** Raised by {!run} when a crash plan ({!Jade_net.Fault.spec} crash
    fields) killed a processor whose state cannot be recovered — the root
    processor died, or an object version was lost beyond reconstruction.
    The report names every lost object; the run never hangs and never
    returns a wrong answer. Same exception as
    {!Recovery.Unrecoverable}. *)
exception Unrecoverable of Recovery.failure

(** Human-readable rendering of a deadlock report (what the registered
    exception printer shows). *)
val deadlock_to_string : deadlock_report -> string

(** [run ?config ?trace ?kernels ~machine ~nprocs main] executes the
    Jade program [main]. Returns the metrics summary of the run. [trace],
    when given, collects per-task lifecycle events and IR nodes (see
    {!Tracing}). [kernels] (default [true]) runs every {!withonly} body;
    [~kernels:false] skips them (counted by {!kernels_skipped}) and leaves
    {!create_object_deferred} payloads unbuilt, for callers that read only
    the metrics: the summary is identical, but payloads hold whatever the
    staged bodies alone made of them. {!withonly_staged} bodies always
    run. Raises {!Deadlock} if the program hangs (some task can never be
    enabled, or — under an unreliable chaos configuration — a message
    needed to make progress was lost and never retransmitted). *)
val run :
  ?config:Config.t ->
  ?trace:Tracing.t ->
  ?kernels:bool ->
  machine:machine ->
  nprocs:int ->
  (t -> unit) ->
  Metrics.summary

(** Like {!run} but also exposes the raw metrics and the runtime to a
    post-run inspection function. *)
val run_with :
  ?config:Config.t ->
  ?trace:Tracing.t ->
  ?kernels:bool ->
  machine:machine ->
  nprocs:int ->
  (t -> unit) ->
  inspect:(t -> Metrics.t -> 'a) ->
  Metrics.summary * 'a

(** Kernel bodies the run skipped ([0] unless run with [~kernels:false]). *)
val kernels_skipped : t -> int

val nprocs : t -> int

val config : t -> Config.t

(** Virtual time inside a running program. *)
val now : t -> float

(** [create_object t ?home ~name ~size data] allocates a shared object of
    [size] bytes whose payload is [data]. [home] is the processor in whose
    memory it is allocated (default 0, the main processor). *)
val create_object :
  t -> ?home:int -> name:string -> size:int -> 'a -> 'a Shared.t

(** [create_object_deferred] is {!create_object} with the payload built by
    a thunk. When kernels are skipped the thunk is kept unevaluated until
    something reads the payload; otherwise it is forced immediately,
    making the two constructors observationally identical. Use it for
    initial data whose construction is expensive at scale. *)
val create_object_deferred :
  t -> ?home:int -> name:string -> size:int -> (unit -> 'a) -> 'a Shared.t

(** [withonly t ?placement ?wait ~name ~work ~accesses body] creates a
    task. [accesses] runs immediately to build the access specification
    (the first declared object is the locality object); [body] runs when
    the task executes. [work] is the task's computation in flops.
    [placement] pins the task to a processor (the paper's explicit task
    placement). [wait] blocks the caller until the task completes — used
    for serial phases.

    [body] is a kernel: it runs to completion without suspending and may
    not create tasks or objects — {!withonly}, {!create_object} and
    {!drain} raise [Invalid_argument] when called from it. *)
val withonly :
  t ->
  ?placement:int ->
  ?wait:bool ->
  name:string ->
  work:float ->
  accesses:(Spec.t -> unit) ->
  (kernel env -> unit) ->
  unit

(** {!withonly} for a body that uses {!work} or {!release}, or creates
    tasks or objects. Such a body shapes the simulation, so it runs even
    under [~kernels:false]. *)
val withonly_staged :
  t ->
  ?placement:int ->
  ?wait:bool ->
  name:string ->
  work:float ->
  accesses:(Spec.t -> unit) ->
  (staged env -> unit) ->
  unit

(** Checked payload access for task bodies. *)
val rd : _ env -> 'a Shared.t -> 'a

val wr : _ env -> 'a Shared.t -> 'a

(** [work env flops] charges part of the task's declared computation at
    the current point of the body, advancing virtual time. Anything not
    charged through [work] is charged when the body returns; use it
    together with {!release} to expose pipeline concurrency inside a
    task. *)
val work : staged env -> float -> unit

(** [release env obj] — Jade's advanced access-specification statements
    (§2): the running task declares it will no longer access [obj]. Its
    write (if any) commits immediately and successor tasks may start
    before this task completes. Subsequent {!rd}/{!wr} of [obj] in this
    task raise {!Access_violation}. *)
val release : staged env -> 'a Shared.t -> unit

(** Wait until every task created so far has completed (a join point for
    examples; the paper's programs synchronize through data instead). *)
val drain : t -> unit

(** Seconds of work processor [p] executed during the run (available from
    [run_with]'s inspect hook). *)
val node_busy : t -> int -> float
