(** Deterministic discrete-event simulation engine.

    Simulated activities are written as ordinary OCaml functions that perform
    the engine's effects ({!delay}, {!await}); the engine multiplexes them over
    a virtual clock using OCaml 5 effect handlers. Events scheduled for the
    same instant fire in scheduling order, so runs are fully deterministic.

    Typical use:
    {[
      let eng = Engine.create () in
      Engine.spawn eng (fun () ->
        Engine.delay eng 2.0;
        Printf.printf "t=%f\n" (Engine.now eng));
      Engine.run eng
    ]} *)

type t

(** [create ()] makes an engine at virtual time 0. Events at the current
    instant ride a FIFO now lane; later ones ride a binary {!Heap} keyed
    by [(time, seq)], which grows by doubling. *)
val create : unit -> t

(** Current virtual time in seconds. *)
val now : t -> float

(** {2 Flat event descriptors}

    The far lane stores events as immediate int words — a 6-bit opcode
    plus an operand — instead of closures. Handlers are registered once
    at construction; scheduling a flat event then allocates nothing and
    committing it chases no environment. Closure-based scheduling
    ({!schedule_after}, {!schedule_at}, and every {!delay} resume) parks
    the closure in an internal escape slab and the word carries its slot,
    cleared when the event fires. *)

(** [register_op t handler] claims the next opcode and installs
    [handler] for it, returning the opcode for use with
    {!schedule_op_at}. The table holds 63 client opcodes (opcode 0 is the
    internal escape hatch); registration happens at construction time,
    never on the hot path. Raises [Invalid_argument] when the table is
    full. *)
val register_op : t -> (int -> unit) -> int

(** [schedule_op_at t ~op ~arg time] runs the handler registered for
    [op] with operand [arg] at absolute virtual time [time] ([now] if
    [time] is in the past) — {!schedule_at} without the closure: the
    event rides the far lane as one packed int word. [arg] must fit in
    57 bits (an index or a processor number; anything larger belongs in
    a registry the handler indexes into). Allocation-free when [time] is
    later than [now] (an event due now rides the now lane as a thunk);
    this is the fabric's message-delivery path. An infinite [time]
    raises [Invalid_argument]. *)
val schedule_op_at : t -> op:int -> arg:int -> float -> unit

(** [schedule_after t d f] runs plain callback [f] at [now + d], where
    [delay t d] would resume. [f] must not perform engine effects; use
    {!spawn} for that. [d] must be non-negative (not NaN), and [now + d]
    finite; otherwise raises [Invalid_argument]. *)
val schedule_after : t -> float -> (unit -> unit) -> unit

(** [count_events t n] counts [n] more processed events: activations one
    callback carried that would otherwise each have been an event. *)
val count_events : t -> int -> unit

(** [schedule_at t time f] runs plain callback [f] at absolute virtual
    time [time] ([now] if [time] is in the past). Equivalent to
    [schedule_after t (time -. now)] — including its float arithmetic —
    but with the clamp and the delay computation done inside the engine,
    so callers holding a target instant (e.g. the network fabric's
    delivery times) need no arithmetic of their own. An infinite [time]
    raises [Invalid_argument]. *)
val schedule_at : t -> float -> (unit -> unit) -> unit

(** [schedule_now t f] is [schedule_after t 0. f]: [f] fires at the current
    virtual time, after everything already scheduled for it. Zero-delay
    events live in a FIFO "now lane" of thunks rather than the
    time-ordered heap, so this is the engine's cheapest scheduling path —
    it is the one wakeups (ivar fills, mailbox sends) ride. *)
val schedule_now : t -> (unit -> unit) -> unit

(** [spawn ?name t f] starts [f] as a simulation process at the current
    time. [f] may perform {!delay} / {!await}. [name] identifies the
    process in deadlock reports ({!blocked_report}); unnamed processes
    get ["process-<n>"] in spawn order. *)
val spawn : ?name:string -> t -> (unit -> unit) -> unit

(** [delay t d] suspends the calling process for [d] seconds of virtual
    time. Must be called from within a process. [d] must be non-negative
    (not NaN), and [now + d] finite; otherwise raises [Invalid_argument]. *)
val delay : t -> float -> unit

(** [await ?on t register] suspends the calling process; [register]
    receives a resume function that must eventually be called exactly once
    with the result. The resumption runs at the virtual time at which the
    resume function is invoked. Calling a resume function a second time
    raises [Effect.Continuation_already_resumed], also when the process
    has since suspended again: each resume belongs to one suspension and
    never reaches a later one. When [on] is given, the wait is recorded in
    the blocked-waiter registry under the calling process's name until it
    resumes, so a drained heap can report exactly who is stuck on what.
    [on] is a thunk rendering what is being waited for; it is forced only
    if a report is actually taken, so callers can pass a preallocated
    closure and pay no string building on the wait path. *)
val await : ?on:(unit -> string) -> t -> (('a -> unit) -> unit) -> 'a

(** A prebuilt suspension point: {!waiter} packages the registration (and
    optional blocked-report label) once, and {!wait} performs it without
    building an effect value per call. Suspensions taken many times over
    a run (ivar reads, mailbox receives) build their waiter at
    construction and call [wait eng w] on the hot path; [wait t w] is
    semantically [await ?on t register] for the pair [w] was built
    from. *)
type 'a waiter

val waiter : ?on:(unit -> string) -> (('a -> unit) -> unit) -> 'a waiter

val wait : t -> 'a waiter -> 'a

(** Currently registered blocked waiters as [(process, waiting-on)] pairs,
    in the order the waits began. Only waits that passed [?on] to {!await}
    (or {!waiter}) appear (ivar reads, mailbox receives — not plain
    delays, which always fire). *)
val blocked_report : t -> (string * string) list

(** Run until the event queue drains. Returns the number of events
    processed during this call. *)
val run : t -> int

(** Number of processes spawned that have not yet terminated. After
    {!run} returns, a nonzero value indicates blocked (deadlocked)
    processes. *)
val live_processes : t -> int

(** Total events processed since creation. *)
val events_processed : t -> int

(** {2 Occupancy counters}

    Lifetime high-water marks for observability ([repro --stats],
    BENCH_repro.json): peak far-lane (heap) population, the now lane's
    final ring capacity, and the escape slab's peak population of parked
    closures. *)

val far_lane_high_water : t -> int

val now_lane_capacity : t -> int

val escape_high_water : t -> int
