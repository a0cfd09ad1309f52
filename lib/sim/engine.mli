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
    instant ride a FIFO now lane of thunks. A later event is a closure
    parked in a slab of reusable slots, and a binary {!Heap} keyed by
    [(time, seq)] carries its slot; both grow by doubling. A slot is
    cleared the moment its event fires. *)
val create : unit -> t

(** Current virtual time in seconds. *)
val now : t -> float

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

(** [register_op t handler] adds [handler] to the engine's handler table
    and returns its index, counting from 0, for {!schedule_op_at}. Kept
    only because the benchmark probe ([perfbench/suite.ml]) calls it; no
    library module does. *)
val register_op : t -> (int -> unit) -> int

(** [schedule_op_at t ~op ~arg time] is
    [schedule_at t time (fun () -> handler arg)] for the handler
    registered as [op]. Raises [Invalid_argument] when [op] was not
    returned by {!register_op} on [t], and when [time] is infinite. Kept
    only for the benchmark probe, like {!register_op}. *)
val schedule_op_at : t -> op:int -> arg:int -> float -> unit

(** {2 Waits that decide nothing}

    Two exact event-elision primitives. Each is equivalent to a chain of
    {!schedule_after} events — the same virtual times, the same event
    order, the same {!events_processed} — but skips the far lane's heap
    round trip for the events that provably decide nothing. *)

(** [poll t p cond k] evaluates [cond] as its own counted event at
    [now + p], then [(now + p) + p], and so on, and calls [k] in the event
    of the first tick where [cond] holds: exactly the chain
    [let rec tick () = if cond () then k () else schedule_after t p tick
    in schedule_after t p tick]. A tick that finds [cond] false and
    whose successor is provably the next event (the now lane is empty
    and the successor's time is strictly below every pending event's)
    advances the clock, the event count and the sequence counter in
    place instead of going through the far lane. [cond] must not
    schedule events or perform effects. [p] must be non-negative (not
    NaN); otherwise raises [Invalid_argument]. *)
val poll : t -> float -> (unit -> bool) -> (unit -> unit) -> unit

(** A fixed-delay lane: timers that all wait the same delay, each
    carrying a payload of type ['a]. *)
type 'a lane

(** [lane t d ~live ~fire] makes an empty lane of delay [d]. [live x]
    says whether the timer carrying [x] still has anything to do; it
    must be monotone — once false for [x], false for [x] at every later
    time — and must not schedule events. [fire x] is the timer's action.
    [d] must be non-negative (not NaN); otherwise raises
    [Invalid_argument]. *)
val lane : t -> float -> live:('a -> bool) -> fire:('a -> unit) -> 'a lane

(** [arm l x] is
    [schedule_after t d (fun () -> if live x then fire x)]: the timer
    takes its time and its sequence number now. Only the lane's first
    pending timer occupies the far lane; when it fires, the timers
    behind it that are already dead are dropped, each counted as the
    event it would have been, and the next live one takes its place
    under the key it reserved. A dropped timer never moves the clock, so
    after {!run} drains, {!now} can be earlier than with the
    [schedule_after] chain. [now + d] must be finite; otherwise raises
    [Invalid_argument]. *)
val arm : 'a lane -> 'a -> unit

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
    BENCH_repro.json): peak far-lane (heap) population, which is also the
    slab's peak population, and the now lane's final ring capacity. *)

val far_lane_high_water : t -> int

val now_lane_capacity : t -> int

(** {2 Elision counters}

    Lifetime counts for {!poll} and {!arm}: poll ticks taken in place,
    lane timers that fired as events, and lane timers dropped as dead
    without an event of their own. Each is counted in
    {!events_processed}, never in addition to it. *)

val ticks_in_place : t -> int

val timers_fired : t -> int

val timers_dropped : t -> int
