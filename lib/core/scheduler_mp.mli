(** The message-passing scheduler (§3.4.3): a centralized dynamic load
    balancer on the main processor, augmented with the locality heuristic.

    Each enabled task has a target processor — the owner (last writer) of
    its locality object. The scheduler assigns tasks until every processor
    holds [target_tasks] of them: an enabled task goes to one of the
    least-loaded processors, preferring its target; otherwise it waits in a
    pool. When a completion notification arrives, a pooled task is handed
    to the freed processor, preferring tasks targeted at it.

    This module is pure policy (pick a processor / pool); the scheduler
    process that charges main-processor occupancy and sends the messages
    lives in {!Runtime}. *)

type t

val create : Config.t -> nprocs:int -> t

(** [on_enabled t task] decides where an enabled task goes.
    [`Assign p] also increments [p]'s load. *)
val on_enabled : t -> Taskrec.t -> [ `Assign of int | `Pooled ]

(** [on_completed t ~proc] records that [proc] finished a task and returns
    the pooled tasks to hand it now (their loads are counted). *)
val on_completed : t -> proc:int -> Taskrec.t list

val load : t -> int -> int

val pooled : t -> int

(** Crash recovery: a marked-down processor is excluded from every
    placement decision (placed tasks and down targets are redirected to
    the least-loaded survivor) until {!mark_up}. *)
val mark_down : t -> int -> unit

val mark_up : t -> int -> unit

val is_down : t -> int -> bool
