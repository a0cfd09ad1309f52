(** Per-processor busy-time ledger.

    Each simulated processor executes work non-preemptively. Foreground
    activities (task execution, scheduling) call {!occupy} from a simulation
    process and are serialized in arrival order. Interrupt-style activities
    (message handlers that send replies) call {!charge}, which extends the
    processor's busy horizon without blocking the caller — modelling the
    iPSC/860 pattern in which an interrupt handler runs immediately and the
    interrupted task simply finishes later. *)

type t

val create : Jade_sim.Engine.t -> int -> t

val id : t -> int

(** [occupy t dur] blocks the calling process until the processor has first
    worked off everything already queued and then [dur] seconds of this
    activity. *)
val occupy : t -> float -> unit

(** [charge t cost] runs [cost] seconds of interrupt work and returns the
    virtual time at which it completes (without blocking the caller).
    Interrupt work preempts the current foreground activity: it serializes
    only with other interrupt work, while future foreground work on the
    node is pushed back by [cost]. *)
val charge : t -> float -> float

(** Virtual time at which the processor becomes free. *)
val avail : t -> float

(** Total seconds of work executed (foreground + interrupt). *)
val busy_time : t -> float
