(** Binary min-heap of [int] payloads keyed by [(time, seq)]: the far lane
    of the discrete-event engine, whose payloads are the slots of the
    slab where it parks each timed event's closure.
    Ties on [time] are broken by [seq], so the pop order is the exact
    total order on [(time, seq)] and simulations are deterministic.

    Keys and payloads live in unboxed parallel arrays that grow by
    doubling, so {!push} and {!pop_min_value} allocate nothing once the
    arrays have reached the peak population. *)

type t

(** [create ()] makes an empty heap. *)
val create : unit -> t

val length : t -> int

val is_empty : t -> bool

(** [push t ~time ~seq v] inserts [v] with priority [(time, seq)]. *)
val push : t -> time:float -> seq:int -> int -> unit

(** Key of the minimum element, without removing it. Raise [Not_found]
    when empty. *)
val min_time : t -> float

val min_seq : t -> int

(** [pop_min_value t] removes the minimum element and returns only its
    payload (key available beforehand via {!min_time} / {!min_seq}).
    Raises [Not_found] when empty. *)
val pop_min_value : t -> int
