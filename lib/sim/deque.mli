(** Double-ended queues, used for the paper's task-queue structures (the
    shared-memory scheduler pops from the front of its own queue and steals
    from the back of other processors' queues).

    Backed by a growable ring buffer: pushes and the [_exn]/[first]/[last]
    accessors are allocation-free, which is what keeps the scheduler's
    idle-poll and steal-search loops off the minor heap. The option-typed
    {!pop_front} remains for cold callers. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push_back : 'a t -> 'a -> unit

(** [first]/[last] return the front/back element without removing it;
    [pop_front_exn]/[pop_back_exn] remove and return it. All four raise
    [Invalid_argument] on an empty deque and allocate nothing — hot loops
    pair them with {!is_empty}. *)

val first : 'a t -> 'a

val last : 'a t -> 'a

val pop_front_exn : 'a t -> 'a

val pop_back_exn : 'a t -> 'a

val pop_front : 'a t -> 'a option

val to_list : 'a t -> 'a list
