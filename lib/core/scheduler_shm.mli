(** The shared-memory scheduler (§3.2.1).

    At the [Locality] level there is one task queue per processor,
    structured as a queue of object task queues; each object task queue is
    owned by the processor that owns (allocated) the object. An enabled
    task goes into the object task queue of its locality object. A
    processor takes the first task of the first object task queue of its
    own queue; when that is empty it cyclically searches other processors'
    queues and steals the {e last} task of the {e last} object task queue.

    At [No_locality] there is a single FCFS queue. At [Task_placement],
    explicitly placed tasks go to fixed per-processor queues with no
    stealing; unplaced tasks fall back to the locality structure.

    The scheduler is pure data structure; the dispatchers and their idle
    search live in {!Backend_shm}. *)

type t

(** [cluster_size] (default 1) groups processors into clusters; an idle
    processor steals from victims in its own cluster before searching the
    rest of the machine — the DASH-tailored variant of the locality
    heuristic (§3.2, "several variants ... each tailored for the different
    memory hierarchies of different machines"). *)
val create : ?cluster_size:int -> Config.t -> nprocs:int -> t

(** Insert an enabled task (also sets [task.target]). *)
val enqueue : t -> Taskrec.t -> unit

(** [next t ~proc] takes the next task for [proc], stealing if the level
    allows it and [allow_steal] is true (default); [task.stolen] is set
    when the task came from another processor's queue. *)
val next : ?allow_steal:bool -> t -> proc:int -> Taskrec.t option

(** Number of steals performed so far. *)
val steals : t -> int

(** Tasks currently queued. *)
val queued : t -> int

(** Crash recovery: a marked-down processor receives no new queue entries
    (its home/placement traffic is redirected to the next live processor
    in its steal-search order) until {!mark_up}. *)
val mark_down : t -> int -> unit

val mark_up : t -> int -> unit

val is_down : t -> int -> bool

(** [fail_over t ~proc] moves everything still queued on [proc] (pinned
    tasks and whole object task queues) to live processors; returns the
    number of tasks moved. Call after {!mark_down}. *)
val fail_over : t -> proc:int -> int
