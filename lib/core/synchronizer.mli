(** The queue-based synchronizer (§3.1): determines when tasks can execute
    without violating the dynamic data dependence constraints.

    Each shared object carries a queue of access declarations in task
    creation (serial) order. A declaration is ready when no conflicting
    declaration precedes it in its queue; a task is enabled when all of its
    declarations are ready. Completing a task removes its declarations and
    commits the versions its writes produced.

    Conflicts are "any write", so each queue is kept as a deque of access
    epochs with member counts: a run of consecutive reads, or one exclusive
    access. A declaration is ready exactly when its epoch is the head, and
    only ready declarations retire, so adding or retiring one costs O(1);
    when the head epoch empties, the next epoch's tasks become ready in
    serial order, as a walk of the queue would find them.

    With [replication = false], read declarations are treated as exclusive,
    which serializes concurrent readers — the §5.1 experiment. *)

type t

(** [create ~replication ~on_enable ~on_write_commit] — [on_enable] fires
    when a task's declarations all become ready (possibly immediately
    inside {!add_task}); [on_write_commit] fires per written object when a
    task completes, after ownership/version bookkeeping. *)
val create :
  replication:bool ->
  on_enable:(Taskrec.t -> unit) ->
  on_write_commit:(Meta.t -> Taskrec.t -> unit) ->
  t

(** Append the task's declarations in serial order and compute the object
    versions it requires/produces. Raises [Invalid_argument] if the spec
    names the same object twice (use [Read_write] instead). *)
val add_task : t -> Taskrec.t -> unit

(** Remove the task's declarations, commit written versions (owner becomes
    [task.ran_on]), and enable any newly-ready tasks. Raises
    [Invalid_argument] unless the task is enabled, has run and has not
    completed yet. *)
val complete : t -> Taskrec.t -> unit

(** [release t task meta] — the advanced access-specification statements
    of §2: a {e running} task gives up its declared access to one object
    early, committing its write (if any) and enabling successors before
    the task completes. *)
val release : t -> Taskrec.t -> Meta.t -> unit

(** Declarations currently queued across all objects (0 when idle). *)
val outstanding : t -> int

(** Tasks enabled so far (monotonic). *)
val enabled_count : t -> int
