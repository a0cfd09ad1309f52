(** Typed shared objects: a metadata record plus the single master copy of
    the payload. Conflicting tasks are serialized by the synchronizer, so
    one master copy is sound; replication on the message-passing machine is
    tracked as per-processor version metadata in {!Meta}. *)

type 'a t

val make : Meta.t -> 'a -> 'a t

(** Like {!make}, but the payload is built on first {!data} access.
    Callers must guarantee the first access happens on a single domain;
    [Runtime.create_object_deferred] forces at creation except in runs
    that skip kernel bodies, where only staged bodies can read the
    data. *)
val make_deferred : Meta.t -> (unit -> 'a) -> 'a t

val meta : 'a t -> Meta.t

(** Unchecked payload access, for serial code and for the runtime itself.
    Task bodies should go through [Runtime.rd] / [Runtime.wr], which check
    the task's access specification. *)
val data : 'a t -> 'a

val id : 'a t -> int

val name : 'a t -> string
