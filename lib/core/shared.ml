(** Typed shared objects: a metadata record plus the single master copy of
    the payload. Conflicting tasks are serialized by the synchronizer, so
    one master copy is sound; replication on the message-passing machine is
    tracked as per-processor version metadata in {!Meta}. *)

(* The payload may be deferred: runs that skip kernel bodies never read
   the data unless a staged body does, and materializing the initial
   arrays (which at bench scale is a measurable slice of every run) can
   be skipped. Forcing happens at most once and always from the single
   domain that owns the run: runs that execute kernels force at creation
   time (see [Runtime.create_object_deferred]); in runs that skip them
   only a staged body, on the run's domain, or a late result getter, on
   the caller's domain after the run, can force. *)
type 'a payload = Forced of 'a | Deferred of (unit -> 'a)

type 'a t = { meta : Meta.t; mutable payload : 'a payload }

let meta t = t.meta

(** Unchecked payload access, for serial code and for the runtime itself.
    Task bodies should go through [Runtime.rd] / [Runtime.wr], which check
    the task's access specification. *)
let data t =
  match t.payload with
  | Forced v -> v
  | Deferred f ->
      let v = f () in
      t.payload <- Forced v;
      v

let make meta data = { meta; payload = Forced data }

let make_deferred meta thunk = { meta; payload = Deferred thunk }

let id t = t.meta.Meta.id

let name t = t.meta.Meta.name
