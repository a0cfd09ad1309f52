(** Shared-object metadata. One value per shared object, tracking ownership,
    versions and per-processor copies — the state the message-passing
    communicator and the adaptive-broadcast detector operate on.

    Versions count committed writers: version 0 is the initial contents
    (produced by allocation on the home processor), and each completing
    writer task bumps the committed version by one. *)

type t = {
  id : int;
  name : string;
  size : int;  (** bytes *)
  home : int;  (** allocation home: DASH memory module / initial MP owner *)
  nprocs : int;
  mutable owner : int;  (** last processor to write the object *)
  mutable committed : int;  (** latest committed version *)
  mutable writers_created : int;
      (** versions already promised to created (not necessarily completed)
          writer tasks; used to compute required versions in serial order *)
  copies : int array;  (** per-processor held version; -1 = no copy *)
  accessed : Bytes.t;
      (** processors that accessed the current version, one byte each
          (['\001'] = accessed): a snapshot is a memmove, not a write
          barrier per processor *)
  prev_accessed : Bytes.t;
      (** snapshot of [accessed] for the previous version — the likely
          consumers an eager update protocol sends new versions to *)
  mutable accessed_count : int;
  mutable broadcast_mode : bool;
}

let create ~id ~name ~size ~home ~nprocs =
  if home < 0 || home >= nprocs then invalid_arg "Meta.create: bad home";
  if size <= 0 then invalid_arg "Meta.create: size must be positive";
  let copies = Array.make nprocs (-1) in
  copies.(home) <- 0;
  let accessed = Bytes.make nprocs '\000' in
  Bytes.set accessed home '\001';
  let prev_accessed = Bytes.make nprocs '\000' in
  {
    id;
    name;
    size;
    home;
    nprocs;
    owner = home;
    committed = 0;
    writers_created = 0;
    copies;
    accessed;
    prev_accessed;
    accessed_count = 1;
    broadcast_mode = false;
  }

(** Record that processor [p] accessed the current version; returns [true]
    if this access completes the set (all processors have now accessed the
    same version), the adaptive-broadcast trigger. *)
let note_access t p =
  if Bytes.get t.accessed p = '\000' then begin
    Bytes.set t.accessed p '\001';
    t.accessed_count <- t.accessed_count + 1
  end;
  t.accessed_count = t.nprocs

(** A writer on processor [p] committed [version]: ownership moves, the
    accessed set resets to the writer. *)
let commit_write t ~proc ~version =
  if version <= t.committed then invalid_arg "Meta.commit_write: stale version";
  t.committed <- version;
  t.owner <- proc;
  t.copies.(proc) <- version;
  Bytes.blit t.accessed 0 t.prev_accessed 0 t.nprocs;
  Bytes.fill t.accessed 0 t.nprocs '\000';
  Bytes.set t.accessed proc '\001';
  t.accessed_count <- 1

let holds_version t ~proc ~version = t.copies.(proc) >= version

let install_copy t ~proc ~version =
  if t.copies.(proc) < version then t.copies.(proc) <- version

(** [slot tbl t make] is [t]'s entry in the table [tbl] indexed by object
    id (dense from 1 within a run), made by [make] on first use. *)
let slot tbl t make =
  if t.id >= Array.length !tbl then
    tbl := Array.append !tbl (Array.make (t.id + 1) None);
  match !tbl.(t.id) with
  | Some x -> x
  | None ->
      let x = make () in
      !tbl.(t.id) <- Some x;
      x
