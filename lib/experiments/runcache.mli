(** Persistent on-disk run cache for experiment results.

    A record is a result stored under a key string, which its user
    makes the result's full semantic identity. {!Runner}'s key is the
    MD5 of its size parameters followed by the result's marshalled id —
    for a simulation the application, machine, processor count,
    placement and the complete [Jade.Config] including the
    fault-injection spec (a chaos run and a clean run of the same cell
    are different computations with different summaries, so the fault
    spec must distinguish them). The value stored per key is the
    result: a [Jade.Metrics.summary] for a simulation, or a float for a
    flop count or custom cell. A warm invocation with the same cache
    directory therefore performs zero simulation.

    Results live in pack segments ([*.jrp]): one file per {!store}
    batch, holding a header with the schema version, the {!build_id} and
    the record count, then one self-verifying record per result (the MD5 of the
    record's body, then the body: the key, length-prefixed, and the
    marshalled value). A segment is written to a temp file and renamed
    into place, so concurrent regenerations sharing a directory never
    see a torn segment.

    The first {!find} reads the segments listed at {!create} once,
    record by record, into an in-memory index that every later lookup
    uses. A truncated record (cut mid-record or at a record boundary,
    which the count catches), a corrupted, a schema-stale, another
    build's ([other-build]) or an undecodable one (bytes some other writer left behind a valid MD5) is
    dropped with one named warning on stderr per segment and treated as
    a miss — the result is recomputed; {!find} never raises. A load that
    read more than one segment, or met damage, compacts: it writes every
    good record it read as one segment, then deletes the files it read —
    never a segment written since the listing. So after one cold and one
    warm regeneration, a warm regeneration is one directory listing and
    one file read.

    A [t] is not domain-safe: its user serializes {!find} and {!store}
    ({!Runner} does so under its lock, on the calling domain). *)

(** Bump on any change to the cached value types or to the on-disk
    format. A change to the simulation's numbers needs no bump: the
    {!build_id} in each segment's header covers every change to the
    code. A change in what the runner puts in its keys needs no bump
    either: records under the old keys
    are never looked up again, so an existing cache directory misses
    once and refills, while the records themselves stay valid. A change
    to the shape of [Jade.Config.t] is such a change: the config is
    marshalled into every simulation's key and never into a value.

    Version 7: crash-recovery summaries changed (a re-executed producer
    is always charged its declared work).

    Version 8: pack segments replace the one-file-per-result [*.jrc]
    entries of version 7, which {!clear} removes and nothing reads.

    Version 9: a record holds its key itself (length-prefixed) instead
    of the key's 32-character hex MD5, so a lookup hashes the key string
    and computes no digest.

    Version 10: the header carries the {!build_id}. *)
val schema_version : int

(** The identity of the code that computes the results: the MD5 of every
    library source ([lib/**/*.ml{,i}]), generated at build time. A
    segment's header carries the identity of the build that wrote it; a
    segment from another build is never decoded, but dropped whole with
    one [other-build] warning and compacted away, so a cache directory
    answers only for the code that filled it. *)
val build_id : string

type value =
  | Summary of Jade.Metrics.summary  (** result of a simulated work unit *)
  | Flops of float  (** a serial/total flop count *)

type t

(** Open (creating if needed) the cache rooted at [dir], listing the
    segments it holds now; the first {!find} reads them. The cache sees
    those segments plus what it {!store}s itself. *)
val create : dir:string -> t

val dir : t -> string

(** Look up a result by key. The first call loads (and, if needed,
    compacts) every segment; a damaged record misses with a warning.
    Never raises. *)
val find : t -> key:string -> value option

(** [store t records] persists [(key, value)] pairs as one segment,
    atomically, and adds them to the loaded index. An empty list writes
    nothing. A failed write prints one named warning with the path and
    the reason instead of raising: the results are merely not cached. *)
val store : t -> (string * value) list -> unit

type usage = {
  segments : int;  (** pack segments *)
  entries : int;  (** intact records across them *)
  bytes : int;  (** segment bytes *)
  legacy : int;  (** schema-7 [*.jrc] entry files, dead weight *)
}

(** What the directory holds, for [repro cache stats]. *)
val usage : t -> usage

(** [(entries, bytes)] of {!usage}: intact records and segment bytes. *)
val dir_stats : t -> int * int

(** Remove every file the cache leaves: segments, temp files of killed
    writers, legacy [*.jrc] entries and the last-run stats. Returns the
    number of segment, temp and legacy files removed. *)
val clear : t -> int

(** Record the lookup/hit counters of a finished run, for
    [repro cache stats]. A failed write warns instead of raising. *)
val write_last_run : t -> lookups:int -> hits:int -> unit

(** [(lookups, hits)] of the most recent recorded run, if any. *)
val read_last_run : t -> (int * int) option
