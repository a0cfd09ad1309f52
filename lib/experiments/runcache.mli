(** Persistent on-disk run cache for experiment results.

    Each {!Runner} result is content-addressed by {!digest_key} over its
    full semantic identity: the runner's size parameters and the
    result's marshalled id — for a simulation the application, machine,
    processor count, placement and the complete [Jade.Config] including
    the fault-injection spec (a chaos run and a clean run of the same
    cell are different computations with different summaries, so the
    fault spec must distinguish them). The value stored per digest is
    the result: a [Jade.Metrics.summary] for a simulation, or a float for
    a flop count or custom cell. A warm invocation with the same cache
    directory therefore performs zero simulation.

    Entries are self-verifying: a version header plus an MD5 digest of
    the payload bytes. A truncated, corrupted or schema-stale entry, or
    one whose payload is not exactly one marshalled {!value} of the
    right shape (bytes some other writer left behind a valid header and
    digest), is removed with a named warning on stderr and treated as a
    miss — the result is recomputed; {!find} never raises. Bumping
    {!schema_version} (required whenever [Jade.Metrics.summary] or the
    simulation's numeric behaviour changes) invalidates every existing
    entry the same way. Writes are atomic
    (temp file + rename), so concurrent regenerations sharing a
    directory cannot observe torn entries. *)

(** Bump on any change to the cached value types or to the simulation's
    observable numbers. A change in what the runner digests needs no
    bump: entries under the old digests are never looked up again, so an
    existing cache directory misses once and refills, while the entry
    contents themselves stay valid. A change to the shape of
    [Jade.Config.t] is such a change: the config is marshalled into every
    simulation's digest and never into an entry. So removing its
    graph-pass selection field left the schema at 6.

    Version 7: crash-recovery summaries changed. A re-executed producer
    is now always charged its declared work; under record/replay a
    replayed cell charged the (empty) recorded op stream's 0 flops, so a
    crash cell's [recovery_s] depended on which cell of its group ran
    first. Entries cached by version 6 may hold those values. *)
val schema_version : int

type value =
  | Summary of Jade.Metrics.summary  (** result of a simulated work unit *)
  | Flops of float  (** a serial/total flop count *)

type t

(** Open (creating if needed) the cache rooted at [dir]. *)
val create : dir:string -> t

val dir : t -> string

(** Content digest (hex) of an ordered list of key components. *)
val digest_key : string list -> string

(** Look up an entry; removes it and misses when it is truncated,
    corrupted, schema-stale or undecodable. Never raises. *)
val find : t -> digest:string -> value option

(** Atomically persist an entry. *)
val store : t -> digest:string -> value -> unit

(** [(entries, total_bytes)] currently on disk. *)
val dir_stats : t -> int * int

(** Remove every cache entry (and last-run stats); returns the number of
    entries removed. *)
val clear : t -> int

(** Record the lookup/hit counters of a finished run, for
    [repro cache stats]. *)
val write_last_run : t -> lookups:int -> hits:int -> unit

(** [(lookups, hits)] of the most recent recorded run, if any. *)
val read_last_run : t -> (int * int) option
