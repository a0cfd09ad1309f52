(** Experiment runner: executes (application x machine x processors x
    configuration) combinations and memoizes their results, since the
    same run backs several tables and figures.

    One memo holds every result — simulation summaries, serial and total
    flop counts, and {!run_custom} cells — keyed by a structural id. Two
    acceleration layers sit under it, both output-preserving:

    {ul
    {- {b Kernel skipping} (on by default): every body in the four apps
       is a [Jade.Runtime.withonly] kernel, which the typechecker keeps
       from charging work or releasing objects, so a run's metrics depend
       only on the declared accesses and work. Memoized runs therefore
       pass [~kernels:false] and never execute the float kernels, whose
       results nothing here reads. Byte-identical by construction;
       [~replay:false] runs every kernel in every cell.}
    {- {b Persistent disk cache} ([?cache_dir]): a result's disk key
       ({!Runcache}) is the MD5 of the runner's size parameters (taken
       once per runner) followed by the marshalled id — for a
       simulation the app, machine, nprocs, placement and full
       [Jade.Config] including the fault spec. Both are marshalled
       without sharing, so equal ids get equal keys however they were
       built. Results persist across processes, so a warm invocation
       performs zero simulation. The disk is asked about an id only on
       a memo miss, and at most once per runner. The runner reads the
       cache once, at its first lookup, and persists each batch of
       computed results as one segment; lookups and writes happen on
       the calling domain, under the runner's lock, and pool workers
       only compute.}} *)

type app = Water | String_ | Ocean | Cholesky

type machine = Dash | Ipsc | Lan

(** Problem scale: [Test] for unit tests, [Bench] for the default harness
    (scaled to finish in minutes), [Paper] for the paper's full data
    sets. *)
type size = Test | Bench | Paper

type level = Tp | Loc | Noloc  (** the three locality optimization levels *)

val app_name : app -> string

val machine_name : machine -> string

val level_name : level -> string

val all_apps : app list

(** The paper's processor counts: 1, 2, 4, 8, 16, 24, 32. *)
val procs : int list

(** Baseline configuration of §5.2: all optimizations on, latency hiding
    off, at the given locality level. *)
val config_of_level : level -> Jade.Config.t

type t

(** [create ?jobs ?fault ?cache_dir ?replay size] makes a runner whose
    result cache is domain-safe. [jobs] (default {!Pool.default_jobs},
    clamped to at least 1) is the number of domains {!parallel} fans
    uncached simulations out across. [fault], when given, is a
    deterministic chaos plan ({!Jade_net.Fault}) folded into the
    configuration of every run this runner executes — it participates in
    the memo key and the disk-cache key, so chaos results never alias
    fault-free ones. [cache_dir] enables the persistent disk cache.
    [replay] (default [true]) skips kernel bodies in {!run},
    {!simulate} and {!task_graph}; [false] executes them (the name
    predates kernel skipping and is kept for callers). Never raises. *)
val create :
  ?jobs:int ->
  ?fault:Jade_net.Fault.spec ->
  ?cache_dir:string ->
  ?replay:bool ->
  size ->
  t

(** Total discrete-event engine events across every simulation this runner
    has executed: memo misses, observed runs, {!task_graph} and
    {!simulate} calls. Runs that skip kernels count in full — they process
    the same event stream — while disk-cache hits simulate nothing and
    count zero. *)
val events_simulated : t -> int

type stats = {
  cache_lookups : int;  (** disk-cache probes (0 without [cache_dir]) *)
  cache_hits : int;  (** probes answered from disk, skipping simulation *)
  replayed_tasks : int;
      (** kernel bodies skipped instead of executed, {!simulate}'s
          included (the name predates kernel skipping) *)
}

val stats : t -> stats

(** Persist this run's disk-cache hit statistics (for
    [repro cache stats]). No-op without [cache_dir]. *)
val flush_cache_stats : t -> unit

(** [parallel t f] evaluates [f ()] with its missing results fanned out
    across the runner's [jobs] domains. A planning pass runs [f] against
    the memo and the disk cache, recording each result neither holds
    with the computation that produces it (and returning poisoned
    placeholders for those instead of computing — see {!Report.poison}).
    When nothing was missing, that pass's result is returned: [f] ran
    once. Otherwise the recorded computations execute on a {!Pool} and
    are merged into the memo keyed and deduplicated, and [f] runs again
    against the warm memo. The result is byte-for-byte identical to a
    plain sequential [f ()] whatever the jobs count or completion
    order, so [f] must not depend on how often it runs. Nested calls
    are safe: inner [parallel]s inside a planning pass just keep
    recording. Collect tables inside [f]; render them outside —
    rendering a planning-pass placeholder trips the {!Report} poison
    assertion. *)
val parallel : t -> (unit -> 'a) -> 'a

(** [run t ~app ~machine ~nprocs ~config ~placed] executes one simulation
    (memoized on all parameters). [placed] selects the program variant with
    explicit task placement. *)
val run :
  t ->
  app:app ->
  machine:machine ->
  nprocs:int ->
  config:Jade.Config.t ->
  placed:bool ->
  Jade.Metrics.summary

(** Like {!run} but unmemoized and running every kernel, returning the run's
    occupancy high-water marks ({!Jade.Metrics.occupancy}) alongside the
    summary, and collecting task-lifecycle events into [trace] when given
    — the [repro run --stats] and [--trace] path (a cached summary
    carries neither). *)
val run_observed :
  ?trace:Jade.Tracing.t ->
  t ->
  app:app ->
  machine:machine ->
  nprocs:int ->
  config:Jade.Config.t ->
  placed:bool ->
  Jade.Metrics.summary * Jade.Metrics.occupancy

(** [run_level t ~app ~machine ~nprocs ~level] — the standard §5.2 runs:
    placement follows the level. *)
val run_level :
  t -> app:app -> machine:machine -> nprocs:int -> level:level -> Jade.Metrics.summary

(** [run_custom t ~key thunk] memoizes an arbitrary float-valued
    computation as a first-class work unit: planned, fanned out and
    disk-cached like a simulation. For experiment cells that bypass the
    (app x machine x config) grid — bespoke machine-cost records, ad-hoc
    parameter sets. [key] is the unit's complete identity at the
    runner's size: it must encode every other input of the computation
    (the memo and the disk cache know [thunk] only by it). *)
val run_custom : t -> key:string -> (unit -> float) -> float

(** [simulate t ~machine ~nprocs program] runs [program] at the default
    configuration on a bespoke machine, for {!run_custom} cells whose
    machine-cost records are off the grid. Kernel bodies are skipped like
    {!run}'s and count in {!stats}. *)
val simulate :
  t ->
  machine:Jade.Runtime.machine ->
  nprocs:int ->
  (Jade.Runtime.t -> unit) ->
  Jade.Metrics.summary

(** Virtual execution time of the original serial program (its measured
    flop count over the machine's rate). *)
val serial_time : t -> app:app -> machine:machine -> float

(** Virtual execution time of the stripped program (Jade constructs
    removed): total declared work over the machine's rate. *)
val stripped_time : t -> app:app -> machine:machine -> float

(** [task_graph t ~app ~machine ~nprocs ~placed] lifts one traced run of
    the program at the default configuration into its task-graph IR
    ({!Jade.Tracing.graph}). Unmemoized; skips kernels like {!run}. *)
val task_graph :
  t ->
  app:app ->
  machine:machine ->
  nprocs:int ->
  placed:bool ->
  Jade_graph.Ir.t

(** Task-management percentage (§5.2.1): elapsed time of the work-free
    version over elapsed time of the original, x100, at the app's best
    placement level. *)
val task_management_pct :
  t -> app:app -> machine:machine -> nprocs:int -> level:level -> float

(** Levels the paper evaluates for an app: Water and String have no
    explicit placement. *)
val levels_for : app -> level list
