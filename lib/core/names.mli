(** Task, object and processor names, formatted once per process.

    Every run names its tasks and objects ("panel.3", "forces.7",
    "dispatcher-12"), and a regeneration creates about 115,000 tasks, so
    a [Printf.sprintf] per name is a measurable share of a run's
    allocation. A name is an immutable string and depends only on its
    key, so every run in a process can share it. *)

(** [memo format] is [format], remembered: the first call with a key
    formats it and later calls with an equal key (structural equality,
    as [Hashtbl]) return that same string. Each domain keeps its own
    table, so worker domains never share a mutable table; the strings
    are equal on every domain. Apply it once, at module level: every
    [memo] owns a table for the life of the process. *)
val memo : ('k -> string) -> 'k -> string
