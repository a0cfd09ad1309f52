(** Deterministic random number generator (splitmix64).

    The engine, schedulers and workload generators all draw from explicit
    generator values so that every simulation is reproducible regardless of
    module initialization order. *)

type t

val create : int -> t

val int : t -> int -> int
(** [int t bound] draws uniformly in [\[0, bound)]. [bound] must be > 0. *)

val float : t -> float -> float
(** [float t bound] draws uniformly in [\[0, bound)]. *)

val bool : t -> bool

(** [shuffle t a] permutes [a] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit
