(** Interconnect topology: the Intel iPSC/860's cube with e-cube
    (dimension-ordered) routing. Partitions need not be full cubes — a
    topology over [n] nodes is embedded in the smallest enclosing cube. *)

type t

(** [hypercube n] builds a cube topology over nodes [0 .. n-1]. *)
val hypercube : int -> t

val nodes : t -> int

(** Number of links traversed between two nodes (Hamming distance on the
    cube). *)
val hops : t -> int -> int -> int

(** [broadcast_rounds t] is the number of rounds a broadcast needs to
    reach all nodes: [ceil (log2 n)] for the binomial tree on the cube
    (0 when there is a single node). *)
val broadcast_rounds : t -> int

(** [broadcast_schedule t ~root] assigns each node the round (1-based) in
    which a broadcast from [root] reaches it; the root maps to round 0.
    Nodes reached in round [r] number at most [2^(r-1)] (binomial
    tree). *)
val broadcast_schedule : t -> root:int -> int array
