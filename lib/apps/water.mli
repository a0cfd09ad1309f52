(** Water: forces and potentials in a liquid-state system of water
    molecules (§4). Per iteration the program runs two parallel phases —
    inter-molecular forces and potential energy — each followed by a serial
    phase on the main processor that integrates positions or accumulates
    the energy.

    Each parallel task reads the molecule-state array (the broadcast
    candidate: 96 bytes per molecule, 165,888 bytes at the paper's 1728
    molecules) and updates its own copy of an explicitly replicated
    contribution array; a parallel tree reduction produces the
    comprehensive array (its copy is each task's locality object, as in the
    paper). The model is a flexible three-site water: harmonic
    intra-molecular bonds, partial-charge Coulomb forces on all nine site
    pairs of each molecule pair within the oxygen-oxygen cutoff, and an
    O-O Lennard-Jones term, with minimum-image periodic boundaries. *)

type params = {
  n : int;  (** molecules *)
  iters : int;  (** timesteps; two parallel phases each *)
  box : float;  (** periodic box edge length *)
  cutoff : float;
  dt : float;
  seed : int;
}

(** 1728 molecules, 8 iterations: the paper's data set. *)
val paper_params : params

(** Scaled-down instance for the benchmark harness. *)
val bench_params : params

(** Tiny instance for unit tests. *)
val test_params : params

type result = {
  positions : float array;  (** n*3 oxygen positions after the run *)
  energy : float;  (** accumulated potential energy *)
  force_norm : float;  (** L2 norm of the final comprehensive forces *)
}

(** Serial reference implementation: returns the result and the flop count
    it performed (the paper's "serial version"). *)
val serial : params -> result * float

(** Bit-identical to [snd (serial p)], skipping the dynamics that only
    the result needs. *)
val serial_flops : params -> float

(** One force evaluation over the initial configuration (length 9n: three
    sites per molecule), for physics checks: all force terms are pairwise
    and antisymmetric, so the components must sum to zero. *)
val initial_forces : params -> float array

(** [pair_forces p state f ~stride ~offset] adds the inter-molecular
    (Coulomb + O-O Lennard-Jones) forces of molecules [offset],
    [offset + stride], ... against every later molecule within the O-O
    cutoff into [f] (length 9n). [state] is the molecule-state layout, 12
    doubles per molecule. Exposed for tests. *)
val pair_forces :
  params -> float array -> float array -> stride:int -> offset:int -> unit

(** [pair_energy p state e ~stride ~offset]: the matching per-molecule
    potential energy (half of each pair term to either molecule, plus the
    intra-molecular springs of each owned molecule) added into [e]
    (length n). Exposed for tests. *)
val pair_energy :
  params -> float array -> float array -> stride:int -> offset:int -> unit

(** Total declared flops of the Jade version (the "stripped" time is this
    divided by the machine's flop rate). *)
val total_work : params -> nprocs:int -> float

(** [make params ~kind ~placed ~nprocs] builds a fresh Jade program and a
    thunk to read its result after the run. [placed] is accepted for
    interface uniformity; Water has no explicit task placement (§5.2). *)
val make :
  params ->
  kind:App_common.kind ->
  placed:bool ->
  nprocs:int ->
  (Jade.Runtime.t -> unit) * (unit -> result)
