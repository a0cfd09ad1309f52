(** String: computes a velocity model of the geology between two oil wells
    by tomographic inversion (§4, [11]). Each iteration traces rays through
    the discretized slowness model, computes the difference between
    simulated and observed travel times, and backprojects the difference
    linearly along each ray's path into a replicated difference array; a
    parallel reduction and a serial phase then update the model (SIRT).

    The paper's data set (an oil field in West Texas, 185 ft x 450 ft at
    1 ft resolution) is proprietary; we substitute a synthetic layered
    model with a Gaussian anomaly and synthesize the observed travel times
    by tracing the true model — the same code path end to end. *)

(** Rays run along straight source-receiver lines through the grid. *)
type params = {
  nx : int;  (** horizontal cells (between the wells) *)
  nz : int;  (** vertical cells (depth) *)
  nrays : int;
  iters : int;
}

val paper_params : params

val bench_params : params

val test_params : params

type result = {
  model : float array;  (** slowness, nx*nz row-major by depth *)
  misfit : float;  (** final RMS travel-time misfit *)
  initial_misfit : float;
}

val serial : params -> result * float

(** Bit-identical to [snd (serial p)], skipping the ray tracing that
    only the result needs. *)
val serial_flops : params -> float

val total_work : params -> nprocs:int -> float

val make :
  params ->
  kind:App_common.kind ->
  placed:bool ->
  nprocs:int ->
  (Jade.Runtime.t -> unit) * (unit -> result)

(** Trace one straight ray through a slowness grid. Exposed for tests:
    returns the travel time and invokes [cell] per traversed cell with the
    segment length. *)
val trace_ray :
  nx:int ->
  nz:int ->
  slowness:float array ->
  x0:float ->
  z0:float ->
  x1:float ->
  z1:float ->
  cell:(int -> float -> unit) ->
  float

(** {2 Straight-ray path store}

    Every iteration walks each ray's (cell, segment)
    pairs from a per-size store built once by the DDA. Exposed for tests. *)

(** The store: every ray's pairs in walk order plus its length. *)
type ray_paths

(** [ray_endpoints p r] is ray [r]'s (x0, z0, x1, z1). *)
val ray_endpoints : params -> int -> float * float * float * float

(** [ray_paths_uncached p] traces every ray of [p] into a fresh store:
    a counting pass sizes it exactly, a second pass fills it. *)
val ray_paths_uncached : params -> ray_paths

(** [ray_walk g r f] calls [f cell seg] on ray [r]'s stored pairs in walk
    order and returns its stored length. *)
val ray_walk : ray_paths -> int -> (int -> float -> unit) -> float
