(** Domain-parallel work queue for embarrassingly parallel experiment
    batches.

    Every simulation in the harness is a self-contained {!Jade.Runtime}
    run, so a batch of (app x machine x nprocs x config) points can fan
    out across cores. The pool keeps the fan-out deterministic: tasks are
    claimed from a shared counter, every claimed task runs to completion,
    and results come back in submission order — callers observe exactly
    what a sequential [List.map] would have produced, independent of the
    number of domains or their interleaving. *)

(** Number of workers to use by default:
    [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

(** The most domains one process can run at once (OCaml 5.1's limit on
    64-bit hosts, the calling domain included). *)
val max_jobs : int

(** [workers ~jobs n] is how many domains {!run} uses for [n] thunks,
    the calling one included: [jobs] clamped to [1 .. min n max_jobs]. *)
val workers : jobs:int -> int -> int

(** [run ~jobs thunks] evaluates every thunk on [workers ~jobs n]
    domains ([jobs = 1] runs inline on the calling domain with no domain
    spawns), and returns the results in submission order.

    If any thunk raises, every remaining thunk still runs, and the
    exception of the lowest-index failure is re-raised (with its
    backtrace) after all workers have joined — so both side effects and
    the propagated exception are deterministic. *)
val run : jobs:int -> (unit -> 'a) list -> 'a list

(** [map ~jobs f xs] = [run ~jobs] over [f] applied to each element. *)
val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
