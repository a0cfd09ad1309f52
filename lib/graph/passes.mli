(** Task-graph optimization pass over the {!Ir}, in the spirit of
    task-graph transformation work (Eijkhout's latency-tolerance
    transformations, MARS-style dataflow re-partitioning), composing with
    — rather than replacing — the runtime's communication optimizations.

    {b Locality re-clustering} re-homes unplaced tasks to the size-weighted
    majority owner of the object versions they access, replacing the
    scheduler's single-locality-object heuristic with a whole-access-set
    vote.

    Placement is the only degree of freedom: the pass never edits ids,
    names, access sets, op streams or declared work. {!cluster} checks
    that via {!Verify.check} and raises [Invalid_argument] on a dirty
    certificate, so a transformed graph reaching the replay layer always
    carries a clean certificate. *)

type result = {
  graph : Ir.t;
  changed : int;  (** tasks the pass moved off the projected placement *)
  detail : string;  (** what the pass did, for reporting *)
  cert : Verify.cert;  (** always valid *)
}

(** Run the re-clustering pass and certify it. Raises [Invalid_argument]
    if the certificate comes back dirty (a pass bug, never data). *)
val cluster : Ir.t -> result
