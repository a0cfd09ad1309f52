(** Task records. A task is a block of code plus an access specification;
    the synchronizer, scheduler and communicator all hang their state off
    this record. *)

type state = Created | Enabled | Running | Completed

type t = {
  tid : int;
  tname : string;
  spec : (Meta.t * Access.mode) array;
      (** declared accesses, in declaration order; the first entry's object
          is the task's locality object *)
  required : int array;
      (** per spec entry: the object version this task must observe *)
  produces : int array;
      (** per spec entry: the version this task's write commits, or -1 *)
  body : t -> int -> unit;  (** receives the task record and the executing processor *)
  work : float;  (** declared computation, in flops *)
  placement : int option;  (** explicit task placement, if the app chose one *)
  mutable state : state;
  mutable pending : int;  (** spec entries not yet ready (synchronizer) *)
  mutable target : int;  (** target processor, computed when enabled *)
  mutable ran_on : int;
  mutable stolen : bool;
  fl : fl;  (** lifecycle timestamps and charged flops, unboxed *)
  mutable released : bool array;
      (** spec entries the task released mid-execution (the advanced
          access-specification statements of §2) *)
  mutable ops : Jade_graph.Ir.op list;
      (** a staged body's [Runtime.work] charges and [Runtime.release]s,
          newest first; [Tracing] lifts them into the task's IR node *)
  mutable done_ivar : unit Jade_sim.Ivar.t option;
      (** filled at completion; only a [~wait] task has one *)
}

(* All-float sub-record: mutable floats in the mixed task record would be
   boxed, and these timestamps are written several times per task. *)
and fl = {
  mutable created_at : float;
  mutable enabled_at : float;
  mutable started_at : float;
  mutable finished_at : float;
  mutable fetch_start : float;
      (** when the first object request went out; -1 if no remote fetch *)
  mutable fetch_end : float;
  mutable charged : float;
      (** flops already charged by [Runtime.work] during the body *)
}

let create ~tid ~tname ~spec ~body ~work ~placement ~now =
  let n = Array.length spec in
  {
    tid;
    tname;
    spec;
    required = Array.make n 0;
    produces = Array.make n (-1);
    body;
    work;
    placement;
    state = Created;
    pending = 0;
    target = 0;
    ran_on = -1;
    stolen = false;
    fl =
      {
        created_at = now;
        enabled_at = -1.0;
        started_at = -1.0;
        finished_at = -1.0;
        fetch_start = -1.0;
        fetch_end = -1.0;
        charged = 0.0;
      };
    released = Array.make n false;
    ops = [];
    done_ivar = None;
  }

(** Wake the creator [wait]ing on [t], if any. *)
let signal_done eng t =
  match t.done_ivar with Some iv -> Jade_sim.Ivar.fill eng iv () | None -> ()

let locality_object t =
  if Array.length t.spec = 0 then None else Some (fst t.spec.(0))

(** Index of [meta] in the task's spec, or [Not_found]. *)
let spec_slot t (meta : Meta.t) =
  let n = Array.length t.spec in
  let rec go i =
    if i >= n then raise Not_found
    else if (fst t.spec.(i)).Meta.id = meta.Meta.id then i
    else go (i + 1)
  in
  go 0

let declares t meta ~write =
  match spec_slot t meta with
  | exception Not_found -> false
  | i ->
      if t.released.(i) then false
      else
        let _, mode = t.spec.(i) in
        if write then Access.is_write mode else Access.is_read mode
