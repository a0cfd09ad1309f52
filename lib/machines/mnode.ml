open Jade_sim

(* The three horizons live in an all-float sub-record: OCaml stores a
   mutable float in a mixed record boxed, so keeping them alongside [eng]
   and [node_id] would allocate a fresh box on every store — and these
   fields are stored to on every message the fabric carries. An all-float
   record is flat, so the stores below allocate nothing. *)
type fl = {
  mutable avail : float;  (** foreground (task/scheduler) work horizon *)
  mutable int_avail : float;  (** interrupt-work completion horizon *)
  mutable busy : float;
}

type t = { eng : Engine.t; node_id : int; fl : fl }

let create eng node_id =
  { eng; node_id; fl = { avail = 0.0; int_avail = 0.0; busy = 0.0 } }

let id t = t.node_id

let occupy t dur =
  if dur < 0.0 then invalid_arg "Mnode.occupy: negative duration";
  let now = Engine.now t.eng in
  let fl = t.fl in
  let start = if fl.avail > now then fl.avail else now in
  let finish = start +. dur in
  fl.avail <- finish;
  fl.busy <- fl.busy +. dur;
  Engine.delay t.eng (finish -. now)

(* Interrupt work preempts the running activity: it serializes with other
   interrupt work (back-to-back replies still queue on the interface) and
   pushes *future* foreground work back by its cost, but completes without
   waiting for an in-progress task. *)
let charge t cost =
  if cost < 0.0 then invalid_arg "Mnode.charge: negative cost";
  let now = Engine.now t.eng in
  let fl = t.fl in
  let start = if fl.int_avail > now then fl.int_avail else now in
  let finish = start +. cost in
  fl.int_avail <- finish;
  let base = if fl.avail > now then fl.avail else now in
  fl.avail <- base +. cost;
  fl.busy <- fl.busy +. cost;
  finish

let avail t = t.fl.avail

let busy_time t = t.fl.busy
