(** Message-passing fabric over a hypercube: point-to-point sends with
    sender-side processor occupancy (NX/2-style, the CPU performs the send)
    and binomial-tree broadcasts.

    Two send flavours mirror the two contexts in the Jade implementation:
    {!send} is called from a simulation process and blocks it for the send
    occupancy (a processor explicitly distributing data); {!post} is called
    from an interrupt handler and charges the occupancy to the node's busy
    ledger without blocking (a handler replying to an object request).

    The payload type ['a] is chosen by the client (the Jade communicator
    instantiates it with its immutable protocol messages).

    Message cells are pooled: the fabric recycles a cell as soon as the
    delivery handler returns, so a steady-state send–deliver round trip
    allocates no cell. A handler must not keep the cell (the {!msg} record)
    beyond the call; it may keep the body, which the fabric never copies
    or recycles. *)

type 'a msg = {
  mutable src : int;
  mutable dst : int;
  mutable size : int;
  mutable tag : Tag.t;
  mutable body : 'a;
  slot : int;
      (** internal: index into the owning fabric's cell registry — the
          operand of the flat delivery event ({!Jade_sim.Engine.register_op});
          [-1] for standalone {!make} records *)
}

type 'a t

val create :
  ?bus:Jade_machines.Mnode.t ->
  ?fault:Fault.t ->
  Jade_sim.Engine.t ->
  dummy:'a ->
  nodes:Jade_machines.Mnode.t array ->
  topology:Topology.t ->
  startup:float ->
  bandwidth:float ->
  hop_latency:float ->
  'a t
(** [bus], when given, is a shared-medium ledger (an Ethernet-class LAN):
    every transfer additionally serializes through it. [fault], when given,
    is a chaos plan ({!Fault}): every {!post} to another node and every
    broadcast copy consults it and may be dropped, duplicated, or delayed.
    {!send} and node-local deliveries are never faulted. An inactive plan
    ([Fault.active] false) leaves the trajectory identical to no plan.

    Each message rides a pooled cell that is recycled when its handler
    returns: a handler must not keep the cell, but it may keep the body.
    A message the chaos plan duplicates rides a second cell carrying the
    same body. [dummy] is an inert body that blanks a recycled cell, so a
    parked cell never keeps a delivered body alive. *)

(** [set_handler t p f] installs the message handler for node [p]. [f] runs
    as a plain callback at delivery time (interrupt context). *)
val set_handler : 'a t -> int -> ('a msg -> unit) -> unit

(** [make ~src ~dst ~size ~tag body] builds a standalone message record
    not owned by any fabric pool — for tests that feed handlers
    directly. *)
val make : src:int -> dst:int -> size:int -> tag:Tag.t -> 'a -> 'a msg

(** Process-context send: blocks the caller until the sending node has
    worked off the send occupancy; delivery is scheduled after the wire
    latency. A self-send delivers at the current time with no occupancy. *)
val send : 'a t -> src:int -> dst:int -> size:int -> tag:Tag.t -> 'a -> unit

(** Interrupt-context send: charges the occupancy to the source node and
    schedules delivery; never blocks. *)
val post : 'a t -> src:int -> dst:int -> size:int -> tag:Tag.t -> 'a -> unit

(** [broadcast t ~src ~size ~tag body] delivers [body] to every other node
    via a binomial tree: the source is occupied for one send per round; the
    node reached in round [r] receives its copy after [r] rounds of
    (occupancy + wire). Charges the source as interrupt work, so it can be
    used from either context. *)
val broadcast : 'a t -> src:int -> size:int -> tag:Tag.t -> 'a -> unit

(** [set_down t p] marks node [p] crashed: from now on any message sent by
    or addressed to [p] is silently lost at schedule time (its NIC is
    dark). Heartbeat probes to [p] die too, which is exactly how the
    supervisor's suspicion timeout fires. *)
val set_down : 'a t -> int -> unit

(** [clear_down t p] brings node [p]'s NIC back (processor restart). *)
val clear_down : 'a t -> int -> unit

(** [is_down t p] reports whether [p] is currently marked down. *)
val is_down : 'a t -> int -> bool

(** Total messages delivered or scheduled for delivery. *)
val message_count : 'a t -> int

(** Total payload bytes across all messages. *)
val byte_count : 'a t -> int

(** [bytes_with_tag t tag] sums bytes of messages carrying [tag]. *)
val bytes_with_tag : 'a t -> Tag.t -> int

(** [count_with_tag t tag] counts messages carrying [tag]. *)
val count_with_tag : 'a t -> Tag.t -> int

(** Number of message cells ever allocated by this fabric — the size of
    its cell registry, and (with pooling) the peak number of messages
    simultaneously in flight. *)
val cell_count : 'a t -> int
