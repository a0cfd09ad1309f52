(** Every calibration constant of the two machine models lives here.

    The published hardware figures come from the paper's appendices: the
    iPSC/860 has 2.8 MB/s links and a 47 µs minimum message time; DASH runs
    at 33 MHz with read latencies of 1/15/29/101/132 cycles for L1 / L2 /
    in-cluster / remote-home / remote-dirty accesses and 16-byte lines.
    Software-overhead constants (task creation, dispatch, synchronizer work)
    are calibration parameters chosen so the reproduction matches the
    paper's task-management behaviour in shape. *)

type mp = {
  msg_startup : float;  (** seconds of processor occupancy per message send *)
  bandwidth : float;  (** bytes/second per link *)
  hop_latency : float;  (** wire latency per hop *)
  shared_bus : bool;
      (** all transfers serialize through one shared medium (Ethernet-class
          LAN) instead of independent links *)
  small_msg : int;  (** size of control messages (request/assign/notify) *)
  broadcast_setup : float;  (** fixed owner-side cost per broadcast operation *)
  marshal_bandwidth : float;
      (** memory bandwidth at which the owner marshals an object for a
          broadcast; dominates the degenerate 1-processor case *)
  task_create : float;  (** main-processor cost to create a task *)
  task_enable : float;  (** synchronizer cost when a task becomes enabled *)
  task_dispatch : float;  (** executing-processor per-task overhead *)
  completion_handling : float;  (** main-processor cost per completion message *)
  flops : float;  (** effective per-node compute rate, flops/s *)
}

type shm = {
  cycle : float;  (** seconds per cycle *)
  cache_line : int;  (** bytes *)
  l2_hit_cycles : int;
  local_cycles : int;  (** in-cluster memory access *)
  remote_cycles : int;  (** clean remote-home access *)
  remote_dirty_cycles : int;  (** dirty in a third cluster *)
  cluster_size : int;
  cache_bytes : int;  (** modelled per-processor cache capacity *)
  task_create_shm : float;
  task_enable_shm : float;
  task_dispatch_shm : float;
  steal_cost : float;  (** extra cost for a steal (remote queue access) *)
  steal_patience : float;
      (** how long an idle processor searches/waits before stealing a task
          off its target processor; keeps the balancer from moving tasks
          the moment they appear *)
  flops_shm : float;
}

val ipsc860 : mp

(** A heterogeneous collection of workstations on an Ethernet-class LAN —
    the third platform the paper mentions Jade running on. An extension
    beyond the paper's measured machines. *)
val workstation_lan : mp

val dash : shm

(** Sender-side occupancy for one message of [size] bytes. *)
val mp_send_occupancy : mp -> size:int -> float
