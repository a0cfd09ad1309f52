type mp = {
  msg_startup : float;
  bandwidth : float;
  hop_latency : float;
  shared_bus : bool;
  small_msg : int;
  broadcast_setup : float;
  marshal_bandwidth : float;
  task_create : float;
  task_enable : float;
  task_dispatch : float;
  completion_handling : float;
  flops : float;
}

type shm = {
  cycle : float;
  cache_line : int;
  l2_hit_cycles : int;
  local_cycles : int;
  remote_cycles : int;
  remote_dirty_cycles : int;
  cluster_size : int;
  cache_bytes : int;
  task_create_shm : float;
  task_enable_shm : float;
  task_dispatch_shm : float;
  steal_cost : float;
  steal_patience : float;
  flops_shm : float;
}

let ipsc860 =
  {
    msg_startup = 47e-6;
    bandwidth = 2.8e6;
    hop_latency = 5e-6;
    shared_bus = false;
    small_msg = 64;
    broadcast_setup = 120e-6;
    marshal_bandwidth = 80.0e6;
    task_create = 1.5e-3;
    task_enable = 250e-6;
    task_dispatch = 300e-6;
    completion_handling = 800e-6;
    flops = 8.0e6;
  }

let dash =
  {
    cycle = 1.0 /. 33.0e6;
    cache_line = 16;
    l2_hit_cycles = 15;
    local_cycles = 29;
    remote_cycles = 101;
    remote_dirty_cycles = 132;
    cluster_size = 4;
    cache_bytes = 256 * 1024;
    task_create_shm = 300e-6;
    task_enable_shm = 40e-6;
    task_dispatch_shm = 50e-6;
    steal_cost = 35e-6;
    steal_patience = 400e-6;
    flops_shm = 6.0e6;
  }

(* A heterogeneous collection of workstations on a 10 Mbit Ethernet-class
   LAN (the third platform §1 mentions Jade running on): high per-message
   software overhead, a single shared medium all transfers serialize
   through, and faster nodes than the iPSC/860's i860. *)
let workstation_lan =
  {
    msg_startup = 1.0e-3;
    bandwidth = 1.1e6;
    hop_latency = 200e-6;
    shared_bus = true;
    small_msg = 128;
    broadcast_setup = 500e-6;
    marshal_bandwidth = 40.0e6;
    task_create = 2.0e-3;
    task_enable = 400e-6;
    task_dispatch = 500e-6;
    completion_handling = 1.0e-3;
    flops = 20.0e6;
  }

let mp_send_occupancy (c : mp) ~size =
  c.msg_startup +. (float_of_int size /. c.bandwidth)
