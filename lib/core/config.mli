(** Optimization configuration: which communication optimizations the Jade
    implementation applies, mirroring the experimental knobs of §5. *)

type locality_level =
  | No_locality  (** single FCFS task queue (§5.2, "No Locality") *)
  | Locality  (** the implementation's locality heuristic (§3.2.1 / §3.4.3) *)
  | Task_placement  (** honour the programmer's explicit task placement *)

type t = {
  locality : locality_level;
  adaptive_broadcast : bool;  (** §3.4.2 *)
  concurrent_fetch : bool;  (** §3.4.1: fetch a task's objects in parallel *)
  target_tasks : int;
      (** tasks the scheduler tries to keep per processor; 1 disables
          latency hiding, 2 enables it (§3.4.3) *)
  replication : bool;
      (** when false, reads are treated as exclusive accesses, which
          serializes concurrent readers (§5.1) *)
  work_free : bool;
      (** run the work-free version of the program: zero compute cost and
          no shared-object communication, used to measure task-management
          overhead (§5.2.1) *)
  eager_transfer : bool;
      (** the update-protocol variant §6 describes: on commit, eagerly send
          the new version to the processors that accessed the previous one.
          Helps regular, repetitive communication patterns; can generate
          excess communication elsewhere *)
  fault : Jade_net.Fault.spec option;
      (** chaos mode: a deterministic fault plan injected into the message
          fabric, plus the reliable-delivery (ack/retransmit) parameters
          that let the communicator survive it. [None] (and any plan with
          all rates zero) leaves the simulation bit-identical to the
          fault-free baseline. Its message faults apply only to the
          message-passing machines; its crash plan applies to every
          machine. *)
}

(** All optimizations on, no latency hiding ([target_tasks = 1]) — the
    baseline configuration the paper uses for most measurements. *)
val default : t
