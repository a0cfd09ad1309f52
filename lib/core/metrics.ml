(** Run metrics: everything §5 of the paper measures.

    A [t] is mutated during a run; {!summary} snapshots the derived
    quantities (task locality percentage, communication-to-computation
    ratio, ...) once the run finishes. *)

(* The accumulated times and byte counts live in an all-float sub-record:
   a mutable float field in a mixed record is boxed, so every [+.]-update
   on the task/message hot paths would allocate. An all-float record is
   flat — the accumulations below cost a store and nothing else. *)
type fl = {
  mutable total_task_time : float;
      (** DASH: task execution time including communication (the paper's
          "time in application code"); iPSC: compute time only *)
  mutable total_compute_time : float;
  mutable total_comm_time : float;  (** DASH: remote-access stall time *)
  mutable comm_bytes : float;  (** iPSC: bytes of object-transfer messages *)
  mutable object_latency : float;
      (** sum over object requests of (arrival - request) *)
  mutable task_latency : float;
      (** sum over tasks of (last object arrival - first request) *)
  mutable broadcast_bytes : float;
  mutable elapsed : float;  (** virtual completion time of the run *)
  mutable recovery_time : float;
      (** crash mode: virtual seconds the supervisor spent detecting and
          repairing failures (reassignment, replica reconstruction) *)
}

type t = {
  fl : fl;
  mutable tasks_created : int;
  mutable tasks_executed : int;
  mutable tasks_on_target : int;
  mutable messages : int;
  mutable object_fetches : int;
  mutable tasks_with_fetch : int;
  mutable broadcasts : int;
  mutable eager_transfers : int;
  mutable steals : int;
  mutable events : int;  (** engine events processed during the run *)
  mutable retransmits : int;
      (** chaos mode: requests/pushes re-sent after a delivery timeout *)
  mutable acks : int;  (** chaos mode: push acknowledgements received *)
  mutable fetch_give_ups : int;
      (** chaos mode: retransmit loops that hit the retry cap *)
  mutable dropped_messages : int;  (** messages the fault plan dropped *)
  mutable duplicated_messages : int;
      (** messages the fault plan duplicated *)
  mutable crashes_injected : int;  (** crash mode: processors crash-stopped *)
  mutable crashes_detected : int;
      (** crash mode: failures the supervisor detected and recovered *)
  mutable tasks_reexecuted : int;
      (** crash mode: tasks re-enqueued or re-executed after a crash *)
  mutable objects_reconstructed : int;
      (** crash mode: object replicas rebuilt from survivors or by
          deterministic re-execution *)
  (* Occupancy high-water marks — message and queue sizing observability
     ([repro run --stats], BENCH_repro.json). Deliberately NOT part of
     {!summary}: the parity checks (kernel skipping, disk cache)
     compare summaries structurally, and peak occupancy legitimately
     differs across execution strategies that produce identical
     trajectories. *)
  mutable occ_msg_cells : int;  (** peak fabric messages in flight *)
  mutable occ_cal_hwm : int;  (** peak far-lane (event heap) population *)
  mutable occ_now_cap : int;  (** final now-lane ring capacity *)
  (* Idle traffic, in engine events: DASH dispatchers probing after a
     wake-up or after their steal patience, and processor 0 polling for
     the main program's release (every machine). Not in {!summary} for
     the reason above. *)
  mutable wake_probes : int;
  mutable patience_probes : int;
  mutable main_polls : int;
  (* Waits kept off the engine's far lane ([Engine.poll],
     [Engine.arm]): main-release polls taken in place, and retransmit
     timers that fired as events or were dropped as dead. Each counts in
     [events]. Not in {!summary} for the reason above. *)
  mutable ticks_in_place : int;
  mutable timers_fired : int;
  mutable timers_dropped : int;
}

let create () =
  {
    fl =
      {
        total_task_time = 0.0;
        total_compute_time = 0.0;
        total_comm_time = 0.0;
        comm_bytes = 0.0;
        object_latency = 0.0;
        task_latency = 0.0;
        broadcast_bytes = 0.0;
        elapsed = 0.0;
        recovery_time = 0.0;
      };
    tasks_created = 0;
    tasks_executed = 0;
    tasks_on_target = 0;
    messages = 0;
    object_fetches = 0;
    tasks_with_fetch = 0;
    broadcasts = 0;
    eager_transfers = 0;
    steals = 0;
    events = 0;
    retransmits = 0;
    acks = 0;
    fetch_give_ups = 0;
    dropped_messages = 0;
    duplicated_messages = 0;
    crashes_injected = 0;
    crashes_detected = 0;
    tasks_reexecuted = 0;
    objects_reconstructed = 0;
    occ_msg_cells = 0;
    occ_cal_hwm = 0;
    occ_now_cap = 0;
    wake_probes = 0;
    patience_probes = 0;
    main_polls = 0;
    ticks_in_place = 0;
    timers_fired = 0;
    timers_dropped = 0;
  }

type summary = {
  tasks : int;
  elapsed_s : float;
  locality_pct : float;  (** tasks executed on their target processor, % *)
  task_time_s : float;
  compute_time_s : float;
  comm_time_s : float;
  comm_mbytes : float;
  comm_to_comp : float;  (** Mbytes of communication per second of task time *)
  msg_count : int;
  fetches : int;
  object_latency_s : float;
  task_latency_s : float;
  latency_ratio : float;  (** object latency / task latency; ~1 = no overlap *)
  broadcast_count : int;
  eager_count : int;
  steal_count : int;
  event_count : int;  (** discrete-event engine events the run processed *)
  retransmit_count : int;  (** chaos mode: timed-out sends re-posted *)
  ack_count : int;  (** chaos mode: push acknowledgements received *)
  give_up_count : int;  (** chaos mode: retransmit loops that hit the cap *)
  dropped_count : int;  (** messages the fault plan dropped *)
  duplicated_count : int;  (** messages the fault plan duplicated *)
  crash_injected_count : int;  (** crash mode: processors crash-stopped *)
  crash_detected_count : int;  (** crash mode: failures recovered *)
  reexecuted_count : int;  (** crash mode: tasks re-enqueued / re-executed *)
  reconstructed_count : int;  (** crash mode: object replicas rebuilt *)
  recovery_s : float;  (** crash mode: virtual seconds spent in recovery *)
}

let summary m =
  let pct =
    if m.tasks_executed = 0 then 100.0
    else 100.0 *. float_of_int m.tasks_on_target /. float_of_int m.tasks_executed
  in
  let ratio =
    if m.fl.total_task_time <= 0.0 then 0.0
    else m.fl.comm_bytes /. 1.0e6 /. m.fl.total_task_time
  in
  let lat_ratio =
    if m.fl.task_latency <= 0.0 then 1.0
    else m.fl.object_latency /. m.fl.task_latency
  in
  {
    tasks = m.tasks_executed;
    elapsed_s = m.fl.elapsed;
    locality_pct = pct;
    task_time_s = m.fl.total_task_time;
    compute_time_s = m.fl.total_compute_time;
    comm_time_s = m.fl.total_comm_time;
    comm_mbytes = m.fl.comm_bytes /. 1.0e6;
    comm_to_comp = ratio;
    msg_count = m.messages;
    fetches = m.object_fetches;
    object_latency_s = m.fl.object_latency;
    task_latency_s = m.fl.task_latency;
    latency_ratio = lat_ratio;
    broadcast_count = m.broadcasts;
    eager_count = m.eager_transfers;
    steal_count = m.steals;
    event_count = m.events;
    retransmit_count = m.retransmits;
    ack_count = m.acks;
    give_up_count = m.fetch_give_ups;
    dropped_count = m.dropped_messages;
    duplicated_count = m.duplicated_messages;
    crash_injected_count = m.crashes_injected;
    crash_detected_count = m.crashes_detected;
    reexecuted_count = m.tasks_reexecuted;
    reconstructed_count = m.objects_reconstructed;
    recovery_s = m.fl.recovery_time;
  }

(* Occupancy snapshot: the high-water marks above as a plain record, for
   callers ([repro run --stats], the bench harness) that want them after
   the run without holding the mutable [t]. *)
type occupancy = {
  pool_hwm : int;
      (** always 0: protocol messages are immutable values, not pooled.
          Kept only because the benchmark probe ([perfbench/suite.ml])
          reads it. *)
  msg_cells : int;
      (** peak fabric messages in flight. The name predates immutable
          messages, when each rode a pooled cell; it stays because the
          benchmark probe ([perfbench/suite.ml]) reads it. *)
  cal_hwm : int;
      (** peak far-lane (event heap) population. The name predates the
          heap far lane; it stays because the benchmark probe
          ([perfbench/suite.ml]) reads it. *)
  cal_rebuilds : int;
      (** always 0: the far lane is a heap and never rebuilds. Kept only
          because the benchmark probe ([perfbench/suite.ml]) reads it. *)
  now_cap : int;
  esc_hwm : int;
      (** equal to [cal_hwm]: every far-lane event parks in the engine's
          slab. Kept only because the benchmark probe
          ([perfbench/suite.ml]) reads it. *)
  events : int;  (** every engine event of the run *)
  wake_probes : int;
  patience_probes : int;
  main_polls : int;
  ticks_in_place : int;  (** main-release polls taken in place *)
  timers_fired : int;  (** retransmit timers that fired as events *)
  timers_dropped : int;  (** retransmit timers dropped as dead *)
}

let occupancy m =
  {
    pool_hwm = 0;
    msg_cells = m.occ_msg_cells;
    cal_hwm = m.occ_cal_hwm;
    cal_rebuilds = 0;
    now_cap = m.occ_now_cap;
    esc_hwm = m.occ_cal_hwm;
    events = m.events;
    wake_probes = m.wake_probes;
    patience_probes = m.patience_probes;
    main_polls = m.main_polls;
    ticks_in_place = m.ticks_in_place;
    timers_fired = m.timers_fired;
    timers_dropped = m.timers_dropped;
  }

let pp_occupancy fmt o =
  Format.fprintf fmt
    "msg-cells=%d far-lane-hwm=%d now-lane-cap=%d" o.msg_cells o.cal_hwm
    o.now_cap

(* Idle traffic, each count out of the run's events, and how many of the
   main-release polls skipped the far lane. *)
let pp_idle fmt o =
  Format.fprintf fmt
    "wake-probes=%d/%d patience-probes=%d/%d main-polls=%d/%d in-place=%d"
    o.wake_probes o.events o.patience_probes o.events o.main_polls o.events
    o.ticks_in_place

let pp_timers fmt o =
  Format.fprintf fmt "fired=%d dropped=%d" o.timers_fired o.timers_dropped

let pp_summary fmt s =
  Format.fprintf fmt
    "elapsed=%.4fs tasks=%d locality=%.1f%% task-time=%.3fs comm=%.3fMB \
     ratio=%.3f msgs=%d bcasts=%d steals=%d"
    s.elapsed_s s.tasks s.locality_pct s.task_time_s s.comm_mbytes
    s.comm_to_comp s.msg_count s.broadcast_count s.steal_count
