(* Behavioural tests of the message-passing communicator through the
   runtime: replication/fetch accounting, adaptive-broadcast switchover,
   concurrent vs serial fetches, work-free communication suppression. *)

module R = Jade.Runtime

let config = Jade.Config.default

(* One remote read: exactly one request/reply pair, and the reply carries
   the object's modelled size. *)
let test_single_fetch_accounting () =
  let s =
    R.run ~config ~machine:R.ipsc860 ~nprocs:2 (fun rt ->
        let x = R.create_object rt ~home:0 ~name:"x" ~size:5000 (Array.make 4 1.0) in
        R.withonly rt ~placement:1 ~wait:true ~name:"reader" ~work:100.0
          ~accesses:(fun s -> Jade.Spec.rd s x)
          (fun env -> ignore (R.rd env x)))
  in
  Alcotest.(check int) "one fetch" 1 s.Jade.Metrics.fetches;
  Alcotest.(check (float 1e-9)) "bytes = object size" 0.005 s.Jade.Metrics.comm_mbytes;
  (* assign + request + object + done *)
  Alcotest.(check int) "message count" 4 s.Jade.Metrics.msg_count

let test_local_task_no_fetch () =
  let s =
    R.run ~config ~machine:R.ipsc860 ~nprocs:2 (fun rt ->
        let x = R.create_object rt ~home:0 ~name:"x" ~size:5000 (Array.make 4 1.0) in
        R.withonly rt ~placement:0 ~wait:true ~name:"reader" ~work:100.0
          ~accesses:(fun s -> Jade.Spec.rd s x)
          (fun env -> ignore (R.rd env x)))
  in
  Alcotest.(check int) "no fetch for home task" 0 s.Jade.Metrics.fetches;
  Alcotest.(check (float 0.0)) "no object bytes" 0.0 s.Jade.Metrics.comm_mbytes

let test_replication_installs_copies () =
  (* Three concurrent readers on three processors: each remote processor
     fetches its own copy (two fetches), and they read concurrently. *)
  let s =
    R.run ~config ~machine:R.ipsc860 ~nprocs:3 (fun rt ->
        let x = R.create_object rt ~home:0 ~name:"x" ~size:2000 (Array.make 4 1.0) in
        for p = 0 to 2 do
          R.withonly rt ~placement:p ~name:(Printf.sprintf "r%d" p) ~work:1000.0
            ~accesses:(fun s -> Jade.Spec.rd s x)
            (fun env -> ignore (R.rd env x))
        done;
        R.drain rt)
  in
  Alcotest.(check int) "two remote copies fetched" 2 s.Jade.Metrics.fetches

let test_refetch_only_after_write () =
  (* Reader on proc 1 twice, write in between: second read needs the new
     version, so exactly two fetches. Without the write: one fetch.
     (Adaptive broadcast is disabled here — with both processors touching
     the object it would deliver the new version for free, which
     [test_adaptive_broadcast_switches] covers.) *)
  let config = { config with Jade.Config.adaptive_broadcast = false } in
  let run_with_write with_write =
    let s =
      R.run ~config ~machine:R.ipsc860 ~nprocs:2 (fun rt ->
          let x = R.create_object rt ~home:0 ~name:"x" ~size:2000 (Array.make 4 1.0) in
          let read () =
            R.withonly rt ~placement:1 ~wait:true ~name:"r" ~work:100.0
              ~accesses:(fun s -> Jade.Spec.rd s x)
              (fun env -> ignore (R.rd env x))
          in
          read ();
          if with_write then
            R.withonly rt ~placement:0 ~wait:true ~name:"w" ~work:100.0
              ~accesses:(fun s -> Jade.Spec.rw s x)
              (fun env -> ignore (R.wr env x));
          read ())
    in
    s.Jade.Metrics.fetches
  in
  Alcotest.(check int) "cached copy reused" 1 (run_with_write false);
  Alcotest.(check int) "write invalidates" 2 (run_with_write true)

(* Adaptive broadcast: once every processor has accessed a version, later
   versions are broadcast and readers stop requesting. *)
let broadcast_program nprocs phases rt =
  let x = R.create_object rt ~home:0 ~name:"x" ~size:4096 (Array.make 8 0.0) in
  for _phase = 1 to phases do
    for p = 0 to nprocs - 1 do
      R.withonly rt ~placement:p ~name:"read" ~work:500.0
        ~accesses:(fun s -> Jade.Spec.rd s x)
        (fun env -> ignore (R.rd env x))
    done;
    R.withonly rt ~placement:0 ~name:"write" ~work:500.0
      ~accesses:(fun s -> Jade.Spec.rw s x)
      (fun env -> ignore (R.wr env x))
  done;
  R.drain rt

let test_adaptive_broadcast_switches () =
  let nprocs = 3 and phases = 4 in
  let s = R.run ~config ~machine:R.ipsc860 ~nprocs (broadcast_program nprocs phases) in
  (* Only the first phase fetches (2 remote readers); every write after the
     trigger broadcasts. *)
  Alcotest.(check int) "fetches only in phase 1" 2 s.Jade.Metrics.fetches;
  Alcotest.(check int) "every write broadcast" phases s.Jade.Metrics.broadcast_count

let test_no_adaptive_broadcast_keeps_fetching () =
  let nprocs = 3 and phases = 4 in
  let s =
    R.run
      ~config:{ config with Jade.Config.adaptive_broadcast = false }
      ~machine:R.ipsc860 ~nprocs
      (broadcast_program nprocs phases)
  in
  Alcotest.(check int) "no broadcasts" 0 s.Jade.Metrics.broadcast_count;
  (* Two remote readers re-fetch after each of the first (phases-1) writes. *)
  Alcotest.(check int) "fetch per phase per remote reader" (2 * phases)
    s.Jade.Metrics.fetches

let test_broadcast_needs_all_processors () =
  (* If one processor never reads the object, broadcast mode must not
     engage. *)
  let s =
    R.run ~config ~machine:R.ipsc860 ~nprocs:3 (fun rt ->
        let x = R.create_object rt ~home:0 ~name:"x" ~size:4096 (Array.make 8 0.0) in
        for _phase = 1 to 3 do
          for p = 0 to 1 do
            R.withonly rt ~placement:p ~name:"read" ~work:500.0
              ~accesses:(fun s -> Jade.Spec.rd s x)
              (fun env -> ignore (R.rd env x))
          done;
          R.withonly rt ~placement:0 ~name:"write" ~work:500.0
            ~accesses:(fun s -> Jade.Spec.rw s x)
            (fun env -> ignore (R.wr env x))
        done;
        R.drain rt)
  in
  Alcotest.(check int) "never broadcasts" 0 s.Jade.Metrics.broadcast_count

(* Concurrent fetches: a task reading several remote objects overlaps the
   transfers; serial fetching pays them end to end. *)
let multi_fetch_program rt =
  let objs =
    Array.init 4 (fun i ->
        Jade.Runtime.create_object rt ~home:0
          ~name:(Printf.sprintf "x%d" i)
          ~size:100000 (Array.make 4 0.0))
  in
  R.withonly rt ~placement:1 ~wait:true ~name:"gather" ~work:100.0
    ~accesses:(fun s -> Array.iter (fun o -> Jade.Spec.rd s o) objs)
    (fun env -> Array.iter (fun o -> ignore (R.rd env o)) objs)

let test_concurrent_fetch_parallelizes () =
  let conc = R.run ~config ~machine:R.ipsc860 ~nprocs:2 multi_fetch_program in
  let serial =
    R.run
      ~config:{ config with Jade.Config.concurrent_fetch = false }
      ~machine:R.ipsc860 ~nprocs:2 multi_fetch_program
  in
  Alcotest.(check bool)
    (Printf.sprintf "concurrent faster (%.4f vs %.4f)"
       conc.Jade.Metrics.elapsed_s serial.Jade.Metrics.elapsed_s)
    true
    (conc.Jade.Metrics.elapsed_s < serial.Jade.Metrics.elapsed_s);
  (* With one source the replies still serialize on the owner, but the
     requests go out together: object latency accumulates waiting replies,
     so the ratio exceeds 1 when fetches overlap. *)
  Alcotest.(check bool) "latency ratio > 1 when overlapped" true
    (conc.Jade.Metrics.latency_ratio > 1.01);
  Alcotest.(check bool) "serial ratio close to 1" true
    (serial.Jade.Metrics.latency_ratio < conc.Jade.Metrics.latency_ratio)

let test_work_free_suppresses_communication () =
  let s =
    R.run
      ~config:{ config with Jade.Config.work_free = true }
      ~machine:R.ipsc860 ~nprocs:3
      (broadcast_program 3 3)
  in
  Alcotest.(check int) "no fetches" 0 s.Jade.Metrics.fetches;
  Alcotest.(check int) "no broadcasts" 0 s.Jade.Metrics.broadcast_count;
  Alcotest.(check (float 0.0)) "no object bytes" 0.0 s.Jade.Metrics.comm_mbytes;
  Alcotest.(check bool) "task management messages remain" true
    (s.Jade.Metrics.msg_count > 0)

let test_locality_pct_metric () =
  (* All tasks placed on their (home) processors: 100%. *)
  let s =
    R.run
      ~config:{ config with Jade.Config.locality = Jade.Config.Task_placement }
      ~machine:R.ipsc860 ~nprocs:4
      (fun rt ->
        for p = 0 to 3 do
          let x =
            R.create_object rt ~home:p ~name:(Printf.sprintf "x%d" p) ~size:100
              (Array.make 1 0.0)
          in
          R.withonly rt ~placement:p ~name:"t" ~work:100.0
            ~accesses:(fun s -> Jade.Spec.rw s x)
            (fun env -> ignore (R.wr env x))
        done;
        R.drain rt)
  in
  Alcotest.(check (float 0.0)) "100%% locality" 100.0 s.Jade.Metrics.locality_pct

(* Regression: a newer-version fetch superseding an in-flight pending
   record must not orphan processes already waiting on it. Task 1 blocks
   in [ensure_local] fetching x@v1; before the reply arrives, a prefetch
   for x@v2 supersedes the pending record. The waiter must be woken when
   the newer version arrives (previously the record — and its ivar — was
   replaced outright, leaving the waiter blocked forever). The test drives
   the communicator directly to pin the interleaving. *)
let test_superseded_fetch_wakes_waiter () =
  let module E = Jade_sim.Engine in
  let module C = Jade_machines.Costs in
  let eng = E.create () in
  let nodes = Array.init 2 (Jade_machines.Mnode.create eng) in
  let costs = C.ipsc860 in
  let fabric =
    Jade_net.Fabric.create eng ~nodes
      ~topology:(Jade_net.Topology.hypercube 2)
      ~startup:costs.C.msg_startup ~bandwidth:costs.C.bandwidth
      ~hop_latency:costs.C.hop_latency
  in
  let metrics = Jade.Metrics.create () in
  let comm =
    Jade.Communicator.create eng ~cfg:Jade.Config.default ~costs ~nodes
      ~fabric ~metrics
  in
  for p = 0 to 1 do
    Jade_net.Fabric.set_handler fabric p (fun msg ->
        Jade.Communicator.handle comm msg)
  done;
  let meta = Jade.Meta.create ~id:1 ~name:"x" ~size:4096 ~home:0 ~nprocs:2 in
  Jade.Meta.commit_write meta ~proc:0 ~version:1;
  let mk_task tid version =
    let t =
      Jade.Taskrec.create ~tid ~tname:(Printf.sprintf "t%d" tid)
        ~spec:[| (meta, Jade.Access.Read) |]
        ~body:(fun _ _ -> ())
        ~work:0.0 ~placement:None ~now:0.0
    in
    t.Jade.Taskrec.required.(0) <- version;
    t
  in
  let task1 = mk_task 1 1 in
  let task2 = mk_task 2 2 in
  let resumed = ref false in
  E.spawn eng (fun () ->
      Jade.Communicator.ensure_local comm task1 ~proc:1;
      resumed := true);
  (* Well before task1's reply can arrive (message latency is tens of
     microseconds), a writer commits v2 and an assignment for task2
     triggers a concurrent prefetch on the same processor. *)
  E.schedule_after eng 1e-7 (fun () ->
      Jade.Meta.commit_write meta ~proc:0 ~version:2;
      Jade.Communicator.prefetch comm task2 ~proc:1);
  ignore (E.run eng);
  Alcotest.(check bool) "waiter resumed" true !resumed;
  Alcotest.(check int) "no orphaned process" 0 (E.live_processes eng);
  Alcotest.(check int) "both versions were requested" 2
    metrics.Jade.Metrics.object_fetches

let () =
  Alcotest.run "communication"
    [
      ( "fetch",
        [
          Alcotest.test_case "single fetch accounting" `Quick
            test_single_fetch_accounting;
          Alcotest.test_case "local task no fetch" `Quick test_local_task_no_fetch;
          Alcotest.test_case "replication installs copies" `Quick
            test_replication_installs_copies;
          Alcotest.test_case "refetch after write only" `Quick
            test_refetch_only_after_write;
        ] );
      ( "broadcast",
        [
          Alcotest.test_case "adaptive switchover" `Quick
            test_adaptive_broadcast_switches;
          Alcotest.test_case "disabled keeps fetching" `Quick
            test_no_adaptive_broadcast_keeps_fetching;
          Alcotest.test_case "needs all processors" `Quick
            test_broadcast_needs_all_processors;
        ] );
      ( "latency",
        [
          Alcotest.test_case "concurrent fetch parallelizes" `Quick
            test_concurrent_fetch_parallelizes;
        ] );
      ( "superseding",
        [
          Alcotest.test_case "superseded fetch wakes waiter" `Quick
            test_superseded_fetch_wakes_waiter;
        ] );
      ( "modes",
        [
          Alcotest.test_case "work-free suppresses comm" `Quick
            test_work_free_suppresses_communication;
          Alcotest.test_case "locality metric" `Quick test_locality_pct_metric;
        ] );
    ]
