(* Backend-conformance suite: one set of behavioral tests, instantiated
   for every machine backend (DASH, iPSC/860, LAN), so each backend is
   held to the same contract — correct data flow, access checking,
   determinism, metrics invariants, argument validation and deadlock
   reporting — rather than the LAN variant being tested only incidentally. *)

module R = Jade.Runtime

(* What the conformance functor needs to know about a backend. *)
module type BACKEND = sig
  val name : string
  (** suite name, and the machine name validation errors must carry *)

  val display_name : string

  val machine : R.machine

  val message_passing : bool
  (** fabric-based backends move objects in messages and are subject to
      fault injection; the shared-memory backend is not *)
end

module Conformance (B : BACKEND) = struct
  (* Parallel partial sums into per-task cells, then a reduction —
     exercises replication, write dependences and the full enable/
     dispatch/complete path of the backend. *)
  let pipeline_program ntasks n result rt =
    let input =
      R.create_object rt ~name:"input" ~size:(8 * n) (Array.init n float_of_int)
    in
    let cells =
      Array.init ntasks (fun i ->
          R.create_object rt
            ~home:(i mod R.nprocs rt)
            ~name:(Printf.sprintf "cell.%d" i)
            ~size:8 (Array.make 1 0.0))
    in
    for i = 0 to ntasks - 1 do
      R.withonly rt ~name:(Printf.sprintf "partial.%d" i) ~work:1000.0
        ~accesses:(fun s ->
          Jade.Spec.wr s cells.(i);
          Jade.Spec.rd s input)
        (fun env ->
          let inp = R.rd env input in
          let cell = R.wr env cells.(i) in
          let lo = i * n / ntasks and hi = ((i + 1) * n / ntasks) - 1 in
          let acc = ref 0.0 in
          for k = lo to hi do
            acc := !acc +. inp.(k)
          done;
          cell.(0) <- !acc)
    done;
    R.withonly rt ~name:"reduce" ~work:100.0 ~wait:true
      ~accesses:(fun s -> Array.iter (fun c -> Jade.Spec.rd s c) cells)
      (fun env ->
        let acc = ref 0.0 in
        Array.iter (fun c -> acc := !acc +. (R.rd env c).(0)) cells;
        result := !acc)

  let expected n = float_of_int (n * (n - 1)) /. 2.0

  (* Correct results at several processor counts, including a
     non-power-of-two (partial hypercubes must route correctly). *)
  let test_pipeline () =
    List.iter
      (fun nprocs ->
        let result = ref 0.0 in
        let s = R.run ~machine:B.machine ~nprocs (pipeline_program 8 1000 result) in
        Alcotest.(check (float 1e-6))
          (Printf.sprintf "sum with %d procs" nprocs)
          (expected 1000) !result;
        Alcotest.(check int) "all tasks ran" 9 s.Jade.Metrics.tasks;
        Alcotest.(check bool) "time advanced" true (s.Jade.Metrics.elapsed_s > 0.0))
      [ 1; 2; 5; 8 ]

  let test_access_violation () =
    let program rt =
      let x = R.create_object rt ~name:"x" ~size:8 (Array.make 1 0.0) in
      let y = R.create_object rt ~name:"y" ~size:8 (Array.make 1 0.0) in
      R.withonly rt ~name:"bad" ~work:1.0 ~wait:true
        ~accesses:(fun s -> Jade.Spec.rd s x)
        (fun env -> ignore (R.rd env y))
    in
    Alcotest.check_raises "undeclared read"
      (R.Access_violation "task bad reads undeclared object y") (fun () ->
        ignore (R.run ~machine:B.machine ~nprocs:2 program))

  (* Two identical runs must produce identical summaries: the simulation
     is a deterministic function of (program, machine, nprocs, config). *)
  let test_determinism () =
    let once () =
      let result = ref 0.0 in
      let s = R.run ~machine:B.machine ~nprocs:4 (pipeline_program 8 500 result) in
      (s, !result)
    in
    let s1, r1 = once () in
    let s2, r2 = once () in
    Alcotest.(check (float 0.0)) "results identical" r1 r2;
    Alcotest.(check bool) "summaries identical" true (s1 = s2)

  (* Invariants every backend's accounting must uphold. *)
  let test_metrics_invariants () =
    let result = ref 0.0 in
    let _, () =
      R.run_with ~machine:B.machine ~nprocs:4 (pipeline_program 8 500 result)
        ~inspect:(fun rt m ->
          Alcotest.(check int)
            "every created task executed" m.Jade.Metrics.tasks_created
            m.Jade.Metrics.tasks_executed;
          Alcotest.(check bool)
            "on-target is a subset of executed" true
            (m.Jade.Metrics.tasks_on_target >= 0
            && m.Jade.Metrics.tasks_on_target <= m.Jade.Metrics.tasks_executed);
          Alcotest.(check bool)
            "events were processed" true (m.Jade.Metrics.events > 0);
          Alcotest.(check bool)
            "some processor did work" true
            (R.node_busy rt 0 > 0.0);
          if not B.message_passing then
            Alcotest.(check int) "no fabric messages" 0 m.Jade.Metrics.messages)
    in
    let s = R.run ~machine:B.machine ~nprocs:4 (pipeline_program 8 500 result) in
    Alcotest.(check bool)
      "locality percentage in range" true
      (s.Jade.Metrics.locality_pct >= 0.0 && s.Jade.Metrics.locality_pct <= 100.0)

  (* Validation happens up front and the error names the machine. *)
  let test_nprocs_validation () =
    let msg n =
      Printf.sprintf "Runtime.run: %s machine needs nprocs >= 1 (got %d)"
        B.display_name n
    in
    List.iter
      (fun n ->
        Alcotest.check_raises
          (Printf.sprintf "nprocs=%d rejected" n)
          (Invalid_argument (msg n))
          (fun () -> ignore (R.run ~machine:B.machine ~nprocs:n (fun _ -> ()))))
      [ 0; -3 ]

  (* Work-free mode runs the management path on every backend. *)
  let test_work_free () =
    let result = ref 0.0 in
    let s =
      R.run
        ~config:{ Jade.Config.default with Jade.Config.work_free = true }
        ~machine:B.machine ~nprocs:4
        (pipeline_program 8 100 result)
    in
    Alcotest.(check int) "all tasks managed" 9 s.Jade.Metrics.tasks;
    Alcotest.(check (float 0.0)) "bodies skipped" 0.0 !result;
    Alcotest.(check bool) "mgmt time nonzero" true (s.Jade.Metrics.elapsed_s > 0.0)

  (* A fabric that drops everything must end in a *reported* deadlock
     (structured exception, not a hang): every message-passing backend
     shares the watchdog. The zero-retry plan disables retransmission so
     the very first lost assignment is fatal. *)
  let test_deadlock_report () =
    if B.message_passing then begin
      let fault =
        Jade_net.Fault.spec ~seed:7 ~drop_rate:1.0 ~max_retries:0 ()
      in
      let config = { Jade.Config.default with Jade.Config.fault = Some fault } in
      let result = ref 0.0 in
      match
        R.run ~config ~machine:B.machine ~nprocs:4 (pipeline_program 4 100 result)
      with
      | _ -> Alcotest.fail "expected a deadlock"
      | exception R.Deadlock r ->
          Alcotest.(check bool)
            "tasks reported outstanding" true (r.R.dl_outstanding > 0);
          Alcotest.(check bool)
            "report renders" true
            (String.length (R.deadlock_to_string r) > 0)
    end

  (* The tracing contract for a run of [tasks] tasks: each is recorded
     exactly once — the graph lifts one node per task (a duplicate id
     would not build) and the Chrome export has one task event per task
     — and, on fabric backends, the object transfers are recorded and
     rendered as flows. *)
  let check_trace tr ~tasks =
    Alcotest.(check int) "one record per task" tasks (Jade.Tracing.count tr);
    Alcotest.(check int) "one graph node per task" tasks
      (Jade_graph.Ir.node_count (Jade.Tracing.graph tr));
    let json = Jade.Tracing.to_chrome_json tr in
    let occurrences needle =
      let nl = String.length needle and n = ref 0 in
      for i = 0 to String.length json - nl do
        if String.sub json i nl = needle then incr n
      done;
      !n
    in
    Alcotest.(check int) "one Chrome task event per task" tasks
      (occurrences "\"cat\":\"task\"");
    if B.message_passing then begin
      Alcotest.(check bool)
        "object movement recorded" true
        (Jade.Tracing.flow_count tr > 0);
      Alcotest.(check bool) "flow start events rendered" true
        (occurrences "\"ph\":\"s\"" > 0);
      Alcotest.(check bool) "flow finish events rendered" true
        (occurrences "\"ph\":\"f\"" > 0)
    end
    else
      Alcotest.(check int)
        "shared memory moves no objects" 0 (Jade.Tracing.flow_count tr)

  (* Tracing must not perturb the result. *)
  let test_tracing () =
    let tr = Jade.Tracing.create () in
    let result = ref 0.0 in
    let s =
      R.run ~trace:tr ~machine:B.machine ~nprocs:4
        (pipeline_program 8 500 result)
    in
    Alcotest.(check (float 1e-6)) "traced run still correct" (expected 500)
      !result;
    check_trace tr ~tasks:s.Jade.Metrics.tasks

  (* The same contract under a crash plan: processor 2 crashes, recovery
     re-routes its queue, and it restarts between its halt and the
     detection. Each task still executes once. *)
  let test_tracing_crash () =
    let kind =
      if B.message_passing then Jade_apps.App_common.Mp
      else Jade_apps.App_common.Shm
    in
    let run ?trace config =
      let prog, _ =
        Jade_apps.Water.make Jade_apps.Water.test_params ~kind ~placed:false
          ~nprocs:4
      in
      R.run ?trace ~config ~machine:B.machine ~nprocs:4 prog
    in
    let clean = run Jade.Config.default in
    let tr = Jade.Tracing.create () in
    let fault =
      Jade_net.Fault.spec ~crash_at:[ (2, 0.01) ] ~crash_restart:0.01 ()
    in
    let s =
      run ~trace:tr { Jade.Config.default with Jade.Config.fault = Some fault }
    in
    let tasks = clean.Jade.Metrics.tasks in
    Alcotest.(check int) "the crash was detected" 1
      s.Jade.Metrics.crash_detected_count;
    Alcotest.(check int) "each task executed once" tasks s.Jade.Metrics.tasks;
    check_trace tr ~tasks

  let suite =
    ( "conformance:" ^ B.name,
      [
        Alcotest.test_case "pipeline" `Quick test_pipeline;
        Alcotest.test_case "access violation" `Quick test_access_violation;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "metrics invariants" `Quick test_metrics_invariants;
        Alcotest.test_case "nprocs validation" `Quick test_nprocs_validation;
        Alcotest.test_case "work-free" `Quick test_work_free;
        Alcotest.test_case "deadlock report" `Quick test_deadlock_report;
        Alcotest.test_case "tracing" `Quick test_tracing;
        Alcotest.test_case "tracing under a crash plan" `Quick
          test_tracing_crash;
      ] )
end

module Dash = Conformance (struct
  let name = "dash"
  let display_name = "DASH"
  let machine = R.dash
  let message_passing = false
end)

module Ipsc = Conformance (struct
  let name = "ipsc"
  let display_name = "iPSC/860"
  let machine = R.ipsc860
  let message_passing = true
end)

module Lan = Conformance (struct
  let name = "lan"
  let display_name = "LAN"
  let machine = R.lan
  let message_passing = true
end)

let () = Alcotest.run "backends" [ Dash.suite; Ipsc.suite; Lan.suite ]
