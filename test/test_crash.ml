(* Crash-stop failure and recovery tests: the pure crash plan
   (Jade_net.Fault.crash_plan), the recovery supervisor (Jade.Recovery),
   and the backend failure machinery on all three machines.

   The headline guarantees under test:
   - the crash plan is a pure function of (spec, nprocs): two
     independently constructed plans agree decision-for-decision, and so
     do the message-fault plans (QCheck properties);
   - all four applications complete with numerically identical output
     when any single non-root processor crashes mid-run, on DASH, iPSC
     and LAN alike;
   - a crash-inactive plan leaves a run bit-identical to no plan at all;
   - a crash that loses object versions beyond reconstruction — or kills
     the root processor — raises a structured [Unrecoverable] report
     naming the lost objects instead of hanging or corrupting results;
   - crashy runs never alias clean entries in the persistent run cache. *)

module R = Jade.Runtime
module F = Jade_net.Fault
module Tag = Jade_net.Tag
module Rn = Jade_experiments.Runner

let crash_spec = F.spec ~crash_at:[ (2, 0.01) ] ()

let with_fault f = { Jade.Config.default with Jade.Config.fault = Some f }

(* ------------------------------------------------------------------ *)
(* The crash plan itself *)

let test_crash_plan_pure () =
  let mk () =
    F.spec ~crash_seed:17 ~crash_rate:0.4 ~crash_horizon:0.02
      ~crash_at:[ (3, 0.005) ]
      ()
  in
  List.iter
    (fun nprocs ->
      Alcotest.(check (list (pair int (float 0.0))))
        (Printf.sprintf "independently built plans agree at %d procs" nprocs)
        (F.crash_plan (mk ()) ~nprocs)
        (F.crash_plan (mk ()) ~nprocs))
    [ 1; 2; 4; 8; 16 ];
  let spec = mk () in
  Alcotest.(check bool)
    "same spec replays identically" true
    (F.crash_plan spec ~nprocs:8 = F.crash_plan spec ~nprocs:8)

let test_crash_plan_shape () =
  (* Scripted entries outside the range are dropped; one plan works
     across processor counts. *)
  let spec = F.spec ~crash_at:[ (2, 0.01); (9, 0.001) ] () in
  Alcotest.(check (list (pair int (float 0.0))))
    "out-of-range scripted entry ignored"
    [ (2, 0.01) ]
    (F.crash_plan spec ~nprocs:4);
  Alcotest.(check (list (pair int (float 0.0))))
    "in range it participates, sorted by time"
    [ (9, 0.001); (2, 0.01) ]
    (F.crash_plan spec ~nprocs:16);
  (* At most one crash per processor: the earliest wins. *)
  let dup = F.spec ~crash_at:[ (1, 0.02); (1, 0.004) ] () in
  Alcotest.(check (list (pair int (float 0.0))))
    "earliest entry per processor wins"
    [ (1, 0.004) ]
    (F.crash_plan dup ~nprocs:4);
  Alcotest.(check (list (pair int (float 0.0))))
    "crash-inactive spec has an empty plan" []
    (F.crash_plan (F.spec ()) ~nprocs:8)

let test_crash_plan_rate_mode () =
  let spec = F.spec ~crash_seed:5 ~crash_rate:0.5 ~crash_horizon:0.03 () in
  let plan = F.crash_plan spec ~nprocs:16 in
  Alcotest.(check bool) "rate mode crashes someone" true (plan <> []);
  List.iter
    (fun (p, at) ->
      Alcotest.(check bool) "rate mode never fells the root" true (p > 0);
      Alcotest.(check bool) "crash time inside the horizon" true
        (at >= 0.0 && at <= 0.03))
    plan;
  let procs = List.map fst plan in
  Alcotest.(check bool) "at most one crash per processor" true
    (List.sort_uniq compare procs = List.sort compare procs);
  let other = F.spec ~crash_seed:6 ~crash_rate:0.5 ~crash_horizon:0.03 () in
  Alcotest.(check bool) "crash seed matters" false
    (F.crash_plan other ~nprocs:16 = plan)

(* QCheck: both fault layers are pure — two independently constructed
   plans over the same spec agree on every decision, including the
   per-tag scripted drops (satellite: plan-purity property test). *)

let tag_gen =
  QCheck.Gen.oneofl
    [ Tag.Request; Tag.Obj; Tag.Bcast; Tag.Eager; Tag.Ack; Tag.Ping ]

let spec_gen =
  QCheck.Gen.(
    map
      (fun ((seed, drop, dup), (jitter, crash_seed, crash_rate), script) ->
        F.spec ~seed ~drop_rate:(drop *. 0.5) ~dup_rate:(dup *. 0.5) ~jitter
          ~crash_seed ~crash_rate ~crash_horizon:0.01
          ~drop_tagged:script ())
      (triple
         (triple (int_bound 1000) (float_bound_inclusive 1.0)
            (float_bound_inclusive 1.0))
         (triple (float_bound_inclusive 1e-4) (int_bound 1000)
            (float_bound_inclusive 1.0))
         (small_list (pair (map (fun t -> t) tag_gen) (int_bound 5)))))

let msgs_gen =
  QCheck.Gen.(small_list (triple (int_bound 7) (int_bound 7) tag_gen))

let test_qcheck_plans_pure =
  QCheck.Test.make ~count:200 ~name:"fault and crash plans are pure"
    QCheck.(
      make
        ~print:(fun (spec, msgs) ->
          Format.asprintf "%a + %d msgs" F.pp_spec spec (List.length msgs))
        Gen.(pair spec_gen msgs_gen))
    (fun (spec, msgs) ->
      (* Message-fault stream: two trackers over the same sequence. *)
      let stream () =
        let t = F.create spec in
        List.map (fun (_, _, tag) -> F.next_decision t ~tag) msgs
      in
      let crash nprocs = F.crash_plan spec ~nprocs in
      stream () = stream ()
      && crash 4 = crash 4
      && crash 16 = crash 16)

(* ------------------------------------------------------------------ *)
(* Headline: every app survives a single non-root crash on every machine
   with numerically identical results *)

(* Erase each app's result type so one driver covers all four. *)
let erase (prog, res) = (prog, fun () -> Marshal.to_string (res ()) [])

let make_app name ~kind ~nprocs =
  match name with
  | "water" ->
      erase
        (Jade_apps.Water.make Jade_apps.Water.test_params ~kind ~placed:false
           ~nprocs)
  | "string" ->
      erase
        (Jade_apps.String_app.make Jade_apps.String_app.test_params ~kind
           ~placed:false ~nprocs)
  | "ocean" ->
      erase
        (Jade_apps.Ocean.make Jade_apps.Ocean.test_params ~kind ~placed:true
           ~nprocs)
  | "cholesky" ->
      erase
        (Jade_apps.Cholesky.make Jade_apps.Cholesky.test_params ~kind
           ~placed:true ~nprocs)
  | _ -> assert false

let check_machine ~mname ~machine ~kind () =
  List.iter
    (fun app ->
      let nprocs = 4 in
      let prog, res = make_app app ~kind ~nprocs in
      let clean = R.run ~config:Jade.Config.default ~machine ~nprocs prog in
      let clean_result = res () in
      let prog, res = make_app app ~kind ~nprocs in
      let crashy =
        R.run ~config:(with_fault crash_spec) ~machine ~nprocs prog
      in
      Alcotest.(check int)
        (Printf.sprintf "%s/%s: one crash injected" mname app)
        1 crashy.Jade.Metrics.crash_injected_count;
      Alcotest.(check int)
        (Printf.sprintf "%s/%s: the crash was detected" mname app)
        1 crashy.Jade.Metrics.crash_detected_count;
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s: crash run numerically identical to clean"
           mname app)
        true
        (clean_result = res ());
      Alcotest.(check int)
        (Printf.sprintf "%s/%s: all tasks completed" mname app)
        clean.Jade.Metrics.tasks crashy.Jade.Metrics.tasks;
      (* Repair is free in virtual time when election and re-enqueue
         suffice; water is known to need reconstruction, so there the
         charge must be visible. *)
      if app = "water" then
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s: recovery charged virtual time" mname app)
          true
          (crashy.Jade.Metrics.recovery_s > 0.0))
    [ "water"; "string"; "ocean"; "cholesky" ]

let test_dash_apps =
  check_machine ~mname:"dash" ~machine:R.dash ~kind:Jade_apps.App_common.Shm

let test_ipsc_apps =
  check_machine ~mname:"ipsc" ~machine:R.ipsc860 ~kind:Jade_apps.App_common.Mp

let test_lan_apps =
  check_machine ~mname:"lan" ~machine:R.lan ~kind:Jade_apps.App_common.Mp

(* DASH at 16 and 32 processors, where one enabled task wakes a herd of
   up to 31 idle dispatchers. An idle dispatcher's search runs in engine
   callbacks, so each crash time below puts the victim's halt in one of
   them: the victim is parked (the crash's own wake-up halts it), inside
   its steal-patience window (the patience event halts it), or parked at
   the very instant a wake-up herd that includes it was due (the crash
   event precedes the herd, which goes on without the victim). The times
   come from Water's clean schedule at test size. The pinned event count
   checks that the halt lands at that boundary and not a later one:
   (nprocs, victim, crash time, victim's state, engine events). *)
let dash_mid_search_crashes =
  [
    (16, 9, 0.0025, "parked", 1396);
    (16, 9, 0.0021, "in its patience window", 1395);
    (16, 9, 0.002, "at a wake-up herd's instant", 1394);
    (32, 5, 0.0104, "parked", 3962);
    (32, 5, 0.0107, "in its patience window", 3963);
    (32, 5, 0.0105, "at a wake-up herd's instant", 3962);
  ]

let test_dash_mid_search_crashes () =
  List.iter
    (fun (nprocs, victim, at, state, events) ->
      let name = Printf.sprintf "dash/%dp, P%d crashed %s" nprocs victim state in
      let run config =
        let prog, res =
          make_app "water" ~kind:Jade_apps.App_common.Shm ~nprocs
        in
        let s = R.run ~config ~machine:R.dash ~nprocs prog in
        (s, res ())
      in
      let clean, clean_result = run Jade.Config.default in
      let crashy, crashy_result =
        run (with_fault (F.spec ~crash_at:[ (victim, at) ] ()))
      in
      Alcotest.(check int) (name ^ ": one crash injected") 1
        crashy.Jade.Metrics.crash_injected_count;
      Alcotest.(check int) (name ^ ": the crash was detected") 1
        crashy.Jade.Metrics.crash_detected_count;
      Alcotest.(check int) (name ^ ": all tasks completed")
        clean.Jade.Metrics.tasks crashy.Jade.Metrics.tasks;
      Alcotest.(check bool) (name ^ ": results identical to the clean run")
        true
        (clean_result = crashy_result);
      Alcotest.(check int) (name ^ ": engine events") events
        crashy.Jade.Metrics.event_count)
    dash_mid_search_crashes

let test_rate_mode_recovers () =
  let prog, res = make_app "water" ~kind:Jade_apps.App_common.Mp ~nprocs:4 in
  ignore (R.run ~config:Jade.Config.default ~machine:R.ipsc860 ~nprocs:4 prog);
  let clean_result = res () in
  let prog, res = make_app "water" ~kind:Jade_apps.App_common.Mp ~nprocs:4 in
  let s =
    R.run
      ~config:
        (with_fault
           (F.spec ~crash_seed:42 ~crash_rate:0.6 ~crash_horizon:0.05 ()))
      ~machine:R.ipsc860 ~nprocs:4 prog
  in
  Alcotest.(check bool) "rate mode felled several processors" true
    (s.Jade.Metrics.crash_injected_count >= 2);
  Alcotest.(check bool) "results still exact" true (clean_result = res ())

let test_restart_rejoins () =
  let prog, res = make_app "water" ~kind:Jade_apps.App_common.Mp ~nprocs:4 in
  ignore (R.run ~config:Jade.Config.default ~machine:R.ipsc860 ~nprocs:4 prog);
  let clean_result = res () in
  let prog, res = make_app "water" ~kind:Jade_apps.App_common.Mp ~nprocs:4 in
  let s =
    R.run
      ~config:
        (with_fault (F.spec ~crash_at:[ (2, 0.01) ] ~crash_restart:0.05 ()))
      ~machine:R.ipsc860 ~nprocs:4 prog
  in
  Alcotest.(check int) "crash injected" 1 s.Jade.Metrics.crash_injected_count;
  Alcotest.(check int) "crash detected" 1 s.Jade.Metrics.crash_detected_count;
  Alcotest.(check bool) "results exact across a restart" true
    (clean_result = res ())

(* A victim rejoins only once recovery has re-routed its queue. With a
   restart 0.01 s after the crash, the timer fires after the victim
   halted but before the supervisor detected it (the rejoin then waits
   for the recovery); with the longer delay it fires after detection.
   Either way the results equal the crash-free run. A restart that came
   before detection used to leave the victim's lost assignment unsent on
   iPSC and LAN, where the run never finished. *)
let test_restart_around_detection ~mname ~machine ~kind ~after () =
  List.iter
    (fun app ->
      let nprocs = 4 in
      let prog, res = make_app app ~kind ~nprocs in
      ignore (R.run ~config:Jade.Config.default ~machine ~nprocs prog);
      let clean_result = res () in
      List.iter
        (fun delay ->
          let name = Printf.sprintf "%s/%s, restart after %g s" mname app delay in
          let prog, res = make_app app ~kind ~nprocs in
          let s =
            R.run
              ~config:
                (with_fault
                   (F.spec ~crash_at:[ (2, 0.01) ] ~crash_restart:delay ()))
              ~machine ~nprocs prog
          in
          Alcotest.(check int) (name ^ ": crash detected") 1
            s.Jade.Metrics.crash_detected_count;
          Alcotest.(check bool) (name ^ ": results equal the crash-free run")
            true
            (clean_result = res ()))
        [ 0.01; after ])
    [ "water"; "ocean" ]

(* On DASH, Water's processor 2 is still running a task when a restart
   0.002 s after its crash comes due: the restart cancels the crash
   before the halt boundary, and nothing is detected or recovered. *)
let test_restart_before_halt () =
  let prog, res = make_app "water" ~kind:Jade_apps.App_common.Shm ~nprocs:4 in
  let clean = R.run ~config:Jade.Config.default ~machine:R.dash ~nprocs:4 prog in
  let clean_result = res () in
  let prog, res = make_app "water" ~kind:Jade_apps.App_common.Shm ~nprocs:4 in
  let s =
    R.run
      ~config:
        (with_fault (F.spec ~crash_at:[ (2, 0.01) ] ~crash_restart:0.002 ()))
      ~machine:R.dash ~nprocs:4 prog
  in
  Alcotest.(check int) "crash injected" 1 s.Jade.Metrics.crash_injected_count;
  Alcotest.(check int) "nothing detected" 0 s.Jade.Metrics.crash_detected_count;
  Alcotest.(check int) "all tasks completed" clean.Jade.Metrics.tasks
    s.Jade.Metrics.tasks;
  Alcotest.(check bool) "results exact" true (clean_result = res ())

let test_crash_and_chaos_compose () =
  (* Message loss and a processor crash in the same run: the retransmit
     machinery and the recovery supervisor must not trip each other. *)
  let prog, res = make_app "water" ~kind:Jade_apps.App_common.Mp ~nprocs:4 in
  ignore (R.run ~config:Jade.Config.default ~machine:R.ipsc860 ~nprocs:4 prog);
  let clean_result = res () in
  let prog, res = make_app "water" ~kind:Jade_apps.App_common.Mp ~nprocs:4 in
  let s =
    R.run
      ~config:
        (with_fault
           (F.spec ~seed:7 ~drop_rate:0.1 ~crash_at:[ (2, 0.01) ] ()))
      ~machine:R.ipsc860 ~nprocs:4 prog
  in
  Alcotest.(check int) "crash injected" 1 s.Jade.Metrics.crash_injected_count;
  Alcotest.(check bool) "messages dropped too" true
    (s.Jade.Metrics.dropped_count > 0);
  Alcotest.(check bool) "results exact under crash + chaos" true
    (clean_result = res ())

(* The supervisor's probe rounds cost processor 0 one send each, so the
   heartbeat period scales with the processor count: a crash plan at 64
   message-passing processors finishes instead of drowning processor 0 in
   an ever-growing probe backlog. *)
let test_crash_at_64_procs () =
  List.iter
    (fun (mname, machine) ->
      let prog, _ = make_app "water" ~kind:Jade_apps.App_common.Mp ~nprocs:64 in
      let s =
        R.run ~config:(with_fault crash_spec) ~machine ~nprocs:64 prog
      in
      Alcotest.(check int) (mname ^ ": all tasks completed") 512
        s.Jade.Metrics.tasks;
      Alcotest.(check int) (mname ^ ": the crash was detected") 1
        s.Jade.Metrics.crash_detected_count)
    [ ("ipsc", R.ipsc860); ("lan", R.lan) ]

(* ------------------------------------------------------------------ *)
(* Crash-inactive plans are bit-identical to no plan at all *)

let test_zero_rate_identical () =
  List.iter
    (fun (mname, machine, kind) ->
      let prog, _ = make_app "water" ~kind ~nprocs:4 in
      let base = R.run ~config:Jade.Config.default ~machine ~nprocs:4 prog in
      let prog, _ = make_app "water" ~kind ~nprocs:4 in
      let zero =
        R.run ~config:(with_fault (F.spec ())) ~machine ~nprocs:4 prog
      in
      (* Full summary equality, including the engine event count: the
         crash machinery must add or reorder nothing. *)
      Alcotest.(check bool)
        (mname ^ ": zero-rate summary identical to no plan")
        true (base = zero))
    [
      ("dash", R.dash, Jade_apps.App_common.Shm);
      ("ipsc", R.ipsc860, Jade_apps.App_common.Mp);
    ]

(* ------------------------------------------------------------------ *)
(* Unrecoverable failures: structured report, never a hang *)

let test_root_crash_unrecoverable () =
  let prog, _ = make_app "water" ~kind:Jade_apps.App_common.Mp ~nprocs:4 in
  match
    R.run
      ~config:(with_fault (F.spec ~crash_at:[ (0, 0.01) ] ()))
      ~machine:R.ipsc860 ~nprocs:4 prog
  with
  | _ -> Alcotest.fail "root crash must raise Unrecoverable"
  | exception R.Unrecoverable f ->
      Alcotest.(check int) "root named" 0 f.Jade.Recovery.ur_proc;
      Alcotest.(check bool) "lost objects named" true
        (f.Jade.Recovery.ur_lost <> []);
      let rendered = Jade.Recovery.failure_to_string f in
      let contains sub =
        let n = String.length rendered and m = String.length sub in
        let rec go i =
          i + m <= n && (String.sub rendered i m = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "report renders the lost objects" true
        (contains "Unrecoverable: processor 0" && contains "lost ")

let test_lost_version_unrecoverable () =
  (* Drives the supervisor directly: processor 1 owns the only copy of a
     committed version and no producer is on record (its write predates
     the crash-tracking window), so its crash is unrecoverable. The
     report must name the object and version. *)
  let module E = Jade_sim.Engine in
  let eng = E.create () in
  let metrics = Jade.Metrics.create () in
  let meta = Jade.Meta.create ~id:1 ~name:"x" ~size:4096 ~home:0 ~nprocs:2 in
  Jade.Meta.commit_write meta ~proc:1 ~version:1;
  meta.Jade.Meta.copies.(0) <- -1;
  let doomed = ref [] in
  let actions =
    {
      Jade.Recovery.act_doom = (fun p -> doomed := p :: !doomed);
      act_recover = (fun _ -> 0);
      act_restart = (fun _ -> ());
      act_ping = None;
      act_announce = None;
    }
  in
  let r =
    Jade.Recovery.create
      ~spec:(F.spec ~crash_at:[ (1, 1e-6) ] ())
      ~nprocs:2 ~period:1e-5 ~timeout:2e-5 ~flop_rate:1e6
      ~copy_cost:(fun _ -> 1e-6)
      ~actions
      ~objects:(fun () -> [ meta ])
      ~should_stop:(fun () -> false)
      eng metrics
  in
  Jade.Recovery.start r;
  (* The backend's halt boundary, immediately after the doom flag. *)
  E.schedule_after eng 2e-6 (fun () -> Jade.Recovery.note_stopped r 1);
  ignore (E.run eng);
  Alcotest.(check (list int)) "the victim was doomed" [ 1 ] !doomed;
  match Jade.Recovery.fatal r with
  | None -> Alcotest.fail "expected a fatal lost-version report"
  | Some f ->
      Alcotest.(check int) "victim named" 1 f.Jade.Recovery.ur_proc;
      Alcotest.(check (list (pair string int)))
        "lost object and version named"
        [ ("x", 1) ]
        f.Jade.Recovery.ur_lost

let test_reconstruction_from_producer () =
  (* Same scenario, but the producing task is on record: the version is
     re-executed instead of lost, the object re-homed, and time charged. *)
  let module E = Jade_sim.Engine in
  let eng = E.create () in
  let metrics = Jade.Metrics.create () in
  let meta = Jade.Meta.create ~id:1 ~name:"x" ~size:4096 ~home:0 ~nprocs:2 in
  Jade.Meta.commit_write meta ~proc:1 ~version:1;
  meta.Jade.Meta.copies.(0) <- -1;
  let actions =
    {
      Jade.Recovery.act_doom = (fun _ -> ());
      act_recover = (fun _ -> 0);
      act_restart = (fun _ -> ());
      act_ping = None;
      act_announce = None;
    }
  in
  (* Successful recovery leaves no fatal report, so tell the supervisor
     when it is done (the runtime wires this to the run's stop flag). *)
  let r =
    Jade.Recovery.create
      ~spec:(F.spec ~crash_at:[ (1, 1e-6) ] ())
      ~nprocs:2 ~period:1e-5 ~timeout:2e-5 ~flop_rate:1e6
      ~copy_cost:(fun _ -> 1e-6)
      ~actions
      ~objects:(fun () -> [ meta ])
      ~should_stop:(fun () -> metrics.Jade.Metrics.objects_reconstructed > 0)
      eng metrics
  in
  let producer =
    Jade.Taskrec.create ~tid:7 ~tname:"writer"
      ~spec:[| (meta, Jade.Access.Write) |]
      ~body:(fun _ _ -> ())
      ~work:500.0 ~placement:None ~now:0.0
  in
  Jade.Recovery.note_commit r meta producer;
  Jade.Recovery.start r;
  E.schedule_after eng 2e-6 (fun () -> Jade.Recovery.note_stopped r 1);
  ignore (E.run eng);
  Alcotest.(check bool) "no fatal report" true (Jade.Recovery.fatal r = None);
  Alcotest.(check int) "producer re-executed" 1
    metrics.Jade.Metrics.tasks_reexecuted;
  Alcotest.(check int) "object reconstructed" 1
    metrics.Jade.Metrics.objects_reconstructed;
  Alcotest.(check int) "re-homed to the survivor" 0 meta.Jade.Meta.owner;
  Alcotest.(check int) "survivor holds the committed version" 1
    meta.Jade.Meta.copies.(0);
  Alcotest.(check bool) "repair charged virtual time" true
    (metrics.Jade.Metrics.fl.Jade.Metrics.recovery_time > 0.0)

(* ------------------------------------------------------------------ *)
(* Enriched hang diagnostics: per-processor fetch/retransmit counts and
   the retransmit loops that gave up *)

let lost_reply_program rt =
  let x =
    R.create_object rt ~home:0 ~name:"x" ~size:4096 (Array.make 4 1.0)
  in
  R.withonly rt ~placement:1 ~wait:true ~name:"reader" ~work:100.0
    ~accesses:(fun s -> Jade.Spec.rd s x)
    (fun env -> ignore (R.rd env x))

let contains_line r sub =
  let rendered = R.deadlock_to_string r in
  let n = String.length rendered and m = String.length sub in
  let rec go i = i + m <= n && (String.sub rendered i m = sub || go (i + 1)) in
  go 0

(* With [max_retries:0] the reliable protocol is off ({!Fault.reliable}):
   the lost reply leaves its fetch in flight and no retransmit loop runs,
   so nothing gives up. With one retry allowed and both replies lost, the
   loop retransmits once and then gives up. *)
let test_deadlock_report_fetches () =
  let deadlock ~max_retries ~lost =
    let drop_tagged = List.init lost (fun i -> (Tag.Obj, i)) in
    let fault = F.spec ~drop_tagged ~max_retries () in
    match
      R.run ~config:(with_fault fault) ~machine:R.ipsc860 ~nprocs:2
        lost_reply_program
    with
    | _ -> Alcotest.fail "expected a deadlock"
    | exception R.Deadlock r -> r
  in
  let give_up_line =
    "\n  fetch give-ups: 1 (retransmit loops that hit the retry cap)"
  in
  let r = deadlock ~max_retries:0 ~lost:1 in
  Alcotest.(check (list (triple int int int)))
    "the stuck fetch is attributed to processor 1"
    [ (0, 0, 0); (1, 1, 0) ]
    r.R.dl_fetches;
  Alcotest.(check bool)
    "rendered report includes the in-flight fetch line" true
    (contains_line r "P1: 1 fetches in flight, 0 retransmits");
  Alcotest.(check int) "no retransmit loop, no give-up" 0 r.R.dl_give_ups;
  Alcotest.(check bool) "no give-up line" false
    (contains_line r "give-ups");
  let r = deadlock ~max_retries:1 ~lost:2 in
  Alcotest.(check (list (triple int int int)))
    "one retransmit before the give-up"
    [ (0, 0, 0); (1, 1, 1) ]
    r.R.dl_fetches;
  Alcotest.(check int) "the retransmit loop gave up" 1 r.R.dl_give_ups;
  Alcotest.(check bool) "rendered report includes the give-up line" true
    (contains_line r give_up_line)

(* ------------------------------------------------------------------ *)
(* Run cache: crashy runs never alias clean entries *)

let test_runcache_no_crash_aliasing () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "jade-crash-cache-%d" (Unix.getpid ()))
  in
  let run fault =
    let r = Rn.create ~jobs:1 ?fault ~cache_dir:dir Rn.Test in
    let s =
      Rn.run r ~app:Rn.Water ~machine:Rn.Ipsc ~nprocs:4
        ~config:Jade.Config.default ~placed:false
    in
    (s, Rn.stats r)
  in
  let clean, st1 = run None in
  Alcotest.(check int) "first run is a cache miss" 0 st1.Rn.cache_hits;
  let crashy, st2 = run (Some crash_spec) in
  Alcotest.(check int)
    "crashy run misses the clean entry (distinct content address)" 0
    st2.Rn.cache_hits;
  Alcotest.(check bool) "crashy summary differs from clean" true
    (clean <> crashy);
  Alcotest.(check int) "crash recorded in the cached summary" 1
    crashy.Jade.Metrics.crash_injected_count;
  let crashy_again, st3 = run (Some crash_spec) in
  Alcotest.(check bool) "same crash spec hits its own entry" true
    (st3.Rn.cache_hits > 0);
  Alcotest.(check bool) "cached crashy summary replays exactly" true
    (crashy_again = crashy);
  let clean_again, st4 = run None in
  Alcotest.(check bool) "clean entry still intact" true
    (st4.Rn.cache_hits > 0 && clean_again = clean);
  ignore (Jade_experiments.Runcache.clear (Jade_experiments.Runcache.create ~dir));
  (try Unix.rmdir dir with Unix.Unix_error _ -> ())

let () =
  Alcotest.run "crash"
    [
      ( "plan",
        [
          Alcotest.test_case "crash plan pure" `Quick test_crash_plan_pure;
          Alcotest.test_case "crash plan shape" `Quick test_crash_plan_shape;
          Alcotest.test_case "rate mode" `Quick test_crash_plan_rate_mode;
          QCheck_alcotest.to_alcotest test_qcheck_plans_pure;
        ] );
      ( "apps",
        [
          Alcotest.test_case "dash: single crash, exact results" `Quick
            test_dash_apps;
          Alcotest.test_case "ipsc: single crash, exact results" `Quick
            test_ipsc_apps;
          Alcotest.test_case "lan: single crash, exact results" `Quick
            test_lan_apps;
          Alcotest.test_case "dash: crashes mid-search at 16 and 32 processors"
            `Quick test_dash_mid_search_crashes;
          Alcotest.test_case "rate mode recovers" `Quick
            test_rate_mode_recovers;
          Alcotest.test_case "restart rejoins" `Quick test_restart_rejoins;
          Alcotest.test_case "dash: restart before and after detection" `Quick
            (test_restart_around_detection ~mname:"dash" ~machine:R.dash
               ~kind:Jade_apps.App_common.Shm ~after:0.05);
          Alcotest.test_case "ipsc: restart before and after detection" `Quick
            (test_restart_around_detection ~mname:"ipsc" ~machine:R.ipsc860
               ~kind:Jade_apps.App_common.Mp ~after:0.05);
          Alcotest.test_case "lan: restart before and after detection" `Quick
            (test_restart_around_detection ~mname:"lan" ~machine:R.lan
               ~kind:Jade_apps.App_common.Mp ~after:0.5);
          Alcotest.test_case "dash: restart before the halt cancels the crash"
            `Quick test_restart_before_halt;
          Alcotest.test_case "crash composes with chaos" `Quick
            test_crash_and_chaos_compose;
          Alcotest.test_case "crash plan finishes at 64 processors" `Quick
            test_crash_at_64_procs;
        ] );
      ( "zero-rate",
        [
          Alcotest.test_case "bit-identical to no plan" `Quick
            test_zero_rate_identical;
        ] );
      ( "unrecoverable",
        [
          Alcotest.test_case "root crash" `Quick test_root_crash_unrecoverable;
          Alcotest.test_case "lost version" `Quick
            test_lost_version_unrecoverable;
          Alcotest.test_case "reconstruction from producer" `Quick
            test_reconstruction_from_producer;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "deadlock report fetch counts" `Quick
            test_deadlock_report_fetches;
        ] );
      ( "runcache",
        [
          Alcotest.test_case "crashy runs never alias clean entries" `Quick
            test_runcache_no_crash_aliasing;
        ] );
    ]
