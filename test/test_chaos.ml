(* Chaos-mode tests: the deterministic fault plan (Jade_net.Fault), the
   reliable-delivery protocol that survives it (acks, timeout/retransmit,
   idempotent installs), and the simulation watchdog (named processes +
   structured deadlock reports).

   The headline guarantees under test:
   - a fault plan is a pure function of (seed, message index): replays are
     exact;
   - a zero-rate plan leaves every run bit-identical to the fault-free
     baseline;
   - with drops up to 20% and duplication up to 10%, all four applications
     terminate with results numerically identical to the clean run;
   - a lost wakeup produces a structured deadlock report naming the stuck
     process and the ivar it is blocked on, not a bare count. *)

module R = Jade.Runtime
module F = Jade_net.Fault
module Tag = Jade_net.Tag
module Rn = Jade_experiments.Runner

let chaos_spec =
  F.spec ~seed:7 ~drop_rate:0.2 ~dup_rate:0.1 ~jitter:1e-4 ()

(* ------------------------------------------------------------------ *)
(* The fault plan itself *)

(* [Fault.spec] rejects every out-of-range input with a message naming
   it, and accepts the closed ends of the rate ranges. *)
let test_spec_validation () =
  let rejects msg f =
    Alcotest.check_raises msg (Invalid_argument ("Fault.spec: " ^ msg))
      (fun () -> ignore (f ()))
  in
  rejects "drop_rate outside [0,1]" (fun () -> F.spec ~drop_rate:1.5 ());
  rejects "drop_rate outside [0,1]" (fun () -> F.spec ~drop_rate:(-0.1) ());
  rejects "dup_rate outside [0,1]" (fun () -> F.spec ~dup_rate:2.0 ());
  rejects "negative jitter" (fun () -> F.spec ~jitter:(-1e-6) ());
  rejects "crash_rate outside [0,1]" (fun () -> F.spec ~crash_rate:1.01 ());
  rejects "crash_horizon must be positive" (fun () ->
      F.spec ~crash_horizon:0.0 ());
  rejects "negative crash_restart" (fun () -> F.spec ~crash_restart:(-1.0) ());
  rejects "negative crash_at processor" (fun () ->
      F.spec ~crash_at:[ (-1, 0.01) ] ());
  rejects "negative crash_at time" (fun () ->
      F.spec ~crash_at:[ (1, -0.01) ] ());
  let edge = F.spec ~drop_rate:1.0 ~dup_rate:1.0 ~crash_rate:1.0 () in
  Alcotest.(check bool) "closed ends accepted" true
    (F.active edge && F.crash_active edge)

(* The plan as [repro run] prints it on its [chaos:] line: message-fault
   fields always, scripted drops and the crash plan only when present. *)
let test_pp_spec () =
  let show s = Format.asprintf "%a" F.pp_spec s in
  Alcotest.(check string) "message faults"
    "fault(seed=7 drop=0.2 dup=0.1 jitter=0.0001 timeout=0.05 retries=10)"
    (show chaos_spec);
  Alcotest.(check string) "scripted drops"
    "fault(seed=1 drop=0 dup=0 jitter=0 timeout=0.05 retries=10 \
     scripted=object#0,bcast#2)"
    (show (F.spec ~drop_tagged:[ (Tag.Obj, 0); (Tag.Bcast, 2) ] ()));
  Alcotest.(check string) "crash plan"
    "fault(seed=1 drop=0 dup=0 jitter=0 timeout=0.05 retries=10 \
     crash(seed=1 rate=0 horizon=0.01 restart=0 at=2@0.01))"
    (show (F.spec ~crash_at:[ (2, 0.01) ] ()))

let test_plan_pure () =
  let spec = chaos_spec in
  for index = 0 to 99 do
    let d1 = F.decision_at spec ~index in
    let d2 = F.decision_at spec ~index in
    Alcotest.(check bool)
      (Printf.sprintf "decision %d replays identically" index)
      true (d1 = d2)
  done;
  (* Two trackers over the same message sequence agree exactly. *)
  let run_tracker () =
    let t = F.create spec in
    List.init 200 (fun _ -> F.next_decision t ~tag:Tag.Obj)
  in
  Alcotest.(check bool)
    "tracker stream replays identically" true
    (run_tracker () = run_tracker ())

let test_plan_seed_sensitivity () =
  let a = F.spec ~seed:1 ~drop_rate:0.5 () in
  let b = F.spec ~seed:2 ~drop_rate:0.5 () in
  let stream spec =
    List.init 64 (fun index -> (F.decision_at spec ~index).F.drop)
  in
  Alcotest.(check bool) "different seeds differ" false (stream a = stream b)

let test_plan_rates_respected () =
  let spec = F.spec ~seed:3 ~drop_rate:0.2 ~dup_rate:0.1 () in
  let t = F.create spec in
  let n = 5000 in
  for _ = 1 to n do
    ignore (F.next_decision t ~tag:Tag.Obj)
  done;
  let drop_frac = float_of_int (F.dropped t) /. float_of_int n in
  let dup_frac = float_of_int (F.duplicated t) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "drop fraction %.3f near 0.2" drop_frac)
    true
    (drop_frac > 0.15 && drop_frac < 0.25);
  (* Duplication only applies to surviving messages, so the observed
     fraction is a bit under the nominal rate. *)
  Alcotest.(check bool)
    (Printf.sprintf "dup fraction %.3f near 0.1" dup_frac)
    true
    (dup_frac > 0.05 && dup_frac < 0.15);
  Alcotest.(check int) "messages counted" n (F.messages_seen t);
  Alcotest.(check int) "per-tag drops sum" (F.dropped t)
    (F.dropped_with_tag t Tag.Obj)

let test_inactive_plan_is_pass () =
  let zero = F.spec ~seed:9 () in
  Alcotest.(check bool) "zero-rate plan inactive" false (F.active zero);
  Alcotest.(check bool) "inactive plan not reliable" false (F.reliable zero);
  for index = 0 to 31 do
    Alcotest.(check bool) "decision is pass" true
      (F.decision_at zero ~index = F.pass)
  done;
  Alcotest.(check bool) "chaos plan active" true (F.active chaos_spec);
  Alcotest.(check bool) "chaos plan reliable" true (F.reliable chaos_spec);
  Alcotest.(check bool) "scripted-only plan active" true
    (F.active (F.spec ~drop_tagged:[ (Tag.Obj, 0) ] ()))

let test_scripted_drop () =
  let spec = F.spec ~drop_tagged:[ (Tag.Obj, 1) ] () in
  let t = F.create spec in
  let d_req = F.next_decision t ~tag:Tag.Request in
  let d_obj0 = F.next_decision t ~tag:Tag.Obj in
  let d_obj1 = F.next_decision t ~tag:Tag.Obj in
  let d_obj2 = F.next_decision t ~tag:Tag.Obj in
  Alcotest.(check bool) "request passes" false d_req.F.drop;
  Alcotest.(check bool) "object #0 passes" false d_obj0.F.drop;
  Alcotest.(check bool) "object #1 dropped" true d_obj1.F.drop;
  Alcotest.(check bool) "object #2 passes" false d_obj2.F.drop;
  Alcotest.(check int) "one drop counted" 1 (F.dropped t)

(* ------------------------------------------------------------------ *)
(* Zero-rate plan is bit-identical to no plan at all *)

let water_program nprocs =
  fst
    (Jade_apps.Water.make Jade_apps.Water.test_params ~kind:Jade_apps.App_common.Mp
       ~placed:false ~nprocs)

let test_zero_rate_identical () =
  let base =
    R.run ~config:Jade.Config.default ~machine:R.ipsc860 ~nprocs:4
      (water_program 4)
  in
  let zero =
    R.run
      ~config:{ Jade.Config.default with Jade.Config.fault = Some (F.spec ()) }
      ~machine:R.ipsc860 ~nprocs:4 (water_program 4)
  in
  (* Full summary equality: elapsed time, every counter, and even the
     engine event count — the zero-rate plan must not add or reorder a
     single event. *)
  Alcotest.(check bool) "summaries identical" true (base = zero)

let render_figure ~jobs ~fault =
  let r = Rn.create ~jobs ?fault Rn.Test in
  Jade_experiments.Report.render (Jade_experiments.Figures.figure r 14)

let test_zero_rate_figure_identical_any_jobs () =
  let clean = render_figure ~jobs:1 ~fault:None in
  let zero1 = render_figure ~jobs:1 ~fault:(Some (F.spec ())) in
  let zero4 = render_figure ~jobs:4 ~fault:(Some (F.spec ())) in
  Alcotest.(check string) "zero-rate figure identical to clean" clean zero1;
  Alcotest.(check string) "zero-rate figure identical at jobs=4" clean zero4

let test_chaos_figure_identical_any_jobs () =
  (* Chaos runs are themselves deterministic: the same plan renders the
     same figure whatever the domain count. *)
  let one = render_figure ~jobs:1 ~fault:(Some chaos_spec) in
  let four = render_figure ~jobs:4 ~fault:(Some chaos_spec) in
  Alcotest.(check string) "chaos figure identical at any jobs" one four

(* ------------------------------------------------------------------ *)
(* All four applications survive chaos with numerically identical results *)

let run_app_pair ~name make_pair =
  (* [make_pair ()] returns a fresh (program, result thunk). *)
  let nprocs = 8 in
  let clean_prog, clean_res = make_pair () in
  let clean_s =
    R.run ~config:Jade.Config.default ~machine:R.ipsc860 ~nprocs clean_prog
  in
  let chaos_prog, chaos_res = make_pair () in
  let chaos_s =
    R.run
      ~config:{ Jade.Config.default with Jade.Config.fault = Some chaos_spec }
      ~machine:R.ipsc860 ~nprocs chaos_prog
  in
  let identical = clean_res () = chaos_res () in
  Alcotest.(check bool)
    (name ^ ": chaos result numerically identical to clean run")
    true identical;
  Alcotest.(check int)
    (name ^ ": clean run saw no injected faults")
    0
    (clean_s.Jade.Metrics.dropped_count + clean_s.Jade.Metrics.duplicated_count);
  (clean_s, chaos_s)

let test_water_chaos () =
  let _, chaos_s =
    run_app_pair ~name:"water" (fun () ->
        Jade_apps.Water.make Jade_apps.Water.test_params
          ~kind:Jade_apps.App_common.Mp ~placed:false ~nprocs:8)
  in
  Alcotest.(check bool) "faults actually injected" true
    (chaos_s.Jade.Metrics.dropped_count > 0)

let test_string_chaos () =
  ignore
    (run_app_pair ~name:"string" (fun () ->
         Jade_apps.String_app.make Jade_apps.String_app.test_params
           ~kind:Jade_apps.App_common.Mp ~placed:false ~nprocs:8))

let test_ocean_chaos () =
  let _, chaos_s =
    run_app_pair ~name:"ocean" (fun () ->
        Jade_apps.Ocean.make Jade_apps.Ocean.test_params
          ~kind:Jade_apps.App_common.Mp ~placed:true ~nprocs:8)
  in
  Alcotest.(check bool) "faults actually injected" true
    (chaos_s.Jade.Metrics.dropped_count > 0)

let test_cholesky_chaos () =
  ignore
    (run_app_pair ~name:"cholesky" (fun () ->
         Jade_apps.Cholesky.make Jade_apps.Cholesky.test_params
           ~kind:Jade_apps.App_common.Mp ~placed:true ~nprocs:8))

let test_chaos_metrics_flow () =
  (* A run with guaranteed drops exercises the retransmit machinery and
     reports it through the summary. *)
  let s =
    R.run
      ~config:
        {
          Jade.Config.default with
          Jade.Config.fault = Some (F.spec ~seed:11 ~drop_rate:0.3 ())
        }
      ~machine:R.ipsc860 ~nprocs:8 (water_program 8)
  in
  Alcotest.(check bool) "dropped > 0" true (s.Jade.Metrics.dropped_count > 0);
  Alcotest.(check bool) "retransmits > 0" true
    (s.Jade.Metrics.retransmit_count > 0);
  Alcotest.(check int) "no give-ups" 0 s.Jade.Metrics.give_up_count

(* ------------------------------------------------------------------ *)
(* Reliable delivery in isolation: a scripted lost reply is retransmitted *)

let lost_reply_program rt =
  let x = R.create_object rt ~home:0 ~name:"x" ~size:4096 (Array.make 4 1.0) in
  R.withonly rt ~placement:1 ~wait:true ~name:"reader" ~work:100.0
    ~accesses:(fun s -> Jade.Spec.rd s x)
    (fun env -> ignore (R.rd env x))

let test_lost_reply_retransmitted () =
  let fault = F.spec ~drop_tagged:[ (Tag.Obj, 0) ] () in
  let s =
    R.run
      ~config:{ Jade.Config.default with Jade.Config.fault = Some fault }
      ~machine:R.ipsc860 ~nprocs:2 lost_reply_program
  in
  Alcotest.(check int) "the reply was dropped" 1 s.Jade.Metrics.dropped_count;
  Alcotest.(check bool) "a retransmit rescued the fetch" true
    (s.Jade.Metrics.retransmit_count >= 1);
  Alcotest.(check int) "task completed" 1 s.Jade.Metrics.tasks

(* A dropped push is re-posted from the body its owner kept: processor 1
   reads x, processor 0 writes it, and the new version is pushed to
   processor 1 and dropped. The second reader fetches x itself, and its
   long body keeps the run going past the push timer, which re-posts the
   kept body; processor 1 acknowledges it. *)
let lost_push_program rt =
  let x = R.create_object rt ~home:0 ~name:"x" ~size:4096 (Array.make 4 1.0) in
  let reader work =
    R.withonly rt ~placement:1 ~name:"reader" ~work
      ~accesses:(fun s -> Jade.Spec.rd s x)
      (fun env -> ignore (R.rd env x))
  in
  reader 100.0;
  R.withonly rt ~placement:0 ~name:"writer" ~work:100.0
    ~accesses:(fun s -> Jade.Spec.wr s x)
    (fun env -> (R.wr env x).(0) <- 2.0);
  reader 1e7

let test_lost_push_retransmitted tag config () =
  let fault = F.spec ~drop_tagged:[ (tag, 0) ] () in
  let s =
    R.run
      ~config:{ config with Jade.Config.fault = Some fault }
      ~machine:R.ipsc860 ~nprocs:2 lost_push_program
  in
  Alcotest.(check int) "the push was dropped" 1 s.Jade.Metrics.dropped_count;
  Alcotest.(check int) "re-posted once" 1 s.Jade.Metrics.retransmit_count;
  Alcotest.(check int) "acknowledged" 1 s.Jade.Metrics.ack_count;
  Alcotest.(check int) "tasks completed" 3 s.Jade.Metrics.tasks;
  Alcotest.(check int) "no give-ups" 0 s.Jade.Metrics.give_up_count

(* With adaptive broadcast on, the broadcast delivers the copy and no
   eager update is sent, so the eager case turns broadcast off. *)
let eager_only =
  {
    Jade.Config.default with
    Jade.Config.eager_transfer = true;
    adaptive_broadcast = false;
  }

(* ------------------------------------------------------------------ *)
(* Watchdog: lost wakeup yields a structured deadlock report *)

let test_lost_reply_deadlock_report () =
  (* Same scripted drop, but with retransmits disabled: the fetch ivar is
     never filled and the run must end in a structured deadlock report
     naming the stuck dispatcher and the exact fetch it is blocked on. *)
  let fault = F.spec ~drop_tagged:[ (Tag.Obj, 0) ] ~max_retries:0 () in
  match
    R.run
      ~config:{ Jade.Config.default with Jade.Config.fault = Some fault }
      ~machine:R.ipsc860 ~nprocs:2 lost_reply_program
  with
  | _ -> Alcotest.fail "expected a deadlock"
  | exception R.Deadlock r ->
      Alcotest.(check int) "one task outstanding" 1 r.R.dl_outstanding;
      Alcotest.(check bool) "live processes reported" true (r.R.dl_live > 0);
      Alcotest.(check bool)
        "dispatcher named with its stuck fetch" true
        (List.mem ("dispatcher-1", "fetch:x@v0->p1") r.R.dl_blocked);
      Alcotest.(check bool)
        "main named waiting on the task" true
        (List.mem ("main", "done:reader") r.R.dl_blocked);
      let rendered = R.deadlock_to_string r in
      Alcotest.(check bool)
        "report renders process and ivar names" true
        (let contains sub =
           let n = String.length rendered and m = String.length sub in
           let rec go i = i + m <= n && (String.sub rendered i m = sub || go (i + 1)) in
           go 0
         in
         contains "dispatcher-1 blocked on fetch:x@v0->p1"
         && contains "1 tasks outstanding")

let test_engine_blocked_report () =
  let module E = Jade_sim.Engine in
  let eng = E.create () in
  let iv = Jade_sim.Ivar.create ~name:"never-filled" () in
  E.spawn ~name:"stuck-reader" eng (fun () -> Jade_sim.Ivar.read eng iv);
  E.spawn eng (fun () -> E.delay eng 1.0);
  ignore (E.run eng);
  Alcotest.(check int) "one live process" 1 (E.live_processes eng);
  Alcotest.(check bool)
    "blocked report names process and ivar" true
    (E.blocked_report eng = [ ("stuck-reader", "never-filled") ])

(* ------------------------------------------------------------------ *)
(* Idempotency: duplicated replies after a superseding fetch *)

let test_dup_reply_after_supersede () =
  (* Drives the communicator directly so the interleaving is pinned:
     a fetch for x@v1 is superseded by x@v2; then the v1 reply arrives
     twice (duplication), then the v2 reply arrives twice. The waiter must
     wake exactly once and the installed copy version must never regress. *)
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
  (* Node 0 (the owner) swallows requests: replies are injected by hand. *)
  Jade_net.Fabric.set_handler fabric 0 (fun _ -> ());
  Jade_net.Fabric.set_handler fabric 1 (fun msg ->
      Jade.Communicator.handle comm msg);
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
  let resumed = ref 0 in
  E.spawn eng (fun () ->
      Jade.Communicator.ensure_local comm task1 ~proc:1;
      incr resumed);
  let reply version =
    (* Hand-built reply fed straight to the handler, no fabric
       delivery. *)
    Jade.Communicator.handle comm
      {
        Jade_net.Fabric.src = 0;
        dst = 1;
        size = meta.Jade.Meta.size;
        tag = Tag.Obj;
        body = Jade.Protocol.Obj { meta; version; sent_at = 0.0 };
      }
  in
  E.schedule_after eng 1e-6 (fun () ->
      (* Supersede the in-flight v1 fetch... *)
      Jade.Meta.commit_write meta ~proc:0 ~version:2;
      Jade.Communicator.prefetch comm task2 ~proc:1);
  (* ...then deliver the stale v1 reply twice (duplication), then the v2
     reply twice. Double-filling the ivar would raise Invalid_argument;
     regressing the copy would fail the final version check. *)
  E.schedule_after eng 2e-6 (fun () -> reply 1);
  E.schedule_after eng 2e-6 (fun () -> reply 1);
  E.schedule_after eng 3e-6 (fun () -> reply 2);
  E.schedule_after eng 3e-6 (fun () -> reply 2);
  ignore (E.run eng);
  Alcotest.(check int) "waiter woke exactly once" 1 !resumed;
  Alcotest.(check int) "no orphaned process" 0 (E.live_processes eng);
  Alcotest.(check int) "copy version did not regress" 2
    meta.Jade.Meta.copies.(1)

(* ------------------------------------------------------------------ *)
(* End-to-end duplication storm: every message duplicated, results exact *)

let test_full_duplication_storm () =
  let fault = F.spec ~seed:5 ~dup_rate:1.0 () in
  let prog1, res1 =
    Jade_apps.Ocean.make Jade_apps.Ocean.test_params
      ~kind:Jade_apps.App_common.Mp ~placed:true ~nprocs:4
  in
  let clean = R.run ~config:Jade.Config.default ~machine:R.ipsc860 ~nprocs:4 prog1 in
  let prog2, res2 =
    Jade_apps.Ocean.make Jade_apps.Ocean.test_params
      ~kind:Jade_apps.App_common.Mp ~placed:true ~nprocs:4
  in
  let chaos =
    R.run
      ~config:{ Jade.Config.default with Jade.Config.fault = Some fault }
      ~machine:R.ipsc860 ~nprocs:4 prog2
  in
  Alcotest.(check bool) "every faultable message duplicated" true
    (chaos.Jade.Metrics.duplicated_count > 0);
  Alcotest.(check bool) "results exact under duplication" true
    (res1 () = res2 ());
  Alcotest.(check int) "tasks agree" clean.Jade.Metrics.tasks
    chaos.Jade.Metrics.tasks

let () =
  Alcotest.run "chaos"
    [
      ( "plan",
        [
          Alcotest.test_case "pure and replayable" `Quick test_plan_pure;
          Alcotest.test_case "seed sensitivity" `Quick test_plan_seed_sensitivity;
          Alcotest.test_case "rates respected" `Quick test_plan_rates_respected;
          Alcotest.test_case "inactive plan is pass" `Quick
            test_inactive_plan_is_pass;
          Alcotest.test_case "scripted drop" `Quick test_scripted_drop;
          Alcotest.test_case "spec validation" `Quick test_spec_validation;
          Alcotest.test_case "plan printout" `Quick test_pp_spec;
        ] );
      ( "zero-rate",
        [
          Alcotest.test_case "run bit-identical to no plan" `Quick
            test_zero_rate_identical;
          Alcotest.test_case "figure byte-identical at any jobs" `Slow
            test_zero_rate_figure_identical_any_jobs;
          Alcotest.test_case "chaos figure identical at any jobs" `Slow
            test_chaos_figure_identical_any_jobs;
        ] );
      ( "apps",
        [
          Alcotest.test_case "water survives chaos" `Quick test_water_chaos;
          Alcotest.test_case "string survives chaos" `Quick test_string_chaos;
          Alcotest.test_case "ocean survives chaos" `Quick test_ocean_chaos;
          Alcotest.test_case "cholesky survives chaos" `Quick
            test_cholesky_chaos;
          Alcotest.test_case "chaos metrics flow" `Quick test_chaos_metrics_flow;
          Alcotest.test_case "duplication storm" `Quick
            test_full_duplication_storm;
        ] );
      ( "reliability",
        [
          Alcotest.test_case "lost reply retransmitted" `Quick
            test_lost_reply_retransmitted;
          Alcotest.test_case "dup reply after supersede" `Quick
            test_dup_reply_after_supersede;
          Alcotest.test_case "lost broadcast re-posted" `Quick
            (test_lost_push_retransmitted Tag.Bcast Jade.Config.default);
          Alcotest.test_case "lost eager update re-posted" `Quick
            (test_lost_push_retransmitted Tag.Eager eager_only);
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "deadlock report" `Quick
            test_lost_reply_deadlock_report;
          Alcotest.test_case "engine blocked report" `Quick
            test_engine_blocked_report;
        ] );
    ]
