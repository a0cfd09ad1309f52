(* Allocation-regression gate for the event-engine hot path.

   The flat-descriptor far lane and the pooled message path keep the
   steady-state simulation's allocation per event small: a timed
   schedule packs one immediate int word and a delivery resolves a
   pooled cell by registry slot. Suspensions pay a few small blocks
   each: the handler closure, the resume closure that owns its
   continuation (so a stale resume raises instead of reaching a later
   wait), and a now-lane thunk per value-carrying wakeup. A change that
   quietly adds to any of those — a closure on the timed-scheduling
   path, a tuple on the wakeup path, a boxed float sneaking into a mixed
   record — multiplies the minor-word rate and shows up here long before
   it shows up as wall-clock time.

   Three gates, each asserting minor words per event under a named
   ceiling measured with [Gc.minor_words] deltas after a warm-up run:

   - the bare engine driving self-rescheduling flat ops: the pure
     descriptor path, once with a single chain (the far lane never holds
     more than one event) and once with 256 chains at spread delays (the
     shape of the benchmark's engine probe), so the heap's sift-up and
     sift-down paths run on every event. Both measure ~8 words/event,
     all of it float boxing across non-inlined module boundaries (this
     switch has no flambda: [now], [+.], the heap's time parameter each
     box a float). The ceiling admits that but not one more per-event
     allocation — a single added float box (2-3 words) or closure (4-5)
     fails it;
   - the full simulator on repeated Water / iPSC-860 / 8-processor runs
     at test scale: fabric delivery, protocol and scheduler riding on
     top. Each run is only ~900 events, so per-run setup (program
     construction, engine and backend creation) is a big share of the
     ~68 words/event measured; the ceiling is a regression backstop,
     not a hot-path bound — the bench's steady-state figure at regen
     scale is the precise one. *)

let engine_ceiling = 13.0
let sim_ceiling = 100.0

let check_per_event label ~ceiling ~events words =
  Alcotest.(check bool)
    (Printf.sprintf "%s: simulated enough (%d events)" label events)
    true (events > 50_000);
  let per_event = words /. float_of_int events in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.2f minor words/event <= %.1f (%d events)" label
       per_event ceiling events)
    true
    (per_event <= ceiling)

(* [chains] self-rescheduling flat events, [n] events in all. Each
   reschedules at a delay set by its operand, which it scrambles on the
   way, so the chains interleave and the far lane holds [chains] events
   throughout. *)
let flat_loop ~chains n =
  let eng = Jade_sim.Engine.create () in
  let fired = ref 0 in
  let op = ref (-1) in
  op :=
    Jade_sim.Engine.register_op eng (fun arg ->
        incr fired;
        if !fired <= n - chains then
          Jade_sim.Engine.schedule_op_at eng ~op:!op
            ~arg:(((arg * 7) + 3) land 1023)
            (Jade_sim.Engine.now eng +. (1e-6 *. float_of_int (1 + arg))));
  for i = 0 to chains - 1 do
    Jade_sim.Engine.schedule_op_at eng ~op:!op ~arg:i
      (1e-6 *. float_of_int (1 + i))
  done;
  Jade_sim.Engine.run eng

let test_engine_flat_path ~chains () =
  ignore (flat_loop ~chains 1_000);
  let n = 200_000 in
  let minor0 = Gc.minor_words () in
  let events = flat_loop ~chains n in
  let words = Gc.minor_words () -. minor0 in
  check_per_event
    (Printf.sprintf "flat op loop, %d chains" chains)
    ~ceiling:engine_ceiling ~events words

let water_run () =
  let prog, _ =
    Jade_apps.Water.make Jade_apps.Water.test_params
      ~kind:Jade_apps.App_common.Mp ~placed:false ~nprocs:8
  in
  let s = Jade.Runtime.run ~machine:Jade.Runtime.ipsc860 ~nprocs:8 prog in
  s.Jade.Metrics.event_count

let test_sim_path () =
  ignore (water_run ());
  let rounds = 80 in
  let minor0 = Gc.minor_words () in
  let events = ref 0 in
  for _ = 1 to rounds do
    events := !events + water_run ()
  done;
  let words = Gc.minor_words () -. minor0 in
  check_per_event "water sim batch" ~ceiling:sim_ceiling ~events:!events words

let () =
  Alcotest.run "alloc"
    [
      ( "engine hot path",
        [
          Alcotest.test_case "flat descriptor loop stays allocation-free"
            `Quick (test_engine_flat_path ~chains:1);
          Alcotest.test_case
            "flat descriptor loop with a populated far lane stays \
             allocation-free"
            `Quick (test_engine_flat_path ~chains:256);
          Alcotest.test_case "full simulator stays under ceiling" `Quick
            test_sim_path;
        ] );
    ]
