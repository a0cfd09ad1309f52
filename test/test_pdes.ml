(* The PDES engine's contract: the conservative time-windowed, sharded
   engine is an *execution strategy*, never an observable — every run
   produces results bit-identical to the sequential oracle, at any shard
   and worker-domain count, clean or under chaos. Plus the conservative
   invariants themselves: no far event commits before its window's floor
   or at/after its window's end, and a cross-shard event violating the
   lookahead bound is rejected loudly. *)

module R = Jade.Runtime
module Engine = Jade_sim.Engine

let seq = Jade.Config.Seq

let pdes d = Jade.Config.Pdes { domains = d }

(* --- engine-level micro checks ------------------------------------- *)

(* Deterministic cross-engine order: the same 8-process storm of delays
   and cross-shard schedules must fire in exactly the same order on an
   8-shard engine as on the 1-shard engine (where the shard hints
   collapse to 0). *)
let order_storm ~shards =
  let eng =
    if shards = 1 then Engine.create ()
    else Engine.create ~shards ~lookahead:0.5 ()
  in
  let log = ref [] in
  let g = Jade_sim.Srandom.create 42 in
  for s = 0 to 7 do
    Engine.spawn ~shard:(s mod shards) eng (fun () ->
        for k = 0 to 40 do
          let d = 0.001 *. float_of_int (1 + Jade_sim.Srandom.int g 50) in
          Engine.delay eng d;
          log := (s, k, Engine.now eng) :: !log;
          (* cross-shard event at >= now + lookahead: always conservative *)
          if k mod 7 = 0 then begin
            let target = (s + 1) mod shards in
            let tag = (s * 1000) + k in
            Engine.schedule_at_shard eng ~shard:target
              (Engine.now eng +. 0.5)
              (fun () -> log := (tag, -1, Engine.now eng) :: !log)
          end
        done)
  done;
  ignore (Engine.run eng);
  List.rev !log

let test_order_parity () =
  (* Identical event order requires identical spawn shards; run the
     8-shard storm against a 1-shard engine executing the same program
     (shard hints collapse to 0 there). *)
  let a = order_storm ~shards:1 and b = order_storm ~shards:8 in
  Alcotest.(check int) "event count" (List.length a) (List.length b);
  Alcotest.(check bool) "same order" true (a = b)

let test_window_bounds () =
  let eng = Engine.create ~shards:4 ~lookahead:1.0 () in
  for s = 0 to 3 do
    Engine.spawn ~shard:s eng (fun () ->
        for _ = 0 to 30 do
          Engine.delay eng 0.3;
          (* remote "send": lands one lookahead away, on the next shard *)
          Engine.schedule_at_shard eng ~shard:((s + 1) mod 4)
            (Engine.now eng +. 1.0)
            (fun () -> ())
        done)
  done;
  ignore (Engine.run eng);
  let w = Engine.window_stats eng in
  Alcotest.(check int) "shards" 4 w.Engine.ws_shards;
  Alcotest.(check bool) "windows opened" true (w.Engine.ws_windows > 0);
  Alcotest.(check bool)
    "no commit before the window floor"
    true
    (w.Engine.ws_min_floor_margin >= 0.0);
  Alcotest.(check bool)
    "no commit at or past the window end"
    true
    (w.Engine.ws_min_end_margin > 0.0)

let test_lookahead_violation () =
  let eng = Engine.create ~shards:2 ~lookahead:1.0 () in
  Engine.spawn ~shard:0 eng (fun () ->
      (* the delay's expiry opens a window [2, 3); half a lookahead is
         inside it — the conservative contract must reject the send *)
      Engine.delay eng 2.0;
      Engine.schedule_at_shard eng ~shard:1
        (Engine.now eng +. 0.5)
        (fun () -> ()));
  match Engine.run eng with
  | _ -> Alcotest.fail "expected a lookahead violation"
  | exception Invalid_argument msg ->
      let prefix = "Engine.schedule_at_shard: lookahead violation" in
      Alcotest.(check bool)
        "names the violation" true
        (String.length msg >= String.length prefix
        && String.sub msg 0 (String.length prefix) = prefix)

let test_same_shard_inserts_ok () =
  (* Same-shard events below the window end are legal (they ride the
     merged staging/calendar heads); only cross-shard ones are bounded. *)
  let eng = Engine.create ~shards:2 ~lookahead:1.0 () in
  let fired = ref 0 in
  Engine.spawn ~shard:0 eng (fun () ->
      Engine.delay eng 2.0;
      Engine.schedule_at_shard eng ~shard:0
        (Engine.now eng +. 0.25)
        (fun () -> incr fired);
      Engine.delay eng 0.5;
      incr fired);
  ignore (Engine.run eng);
  Alcotest.(check int) "both fired" 2 !fired

(* --- random Jade programs: seq vs pdes ----------------------------- *)

type op = {
  op_id : int;
  reads : int list;
  writes : int list;
  updates : int list;
  placement : int option;
}

type prog = { nobjs : int; ops : op list }

let gen_prog g ~nprocs =
  let nobjs = 2 + Jade_sim.Srandom.int g 5 in
  let nops = 3 + Jade_sim.Srandom.int g 25 in
  let ops =
    List.init nops (fun op_id ->
        let order = Array.init nobjs Fun.id in
        Jade_sim.Srandom.shuffle g order;
        let count = 1 + Jade_sim.Srandom.int g (min 3 nobjs) in
        let reads = ref [] and writes = ref [] and updates = ref [] in
        for k = 0 to count - 1 do
          match Jade_sim.Srandom.int g 3 with
          | 0 -> reads := order.(k) :: !reads
          | 1 -> writes := order.(k) :: !writes
          | _ -> updates := order.(k) :: !updates
        done;
        let placement =
          if Jade_sim.Srandom.int g 5 = 0 then
            Some (Jade_sim.Srandom.int g nprocs)
          else None
        in
        { op_id; reads = !reads; writes = !writes; updates = !updates;
          placement })
  in
  { nobjs; ops }

let apply_op op (arrays : float array array) =
  let sum =
    List.fold_left
      (fun acc i -> acc +. arrays.(i).(0))
      0.0 (op.reads @ op.updates)
  in
  let v = (sum *. 1.000731) +. float_of_int ((op.op_id * 37) + 11) in
  List.iter
    (fun i ->
      arrays.(i).(0) <- v +. float_of_int i;
      arrays.(i).(1) <- arrays.(i).(1) +. 1.0)
    (op.writes @ op.updates)

let jade_program prog ~nprocs rt =
  let objs =
    Array.init prog.nobjs (fun i ->
        R.create_object rt ~home:(i mod nprocs)
          ~name:(Printf.sprintf "obj%d" i)
          ~size:(64 * (i + 1))
          [| float_of_int i; 0.0 |])
  in
  List.iter
    (fun op ->
      let placement =
        match op.placement with Some p when p < nprocs -> Some p | _ -> None
      in
      R.withonly rt ?placement
        ~name:(Printf.sprintf "op%d" op.op_id)
        ~work:(float_of_int (100 + (op.op_id * 13 mod 500)))
        ~accesses:(fun s ->
          List.iter (fun i -> Jade.Spec.rd s objs.(i)) op.reads;
          List.iter (fun i -> Jade.Spec.wr s objs.(i)) op.writes;
          List.iter (fun i -> Jade.Spec.rw s objs.(i)) op.updates)
        (fun env ->
          let arrays =
            Array.init prog.nobjs (fun i ->
                if List.mem i op.reads then R.rd env objs.(i)
                else if List.mem i (op.writes @ op.updates) then
                  R.wr env objs.(i)
                else [| 0.0; 0.0 |])
          in
          apply_op op arrays))
    prog.ops;
  R.drain rt;
  Array.map Jade.Shared.data objs

let run_one prog ~machine ~nprocs ~config =
  let result = ref [||] in
  let s =
    R.run ~config ~machine ~nprocs (fun rt ->
        result := jade_program prog ~nprocs rt)
  in
  (s, !result)

let equal_states a b =
  Array.for_all2
    (fun (x : float array) (y : float array) -> x.(0) = y.(0) && x.(1) = y.(1))
    a b

(* Full-summary equality: every metric — elapsed virtual time, message
   and event counts, latencies — must be bit-identical, not just the
   final memory state. *)
let check_engines_agree ?fault prog ~machine ~nprocs ~domains =
  let base =
    match fault with
    | None -> Jade.Config.default
    | Some f -> { Jade.Config.default with Jade.Config.fault = Some f }
  in
  let s0, r0 = run_one prog ~machine ~nprocs ~config:{ base with engine = seq } in
  let s1, r1 =
    run_one prog ~machine ~nprocs ~config:{ base with engine = pdes domains }
  in
  s0 = s1 && equal_states r0 r1

let parity_prop machine mname =
  QCheck.Test.make
    ~name:(Printf.sprintf "pdes = seq on random programs (%s)" mname)
    ~count:30 QCheck.small_int
    (fun seed ->
      let g = Jade_sim.Srandom.create seed in
      let nprocs = 1 + Jade_sim.Srandom.int g 8 in
      let prog = gen_prog g ~nprocs in
      let domains = 1 + Jade_sim.Srandom.int g 3 in
      let fault =
        if Jade_sim.Srandom.int g 3 = 0 then
          Some
            (Jade_net.Fault.spec ~seed:(1 + Jade_sim.Srandom.int g 5)
               ~drop_rate:0.15 ~dup_rate:0.1 ~jitter:1e-4 ())
        else None
      in
      check_engines_agree ?fault prog ~machine ~nprocs ~domains)

let test_fixed_sweep () =
  let g = Jade_sim.Srandom.create 2026 in
  let prog = gen_prog g ~nprocs:8 in
  List.iter
    (fun (mname, machine) ->
      List.iter
        (fun nprocs ->
          List.iter
            (fun domains ->
              Alcotest.(check bool)
                (Printf.sprintf "%s p=%d domains=%d" mname nprocs domains)
                true
                (check_engines_agree prog ~machine ~nprocs ~domains))
            [ 1; 4 ])
        [ 1; 2; 4; 8 ])
    [ ("dash", R.dash); ("ipsc", R.ipsc860); ("lan", R.lan) ]

let test_chaos_sweep () =
  let g = Jade_sim.Srandom.create 7 in
  let prog = gen_prog g ~nprocs:8 in
  let fault =
    Jade_net.Fault.spec ~seed:3 ~drop_rate:0.2 ~dup_rate:0.1 ~jitter:1e-4 ()
  in
  List.iter
    (fun (mname, machine) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s chaos" mname)
        true
        (check_engines_agree ~fault prog ~machine ~nprocs:8 ~domains:4))
    [ ("ipsc", R.ipsc860); ("lan", R.lan) ]

(* Beyond-paper scale: the engines must agree at 256 simulated
   processors too (most stay idle — the point is the machinery, not the
   load balance). *)
let test_256_procs () =
  let g = Jade_sim.Srandom.create 512 in
  let prog = gen_prog g ~nprocs:256 in
  List.iter
    (fun (mname, machine) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s p=256" mname)
        true
        (check_engines_agree prog ~machine ~nprocs:256 ~domains:2))
    [ ("dash", R.dash); ("ipsc", R.ipsc860) ]

let test_crash_parity () =
  let g = Jade_sim.Srandom.create 11 in
  let prog = gen_prog g ~nprocs:4 in
  let fault = Jade_net.Fault.spec ~crash_at:[ (2, 0.01) ] () in
  List.iter
    (fun (mname, machine) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s crash" mname)
        true
        (check_engines_agree ~fault prog ~machine ~nprocs:4 ~domains:4))
    [ ("dash", R.dash); ("ipsc", R.ipsc860); ("lan", R.lan) ]

(* --- worker team ----------------------------------------------------- *)

(* Regression for a lost wakeup in [Team.parallel_for]: a worker still
   leaving one batch's claim loop could claim and complete item 0 of the
   next batch before the coordinator reset the completion count, which
   then never reached n and the coordinator slept forever. Back-to-back
   tiny batches on a 2-worker team hit that window within a few thousand
   batches; the batches run on their own domain so a hang fails the test
   at the deadline instead of stalling the suite. *)
let test_team_back_to_back () =
  let batches = 20_000 and n = 3 in
  let finished = Atomic.make false in
  let runner =
    Domain.spawn (fun () ->
        let team = Jade_sim.Team.create ~workers:2 in
        let sum = Atomic.make 0 in
        for _ = 1 to batches do
          Jade_sim.Team.parallel_for team ~n (fun i ->
              ignore (Atomic.fetch_and_add sum (i + 1)))
        done;
        Jade_sim.Team.shutdown team;
        Atomic.set finished true;
        Atomic.get sum)
  in
  let deadline = Unix.gettimeofday () +. 60.0 in
  while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  if not (Atomic.get finished) then
    Alcotest.failf "parallel_for hung: %d back-to-back batches did not finish in 60 s"
      batches;
  Alcotest.(check int) "every item ran exactly once" (batches * n * (n + 1) / 2)
    (Domain.join runner)

let qcheck t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "pdes"
    [
      ( "engine",
        [
          Alcotest.test_case "cross-shard order parity" `Quick
            test_order_parity;
          Alcotest.test_case "window bounds hold" `Quick test_window_bounds;
          Alcotest.test_case "lookahead violation raises" `Quick
            test_lookahead_violation;
          Alcotest.test_case "same-shard inserts below horizon" `Quick
            test_same_shard_inserts_ok;
          Alcotest.test_case "team survives back-to-back batches" `Quick
            test_team_back_to_back;
        ] );
      ( "runtime parity",
        [
          qcheck (parity_prop R.dash "DASH");
          qcheck (parity_prop R.ipsc860 "iPSC/860");
          qcheck (parity_prop R.lan "workstation LAN");
          Alcotest.test_case "fixed sweep" `Quick test_fixed_sweep;
          Alcotest.test_case "chaos sweep" `Quick test_chaos_sweep;
          Alcotest.test_case "256 processors" `Quick test_256_procs;
          Alcotest.test_case "crash recovery parity" `Quick test_crash_parity;
        ] );
    ]
