(* The central correctness property of the whole system: for RANDOM Jade
   programs, parallel execution on either simulated machine under ANY
   optimization configuration produces exactly the result of executing the
   tasks serially in creation order.

   A random program is a set of shared float-array objects plus a list of
   tasks with random access specifications. Each task body reads its
   declared read-objects, then writes a deterministic function of what it
   read into its declared write-objects — so any violation of the
   dependence order changes the final state. A task that releases objects
   early is a [withonly_staged] task; every other task is a [withonly]
   kernel, so programs mix both kinds of body. *)

module R = Jade.Runtime

type op = {
  op_id : int;
  reads : int list;  (** object indices declared rd *)
  writes : int list;  (** object indices declared wr *)
  updates : int list;  (** object indices declared rw *)
  placement : int option;
  early_release : int list;
      (** subset of the declared objects released mid-body, right after the
          computation touched them — exercises the advanced §2 statements
          inside the serial-equivalence property *)
}

type prog = { nobjs : int; ops : op list }

let gen_prog g ~nprocs =
  let nobjs = 2 + Jade_sim.Srandom.int g 5 in
  let nops = 3 + Jade_sim.Srandom.int g 30 in
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
        let declared = !reads @ !writes @ !updates in
        let early_release =
          List.filter (fun _ -> Jade_sim.Srandom.int g 4 = 0) declared
        in
        { op_id; reads = !reads; writes = !writes; updates = !updates;
          placement; early_release })
  in
  { nobjs; ops }

(* The deterministic task computation over plain arrays. *)
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

let serial_result prog =
  let arrays = Array.init prog.nobjs (fun i -> [| float_of_int i; 0.0 |]) in
  List.iter (fun op -> apply_op op arrays) prog.ops;
  arrays

let jade_program prog ~nprocs rt =
  let objs =
    Array.init prog.nobjs (fun i ->
        R.create_object rt
          ~home:(i mod nprocs)
          ~name:(Printf.sprintf "obj%d" i)
          ~size:(64 * (i + 1))
          [| float_of_int i; 0.0 |])
  in
  List.iter
    (fun op ->
      let placement =
        match op.placement with Some p when p < nprocs -> Some p | _ -> None
      in
      let name = Printf.sprintf "op%d" op.op_id
      and work = float_of_int (100 + (op.op_id * 13 mod 500))
      and accesses s =
        List.iter (fun i -> Jade.Spec.rd s objs.(i)) op.reads;
        List.iter (fun i -> Jade.Spec.wr s objs.(i)) op.writes;
        List.iter (fun i -> Jade.Spec.rw s objs.(i)) op.updates
      in
      (* Checked accessors: reads and writes both verify the spec. *)
      let compute env =
        apply_op op
          (Array.init prog.nobjs (fun i ->
               if List.mem i op.reads then R.rd env objs.(i)
               else if List.mem i (op.writes @ op.updates) then R.wr env objs.(i)
               else [| 0.0; 0.0 |]))
      in
      if op.early_release = [] then
        R.withonly rt ?placement ~name ~work ~accesses compute
      else
        R.withonly_staged rt ?placement ~name ~work ~accesses (fun env ->
            compute env;
            List.iter (fun i -> R.release env objs.(i)) op.early_release))
    prog.ops;
  R.drain rt;
  Array.map Jade.Shared.data objs

let configs =
  let d = Jade.Config.default in
  [
    d;
    { d with Jade.Config.locality = Jade.Config.No_locality };
    { d with Jade.Config.locality = Jade.Config.Task_placement };
    { d with Jade.Config.adaptive_broadcast = false };
    { d with Jade.Config.concurrent_fetch = false };
    { d with Jade.Config.target_tasks = 3 };
    { d with Jade.Config.replication = false };
    {
      d with
      Jade.Config.adaptive_broadcast = false;
      Jade.Config.concurrent_fetch = false;
      Jade.Config.target_tasks = 2;
    };
  ]

let equal_states a b =
  Array.for_all2
    (fun (x : float array) (y : float array) -> x.(0) = y.(0) && x.(1) = y.(1))
    a b

let run_one prog ~machine ~nprocs ~config =
  let result = ref [||] in
  ignore
    (R.run ~config ~machine ~nprocs (fun rt ->
         result := jade_program prog ~nprocs rt));
  !result

let serial_equivalence_prop machine name =
  QCheck.Test.make
    ~name:(Printf.sprintf "random programs match serial on %s" name)
    ~count:60 QCheck.small_int
    (fun seed ->
      let g = Jade_sim.Srandom.create seed in
      let nprocs = 1 + Jade_sim.Srandom.int g 8 in
      let prog = gen_prog g ~nprocs in
      let expected = serial_result prog in
      let config = List.nth configs (Jade_sim.Srandom.int g (List.length configs)) in
      let got = run_one prog ~machine ~nprocs ~config in
      equal_states expected got)

(* Exhaustive sweep of one fixed program across every configuration and a
   range of processor counts, on both machines. *)
let test_fixed_program_sweep () =
  let g = Jade_sim.Srandom.create 2024 in
  let prog = gen_prog g ~nprocs:8 in
  let expected = serial_result prog in
  List.iter
    (fun (mname, machine) ->
      List.iter
        (fun nprocs ->
          List.iteri
            (fun ci config ->
              let got = run_one prog ~machine ~nprocs ~config in
              Alcotest.(check bool)
                (Printf.sprintf "%s p=%d config=%d" mname nprocs ci)
                true
                (equal_states expected got))
            configs)
        [ 1; 2; 3; 7; 8 ])
    [ ("dash", R.dash); ("ipsc", R.ipsc860); ("lan", R.lan) ]

(* Determinism: the same program+config yields bit-identical metrics. *)
let test_simulation_deterministic () =
  let g = Jade_sim.Srandom.create 99 in
  let prog = gen_prog g ~nprocs:6 in
  let run () =
    let result = ref [||] in
    let s =
      R.run ~machine:R.ipsc860 ~nprocs:6 (fun rt ->
          result := jade_program prog ~nprocs:6 rt)
    in
    (s.Jade.Metrics.elapsed_s, s.Jade.Metrics.msg_count, !result)
  in
  let e1, m1, r1 = run () in
  let e2, m2, r2 = run () in
  Alcotest.(check (float 0.0)) "elapsed identical" e1 e2;
  Alcotest.(check int) "messages identical" m1 m2;
  Alcotest.(check bool) "state identical" true (equal_states r1 r2)

(* The same guarantee under the failure models and at scale: seeded
   message loss, duplication and jitter on the message-passing machines,
   a processor crash mid-run, and 256 simulated processors. *)

let chaos_config seed =
  {
    Jade.Config.default with
    Jade.Config.fault =
      Some
        (Jade_net.Fault.spec ~seed ~drop_rate:0.15 ~dup_rate:0.1 ~jitter:1e-4
           ());
  }

let run_summary prog ~machine ~nprocs ~config =
  let result = ref [||] in
  let s =
    R.run ~config ~machine ~nprocs (fun rt ->
        result := jade_program prog ~nprocs rt)
  in
  (s, !result)

let chaos_equivalence_prop machine name =
  QCheck.Test.make
    ~name:(Printf.sprintf "random programs under chaos match serial on %s" name)
    ~count:30 QCheck.small_int
    (fun seed ->
      let g = Jade_sim.Srandom.create seed in
      let nprocs = 1 + Jade_sim.Srandom.int g 8 in
      let prog = gen_prog g ~nprocs in
      let config = chaos_config (1 + Jade_sim.Srandom.int g 5) in
      equal_states (serial_result prog) (run_one prog ~machine ~nprocs ~config))

(* Message chaos and a crash in the same run: one non-root processor
   crashes early while messages are dropped, duplicated and delayed. The
   retransmit machinery and the recovery supervisor must compose, and the
   final state still matches serial execution. *)
let crash_chaos_prop machine name =
  QCheck.Test.make
    ~name:
      (Printf.sprintf
         "random programs under chaos and a crash match serial on %s" name)
    ~count:30 QCheck.small_int
    (fun seed ->
      let g = Jade_sim.Srandom.create seed in
      let nprocs = 2 + Jade_sim.Srandom.int g 7 in
      let prog = gen_prog g ~nprocs in
      let base =
        List.nth configs (Jade_sim.Srandom.int g (List.length configs))
      in
      let victim = 1 + Jade_sim.Srandom.int g (nprocs - 1) in
      let fault =
        Jade_net.Fault.spec
          ~seed:(1 + Jade_sim.Srandom.int g 5)
          ~drop_rate:0.15 ~dup_rate:0.1 ~jitter:1e-4
          ~crash_at:[ (victim, Jade_sim.Srandom.float g 0.01) ]
          ()
      in
      let config =
        {
          base with
          Jade.Config.eager_transfer = Jade_sim.Srandom.int g 3 = 0;
          fault = Some fault;
        }
      in
      equal_states (serial_result prog) (run_one prog ~machine ~nprocs ~config))

(* A chaos run is a function of the program and the fault seed alone:
   two runs agree on every metric, and the plan really dropped
   messages. *)
let test_chaos_deterministic () =
  let g = Jade_sim.Srandom.create 7 in
  let prog = gen_prog g ~nprocs:8 in
  let expected = serial_result prog in
  let config = chaos_config 3 in
  List.iter
    (fun (mname, machine) ->
      let s1, r1 = run_summary prog ~machine ~nprocs:8 ~config in
      let s2, r2 = run_summary prog ~machine ~nprocs:8 ~config in
      Alcotest.(check bool) (mname ^ ": summaries identical") true (s1 = s2);
      Alcotest.(check bool) (mname ^ ": states identical") true
        (equal_states r1 r2);
      Alcotest.(check bool) (mname ^ ": matches serial") true
        (equal_states expected r1);
      Alcotest.(check bool) (mname ^ ": messages dropped") true
        (s1.Jade.Metrics.dropped_count > 0))
    [ ("ipsc", R.ipsc860); ("lan", R.lan) ]

(* A single non-root crash mid-run: recovery re-executes what the crash
   lost and the final state still matches serial execution. *)
let test_crash_matches_serial () =
  let g = Jade_sim.Srandom.create 11 in
  let prog = gen_prog g ~nprocs:4 in
  let expected = serial_result prog in
  let config =
    {
      Jade.Config.default with
      Jade.Config.fault = Some (Jade_net.Fault.spec ~crash_at:[ (2, 0.0001) ] ());
    }
  in
  List.iter
    (fun (mname, machine) ->
      let s, got = run_summary prog ~machine ~nprocs:4 ~config in
      Alcotest.(check int) (mname ^ ": one crash injected") 1
        s.Jade.Metrics.crash_injected_count;
      Alcotest.(check bool) (mname ^ ": matches serial") true
        (equal_states expected got))
    [ ("dash", R.dash); ("ipsc", R.ipsc860); ("lan", R.lan) ]

(* Beyond-paper scale: 256 simulated processors (most stay idle; the
   point is the machinery, not the load balance). *)
let test_256_procs () =
  let g = Jade_sim.Srandom.create 512 in
  let prog = gen_prog g ~nprocs:256 in
  let expected = serial_result prog in
  List.iter
    (fun (mname, machine) ->
      Alcotest.(check bool) (mname ^ " p=256") true
        (equal_states expected
           (run_one prog ~machine ~nprocs:256 ~config:Jade.Config.default)))
    [ ("dash", R.dash); ("ipsc", R.ipsc860); ("lan", R.lan) ]

(* The kernel contract: a run that skips the [withonly] bodies computes
   the same summary as one that executes them — on every machine, under
   any configuration — and skips exactly the kernel tasks. *)
let machines = [ ("dash", R.dash); ("ipsc", R.ipsc860); ("lan", R.lan) ]

let kernels_skip_prop =
  QCheck.Test.make ~name:"skipping kernels preserves the summary" ~count:60
    QCheck.small_int (fun seed ->
      let g = Jade_sim.Srandom.create seed in
      let nprocs = 1 + Jade_sim.Srandom.int g 8 in
      let prog = gen_prog g ~nprocs in
      let config = List.nth configs (Jade_sim.Srandom.int g (List.length configs)) in
      let kernel_tasks =
        List.length (List.filter (fun op -> op.early_release = []) prog.ops)
      in
      List.for_all
        (fun (mname, machine) ->
          let run kernels =
            R.run_with ~kernels ~config ~machine ~nprocs
              (fun rt -> ignore (jade_program prog ~nprocs rt))
              ~inspect:(fun rt _ -> R.kernels_skipped rt)
          in
          let s_on, skipped_on = run true and s_off, skipped_off = run false in
          if s_on <> s_off then
            QCheck.Test.fail_reportf "%s: summaries differ" mname;
          if skipped_on <> 0 || skipped_off <> kernel_tasks then
            QCheck.Test.fail_reportf "%s: skipped %d/%d of %d kernel tasks"
              mname skipped_on skipped_off kernel_tasks;
          true)
        machines)

(* A kernel runs to completion without suspending, so it may not create
   tasks or objects: the runtime refuses, naming [withonly]. *)
let test_kernel_cannot_create () =
  let raises_naming_withonly create =
    match
      R.run ~machine:R.dash ~nprocs:2 (fun rt ->
          R.withonly rt ~wait:true ~name:"k" ~work:10.0 ~accesses:ignore
            (fun _ -> create rt))
    with
    | _ -> false
    | exception Invalid_argument msg ->
        let needle = "withonly" in
        let n = String.length needle in
        let rec has i =
          i + n <= String.length msg && (String.sub msg i n = needle || has (i + 1))
        in
        has 0
  in
  Alcotest.(check bool) "withonly from a kernel" true
    (raises_naming_withonly (fun rt ->
         R.withonly rt ~name:"inner" ~work:1.0 ~accesses:ignore ignore));
  Alcotest.(check bool) "create_object from a kernel" true
    (raises_naming_withonly (fun rt ->
         ignore (R.create_object rt ~name:"o" ~size:8 0)))

(* A staged body may create tasks, and runs whether kernels do or not:
   here it spawns a kernel that writes what the staged task read. *)
let test_staged_creates_task () =
  let program rt =
    let a = R.create_object rt ~name:"a" ~size:64 [| 1.0 |] in
    let b = R.create_object rt ~name:"b" ~size:64 [| 0.0 |] in
    R.withonly_staged rt ~name:"spawner" ~work:500.0
      ~accesses:(fun s -> Jade.Spec.rd s a)
      (fun env ->
        let v = (R.rd env a).(0) in
        R.work env 100.0;
        R.withonly rt ~name:"child" ~work:300.0
          ~accesses:(fun s -> Jade.Spec.wr s b)
          (fun env -> (R.wr env b).(0) <- v +. 1.0));
    R.drain rt
  in
  List.iter
    (fun (mname, machine) ->
      let run kernels =
        R.run_with ~kernels ~machine ~nprocs:3 program
          ~inspect:(fun rt _ -> R.kernels_skipped rt)
      in
      let s_on, skipped_on = run true and s_off, skipped_off = run false in
      Alcotest.(check bool) (mname ^ ": same summary") true (s_on = s_off);
      Alcotest.(check int) (mname ^ ": two tasks") 2 s_on.Jade.Metrics.tasks;
      Alcotest.(check (pair int int)) (mname ^ ": child kernel skipped once")
        (0, 1) (skipped_on, skipped_off))
    machines

let qcheck t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "random_programs"
    [
      ( "serial equivalence",
        [
          qcheck (serial_equivalence_prop Jade.Runtime.dash "DASH");
          qcheck (serial_equivalence_prop Jade.Runtime.ipsc860 "iPSC/860");
          qcheck (serial_equivalence_prop Jade.Runtime.lan "workstation LAN");
          Alcotest.test_case "fixed program sweep" `Quick test_fixed_program_sweep;
          Alcotest.test_case "determinism" `Quick test_simulation_deterministic;
        ] );
      ( "faults and scale",
        [
          qcheck (chaos_equivalence_prop Jade.Runtime.ipsc860 "iPSC/860");
          qcheck (chaos_equivalence_prop Jade.Runtime.lan "workstation LAN");
          qcheck (crash_chaos_prop Jade.Runtime.dash "DASH");
          qcheck (crash_chaos_prop Jade.Runtime.ipsc860 "iPSC/860");
          qcheck (crash_chaos_prop Jade.Runtime.lan "workstation LAN");
          Alcotest.test_case "chaos determinism" `Quick test_chaos_deterministic;
          Alcotest.test_case "crash matches serial" `Quick
            test_crash_matches_serial;
          Alcotest.test_case "256 processors" `Quick test_256_procs;
        ] );
      ( "kernel contract",
        [
          qcheck kernels_skip_prop;
          Alcotest.test_case "kernels cannot create" `Quick
            test_kernel_cannot_create;
          Alcotest.test_case "staged body creates a task" `Quick
            test_staged_creates_task;
        ] );
    ]
