(* Tests of the workstation-LAN machine model: shared-bus serialization,
   correctness of Jade programs on the third platform, and its qualitative
   character (communication-bound relative to the iPSC/860). *)

open Jade_sim
open Jade_net
open Jade_machines
module R = Jade.Runtime

(* ---------------- Shared bus at the fabric level ---------------- *)

let make_lan_fabric eng n =
  let nodes = Array.init n (Mnode.create eng) in
  let bus = Mnode.create eng (-1) in
  let fab =
    Fabric.create ~bus eng ~nodes ~topology:(Topology.hypercube n)
      ~startup:1e-3 ~bandwidth:1e6 ~hop_latency:1e-4
  in
  (nodes, fab)

let test_bus_serializes_disjoint_transfers () =
  (* Two transfers between disjoint node pairs: on independent links they
     would overlap; on the shared bus the second finishes a full transfer
     time later. *)
  let eng = Engine.create () in
  let _nodes, fab = make_lan_fabric eng 4 in
  let arrivals = Hashtbl.create 4 in
  for p = 0 to 3 do
    Fabric.set_handler fab p (fun m ->
        Hashtbl.replace arrivals m.Fabric.tag (Engine.now eng))
  done;
  Engine.spawn eng (fun () ->
      Fabric.post fab ~src:0 ~dst:1 ~size:100000 ~tag:Tag.Request ();
      Fabric.post fab ~src:2 ~dst:3 ~size:100000 ~tag:Tag.Obj ());
  ignore (Engine.run eng);
  let a = Hashtbl.find arrivals Tag.Request
  and b = Hashtbl.find arrivals Tag.Obj in
  (* 100 KB at 1 MB/s = 0.1 s on the bus; the second transfer waits. *)
  Alcotest.(check bool)
    (Printf.sprintf "bus serialized (%.4f then %.4f)" a b)
    true
    (b -. a > 0.09)

let test_no_bus_transfers_overlap () =
  let eng = Engine.create () in
  let nodes = Array.init 4 (Mnode.create eng) in
  let fab =
    Fabric.create eng ~nodes ~topology:(Topology.hypercube 4) ~startup:1e-3
      ~bandwidth:1e6 ~hop_latency:1e-4
  in
  let arrivals = Hashtbl.create 4 in
  for p = 0 to 3 do
    Fabric.set_handler fab p (fun m ->
        Hashtbl.replace arrivals m.Fabric.tag (Engine.now eng))
  done;
  Engine.spawn eng (fun () ->
      Fabric.post fab ~src:0 ~dst:1 ~size:100000 ~tag:Tag.Request ();
      Fabric.post fab ~src:2 ~dst:3 ~size:100000 ~tag:Tag.Obj ());
  ignore (Engine.run eng);
  let a = Hashtbl.find arrivals Tag.Request
  and b = Hashtbl.find arrivals Tag.Obj in
  Alcotest.(check bool) "independent links overlap" true
    (Float.abs (b -. a) < 0.01)

(* ---------------- Whole-runtime behaviour ---------------- *)

let sum_program expected_ref rt =
  let nprocs = R.nprocs rt in
  let input = R.create_object rt ~name:"in" ~size:8192 (Array.init 1024 float_of_int) in
  let cells =
    Array.init 8 (fun i ->
        R.create_object rt ~home:(i mod nprocs)
          ~name:(Printf.sprintf "c%d" i)
          ~size:8 (Array.make 1 0.0))
  in
  for i = 0 to 7 do
    R.withonly rt
      ~name:(Printf.sprintf "part%d" i)
      ~work:5000.0
      ~accesses:(fun s ->
        Jade.Spec.wr s cells.(i);
        Jade.Spec.rd s input)
      (fun env ->
        let inp = R.rd env input and c = R.wr env cells.(i) in
        let acc = ref 0.0 in
        for k = i * 128 to (i * 128) + 127 do
          acc := !acc +. inp.(k)
        done;
        c.(0) <- !acc)
  done;
  R.withonly rt ~name:"sum" ~wait:true ~work:100.0
    ~accesses:(fun s -> Array.iter (fun c -> Jade.Spec.rd s c) cells)
    (fun env ->
      expected_ref := Array.fold_left (fun a c -> a +. (R.rd env c).(0)) 0.0 cells)

let test_lan_runs_correctly () =
  List.iter
    (fun nprocs ->
      let result = ref 0.0 in
      let s = R.run ~machine:R.lan ~nprocs (sum_program result) in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "sum at %d workstations" nprocs)
        (1023.0 *. 1024.0 /. 2.0)
        !result;
      Alcotest.(check bool) "progressed" true (s.Jade.Metrics.elapsed_s > 0.0))
    [ 1; 2; 4; 8 ]

let test_lan_more_comm_bound_than_ipsc () =
  (* Same program, same processor count: the LAN pays far more per byte
     moved relative to its compute rate. *)
  let run machine =
    let result = ref 0.0 in
    R.run ~machine ~nprocs:8 (sum_program result)
  in
  let ipsc = run R.ipsc860 and lan = run R.lan in
  Alcotest.(check bool)
    (Printf.sprintf "LAN slower despite faster nodes (%.4f vs %.4f)"
       lan.Jade.Metrics.elapsed_s ipsc.Jade.Metrics.elapsed_s)
    true
    (lan.Jade.Metrics.elapsed_s > ipsc.Jade.Metrics.elapsed_s)

let test_lan_optimizations_still_sound () =
  (* The full configuration sweep from the random-program suite, on one
     fixed program, must stay serially correct on the LAN too. *)
  let expected = 1023.0 *. 1024.0 /. 2.0 in
  List.iter
    (fun config ->
      let result = ref 0.0 in
      ignore (R.run ~config ~machine:R.lan ~nprocs:5 (sum_program result));
      Alcotest.(check (float 1e-9)) "correct under config" expected !result)
    [
      Jade.Config.default;
      { Jade.Config.default with Jade.Config.adaptive_broadcast = false };
      { Jade.Config.default with Jade.Config.concurrent_fetch = false };
      { Jade.Config.default with Jade.Config.eager_transfer = true };
      { Jade.Config.default with Jade.Config.target_tasks = 2 };
      { Jade.Config.default with Jade.Config.replication = false };
      { Jade.Config.default with Jade.Config.locality = Jade.Config.No_locality };
    ]

let test_apps_on_lan () =
  (* The paper's applications port unchanged to the third platform. *)
  let reference, _ = Jade_apps.Cholesky.serial Jade_apps.Cholesky.test_params in
  let program, result =
    Jade_apps.Cholesky.make Jade_apps.Cholesky.test_params
      ~kind:Jade_apps.App_common.Mp ~placed:false ~nprocs:4
  in
  ignore (R.run ~machine:R.lan ~nprocs:4 program);
  Alcotest.(check bool) "factor identical on LAN" true
    (Jade_sparse.Dense.max_diff (result ()).Jade_apps.Cholesky.l
       reference.Jade_apps.Cholesky.l
    < 1e-12)

let () =
  Alcotest.run "lan"
    [
      ( "bus",
        [
          Alcotest.test_case "serializes transfers" `Quick
            test_bus_serializes_disjoint_transfers;
          Alcotest.test_case "links overlap without bus" `Quick
            test_no_bus_transfers_overlap;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "correct results" `Quick test_lan_runs_correctly;
          Alcotest.test_case "comm-bound vs iPSC" `Quick
            test_lan_more_comm_bound_than_ipsc;
          Alcotest.test_case "config sweep" `Quick test_lan_optimizations_still_sound;
          Alcotest.test_case "cholesky ports" `Quick test_apps_on_lan;
        ] );
    ]
