(* Tests for the hypercube topology and the message fabric. *)

open Jade_sim
open Jade_net
open Jade_machines

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + (x land 1)) (x lsr 1) in
  go 0 x

let test_dimension () =
  List.iter
    (fun (n, d) ->
      Alcotest.(check int)
        (Printf.sprintf "dim of %d nodes" n)
        d
        (Topology.broadcast_rounds (Topology.hypercube n)))
    [ (1, 0); (2, 1); (3, 2); (4, 2); (8, 3); (24, 5); (32, 5) ]

let hops_prop =
  QCheck.Test.make ~name:"hops = Hamming distance" ~count:200
    QCheck.(triple (int_range 1 64) small_int small_int)
    (fun (n, a, b) ->
      let t = Topology.hypercube n in
      let a = a mod n and b = b mod n in
      Topology.hops t a b = popcount (a lxor b))

(* A partial cube embeds its [n] nodes in the enclosing cube without
   padding: ids at or past [n] are out of range, as is an empty cube. *)
let test_node_range () =
  let t = Topology.hypercube 6 in
  Alcotest.(check int) "nodes" 6 (Topology.nodes t);
  Alcotest.(check int) "farthest pair spans the enclosing cube" 3
    (Topology.hops t 2 5);
  List.iter
    (fun (a, b) ->
      Alcotest.check_raises
        (Printf.sprintf "hops %d %d" a b)
        (Invalid_argument "Topology: node out of range")
        (fun () -> ignore (Topology.hops t a b)))
    [ (6, 0); (0, 7); (-1, 2) ];
  Alcotest.check_raises "broadcast root"
    (Invalid_argument "Topology: node out of range") (fun () ->
      ignore (Topology.broadcast_schedule t ~root:6));
  Alcotest.check_raises "empty cube"
    (Invalid_argument "Topology.hypercube: need at least one node") (fun () ->
      ignore (Topology.hypercube 0))

let broadcast_schedule_prop =
  QCheck.Test.make ~name:"broadcast schedule doubles coverage per round"
    ~count:100
    QCheck.(pair (int_range 1 64) small_int)
    (fun (n, root) ->
      let t = Topology.hypercube n in
      let root = root mod n in
      let rounds = Topology.broadcast_schedule t ~root in
      let max_round = Array.fold_left max 0 rounds in
      rounds.(root) = 0
      && max_round <= Topology.broadcast_rounds t
      &&
      (* At most 2^(r-1) nodes are first reached in round r. *)
      let per_round = Array.make (max_round + 1) 0 in
      Array.iteri (fun p r -> if p <> root then per_round.(r) <- per_round.(r) + 1) rounds;
      let ok = ref true in
      for r = 1 to max_round do
        if per_round.(r) > 1 lsl (r - 1) then ok := false
      done;
      !ok)

(* ---------------- Fabric ---------------- *)

let make_fabric ?(n = 4) eng =
  let nodes = Array.init n (Mnode.create eng) in
  let fab =
    Fabric.create eng ~dummy:() ~nodes ~topology:(Topology.hypercube n) ~startup:1e-3
      ~bandwidth:1e6 ~hop_latency:1e-4
  in
  (nodes, fab)

let test_fabric_send_occupies_sender () =
  let eng = Engine.create () in
  let nodes, fab = make_fabric eng in
  let arrived = ref (-1.0) in
  Fabric.set_handler fab 1 (fun _ -> arrived := Engine.now eng);
  Engine.spawn eng (fun () ->
      Fabric.send fab ~src:0 ~dst:1 ~size:1000 ~tag:Tag.Request ();
      (* startup 1ms + 1000B/1MBps = 1ms -> sender occupied 2ms *)
      Alcotest.(check (float 1e-9)) "sender blocked" 2e-3 (Engine.now eng));
  ignore (Engine.run eng);
  (* Delivery after one hop of wire latency. *)
  Alcotest.(check (float 1e-9)) "delivery time" (2e-3 +. 1e-4) !arrived;
  Alcotest.(check (float 1e-9)) "node busy" 2e-3 (Mnode.busy_time nodes.(0))

let test_fabric_post_does_not_block () =
  let eng = Engine.create () in
  let _nodes, fab = make_fabric eng in
  let arrived = ref (-1.0) in
  Fabric.set_handler fab 2 (fun _ -> arrived := Engine.now eng);
  Engine.spawn eng (fun () ->
      Fabric.post fab ~src:0 ~dst:2 ~size:1000 ~tag:Tag.Request ();
      Alcotest.(check (float 0.0)) "caller not blocked" 0.0 (Engine.now eng));
  ignore (Engine.run eng);
  Alcotest.(check (float 1e-9)) "delivery after occupancy+wire" (2e-3 +. 1e-4)
    !arrived

let test_fabric_serial_sends_queue () =
  (* Two posts from the same node queue behind each other on the sender. *)
  let eng = Engine.create () in
  let _nodes, fab = make_fabric eng in
  let arrivals = ref [] in
  Fabric.set_handler fab 1 (fun m -> arrivals := (m.Fabric.tag, Engine.now eng) :: !arrivals);
  Engine.spawn eng (fun () ->
      Fabric.post fab ~src:0 ~dst:1 ~size:1000 ~tag:Tag.Request ();
      Fabric.post fab ~src:0 ~dst:1 ~size:1000 ~tag:Tag.Obj ());
  ignore (Engine.run eng);
  Alcotest.(check (list (pair string (float 1e-9))))
    "second message delayed by first's occupancy"
    [ ("request", 2.1e-3); ("object", 4.1e-3) ]
    (List.rev (List.map (fun (tg, at) -> (Tag.to_string tg, at)) !arrivals))

let test_fabric_self_send_immediate () =
  let eng = Engine.create () in
  let _nodes, fab = make_fabric eng in
  let got = ref false in
  Fabric.set_handler fab 0 (fun _ ->
      got := true;
      Alcotest.(check (float 0.0)) "no delay" 0.0 (Engine.now eng));
  Engine.spawn eng (fun () -> Fabric.send fab ~src:0 ~dst:0 ~size:500 ~tag:Tag.Request ());
  ignore (Engine.run eng);
  Alcotest.(check bool) "delivered" true !got

let test_fabric_broadcast_reaches_all () =
  let eng = Engine.create () in
  let _nodes, fab = make_fabric ~n:8 eng in
  let got = Array.make 8 (-1.0) in
  for p = 0 to 7 do
    Fabric.set_handler fab p (fun _ -> got.(p) <- Engine.now eng)
  done;
  Engine.spawn eng (fun () ->
      Fabric.broadcast fab ~src:3 ~size:1000 ~tag:Tag.Obj ());
  ignore (Engine.run eng);
  for p = 0 to 7 do
    if p <> 3 then
      Alcotest.(check bool) (Printf.sprintf "node %d reached" p) true (got.(p) > 0.0)
  done;
  Alcotest.(check (float 0.0)) "source not self-delivered" (-1.0) got.(3);
  (* Last delivery within rounds * (occupancy + hop). *)
  let max_t = Array.fold_left Float.max 0.0 got in
  Alcotest.(check bool) "bounded by binomial rounds" true
    (max_t <= 3.0 *. (2e-3 +. 1e-4) +. 1e-12)

let test_fabric_stats () =
  let eng = Engine.create () in
  let _nodes, fab = make_fabric eng in
  Fabric.set_handler fab 1 (fun _ -> ());
  Engine.spawn eng (fun () ->
      Fabric.send fab ~src:0 ~dst:1 ~size:100 ~tag:Tag.Request ();
      Fabric.send fab ~src:0 ~dst:1 ~size:200 ~tag:Tag.Obj ();
      Fabric.send fab ~src:0 ~dst:1 ~size:300 ~tag:Tag.Request ());
  ignore (Engine.run eng);
  Alcotest.(check int) "messages" 3 (Fabric.message_count fab);
  Alcotest.(check int) "bytes" 600 (Fabric.byte_count fab);
  Alcotest.(check int) "bytes x" 400 (Fabric.bytes_with_tag fab Tag.Request);
  Alcotest.(check int) "count x" 2 (Fabric.count_with_tag fab Tag.Request);
  Alcotest.(check int) "count absent" 0 (Fabric.count_with_tag fab Tag.Ack)

(* The fabric's cell pool: a message cell recycles the moment its delivery
   handler returns, and a fault-duplicated message rides a cell of its
   own, so delivering and recycling the original can never clobber the
   copy still in flight. Bodies are plain ints; -1 blanks recycled
   cells. *)
let make_pool_fabric ?fault eng n =
  let nodes = Array.init n (Mnode.create eng) in
  Fabric.create ?fault eng ~dummy:(-1) ~nodes ~topology:(Topology.hypercube n)
    ~startup:1e-5 ~bandwidth:1e8 ~hop_latency:1e-6

let test_pool_recycles_cells () =
  (* A 100-hop chain in which each delivery posts the next hop: the new
     hop takes a cell while the delivering one is still held, and the
     delivering one is recycled when its handler returns, so two cells
     serve the whole chain. *)
  let eng = Engine.create () in
  let fab = make_pool_fabric eng 2 in
  let got = ref [] in
  for p = 0 to 1 do
    Fabric.set_handler fab p (fun m ->
        let hop = m.Fabric.body in
        got := hop :: !got;
        if hop < 100 then
          Fabric.post fab ~src:p ~dst:(1 - p) ~size:8 ~tag:Tag.Obj (hop + 1))
  done;
  Engine.spawn eng (fun () ->
      Fabric.post fab ~src:0 ~dst:1 ~size:8 ~tag:Tag.Obj 1);
  ignore (Engine.run eng);
  Alcotest.(check (list int)) "every hop delivered"
    (List.init 100 (fun i -> 100 - i))
    !got;
  Alcotest.(check int) "two cells" 2 (Fabric.cell_count fab)

let test_duplicate_does_not_alias_recycled_original () =
  (* A plan that duplicates every message: the duplicate must deliver the
     original payload even though the original's cell was delivered,
     blanked and possibly reused by a later send before the duplicate
     fired. *)
  let spec = Fault.spec ~seed:5 ~dup_rate:1.0 ~jitter:1e-3 () in
  let eng = Engine.create () in
  let fab = make_pool_fabric ~fault:(Fault.create spec) eng 2 in
  let got = ref [] in
  Fabric.set_handler fab 1 (fun m -> got := m.Fabric.body :: !got);
  Engine.spawn eng (fun () ->
      for i = 1 to 5 do
        Fabric.post fab ~src:0 ~dst:1 ~size:8 ~tag:Tag.Obj i
      done);
  ignore (Engine.run eng);
  (* Every payload arrives exactly twice, never the dummy -1. *)
  Alcotest.(check (list int))
    "each payload twice, no aliasing"
    (List.concat_map (fun i -> [ i; i ]) [ 1; 2; 3; 4; 5 ])
    (List.sort compare !got)

let test_mnode_ledger () =
  let eng = Engine.create () in
  let node = Mnode.create eng 0 in
  Engine.spawn eng (fun () ->
      Mnode.occupy node 1.0;
      Alcotest.(check (float 1e-9)) "after occupy" 1.0 (Engine.now eng);
      let fin = Mnode.charge node 0.5 in
      Alcotest.(check (float 1e-9)) "charge appends" 1.5 fin;
      Mnode.occupy node 1.0;
      (* waits for the interrupt work then its own duration *)
      Alcotest.(check (float 1e-9)) "queued behind charge" 2.5 (Engine.now eng));
  ignore (Engine.run eng);
  Alcotest.(check (float 1e-9)) "busy total" 2.5 (Mnode.busy_time node)

let qcheck t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "jade_net"
    [
      ( "topology",
        [
          Alcotest.test_case "dimension" `Quick test_dimension;
          qcheck hops_prop;
          Alcotest.test_case "node range" `Quick test_node_range;
          qcheck broadcast_schedule_prop;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "send occupies sender" `Quick test_fabric_send_occupies_sender;
          Alcotest.test_case "post is asynchronous" `Quick test_fabric_post_does_not_block;
          Alcotest.test_case "sends serialize on sender" `Quick test_fabric_serial_sends_queue;
          Alcotest.test_case "self-send immediate" `Quick test_fabric_self_send_immediate;
          Alcotest.test_case "broadcast reaches all" `Quick test_fabric_broadcast_reaches_all;
          Alcotest.test_case "stats by tag" `Quick test_fabric_stats;
          Alcotest.test_case "cells recycle after delivery" `Quick
            test_pool_recycles_cells;
          Alcotest.test_case "fault duplicate survives original's recycling"
            `Quick test_duplicate_does_not_alias_recycled_original;
        ] );
      ("mnode", [ Alcotest.test_case "busy ledger" `Quick test_mnode_ledger ]);
    ]
