open Jade_sim
open Jade_machines

(* A message is an immutable record built per send. Its delivery is an
   engine event that captures it, so a handler may keep it. *)
type 'a msg = { src : int; dst : int; size : int; tag : Tag.t; body : 'a }

type 'a t = {
  eng : Engine.t;
  nodes : Mnode.t array;
  topo : Topology.t;
  startup : float;
  bandwidth : float;
  hop_latency : float;
  bus : Mnode.t option;  (** shared medium all transfers serialize through *)
  fault : Fault.t option;  (** chaos plan for interrupt-context traffic *)
  handlers : ('a msg -> unit) option array;
  tag_counts : int array;  (** messages per tag, indexed by [Tag.index] *)
  tag_bytes : int array;  (** payload bytes per tag *)
  down : bool array;  (** crashed nodes: their NIC neither sends nor receives *)
  mutable any_down : bool;  (** fast guard so clean runs never scan [down] *)
  mutable in_flight : int;  (** built, and neither handled nor lost *)
  mutable peak : int;  (** largest [in_flight] so far *)
  mutable msgs : int;
  mutable bytes : int;
}

let create ?bus ?fault ?dummy:_ eng ~nodes ~topology ~startup ~bandwidth
    ~hop_latency =
  if Array.length nodes <> Topology.nodes topology then
    invalid_arg "Fabric.create: node/topology size mismatch";
  {
    eng;
    nodes;
    topo = topology;
    startup;
    bandwidth;
    hop_latency;
    bus;
    fault;
    handlers = Array.make (Array.length nodes) None;
    tag_counts = Array.make Tag.count 0;
    tag_bytes = Array.make Tag.count 0;
    down = Array.make (Array.length nodes) false;
    any_down = false;
    in_flight = 0;
    peak = 0;
    msgs = 0;
    bytes = 0;
  }

let set_handler t p f = t.handlers.(p) <- Some f

let send_occupancy t ~size = t.startup +. (float_of_int size /. t.bandwidth)

let record t msg =
  t.msgs <- t.msgs + 1;
  t.bytes <- t.bytes + msg.size;
  let i = Tag.index msg.tag in
  t.tag_counts.(i) <- t.tag_counts.(i) + 1;
  t.tag_bytes.(i) <- t.tag_bytes.(i) + msg.size

(* One more message in flight: each one built, and each duplicate the
   chaos plan makes. *)
let count_in t =
  t.in_flight <- t.in_flight + 1;
  if t.in_flight > t.peak then t.peak <- t.in_flight

let build t ~src ~dst ~size ~tag body =
  count_in t;
  { src; dst; size; tag; body }

let deliver t m =
  (match t.handlers.(m.dst) with
  | Some f -> f m
  | None ->
      invalid_arg
        (Printf.sprintf
           "Fabric: no handler on node %d (tag %S, src %d, %d bytes)" m.dst
           (Tag.to_string m.tag) m.src m.size));
  t.in_flight <- t.in_flight - 1

(* Crash-stop: a down node's NIC is dark — anything it would send or
   receive is silently lost at schedule time. Checked before recording so
   the per-tag ledgers only count messages that actually hit the wire. *)
let deliver_at t time m =
  if t.any_down && (t.down.(m.src) || t.down.(m.dst)) then
    t.in_flight <- t.in_flight - 1
  else begin
    record t m;
    Engine.schedule_at t.eng time (fun () -> deliver t m)
  end

(* Faultable delivery: interrupt-context traffic and broadcast copies go
   through the chaos plan (when one is installed). Dropped messages vanish
   without reaching the per-tag ledgers; a duplicate is the same message
   delivered — and counted — twice. *)
let deliver_at_faulted t time m =
  match t.fault with
  | None -> deliver_at t time m
  | Some _ when m.tag = Tag.Ping || m.tag = Tag.Pong ->
      (* Heartbeats bypass the message-level chaos plan: losing a probe to
         a random drop would turn suspicion into a false positive, and a
         heartbeat consuming fault indices would perturb the decisions every
         data message sees. Down-endpoint loss still applies in
         [deliver_at] — a dead node answers nothing. *)
      deliver_at t time m
  | Some f ->
      let d = Fault.next_decision f ~tag:m.tag in
      if d.Fault.drop then t.in_flight <- t.in_flight - 1
      else begin
        if d.Fault.duplicate then count_in t;
        deliver_at t (time +. d.Fault.delay) m;
        if d.Fault.duplicate then deliver_at t (time +. d.Fault.dup_delay) m
      end

let wire t ~src ~dst = float_of_int (Topology.hops t.topo src dst) *. t.hop_latency

(* On a shared medium the transfer additionally serializes through the
   bus; the returned time is when the medium has carried this message. *)
let bus_time t ~size ~earliest =
  match t.bus with
  | None -> earliest
  | Some bus ->
      let finish = Mnode.charge bus (float_of_int size /. t.bandwidth) in
      Float.max earliest finish

let send t ~src ~dst ~size ~tag body =
  let m = build t ~src ~dst ~size ~tag body in
  if src = dst then deliver_at t (Engine.now t.eng) m
  else begin
    Mnode.occupy t.nodes.(src) (send_occupancy t ~size);
    let earliest = Engine.now t.eng +. wire t ~src ~dst in
    deliver_at t (bus_time t ~size ~earliest) m
  end

let post t ~src ~dst ~size ~tag body =
  let m = build t ~src ~dst ~size ~tag body in
  if src = dst then deliver_at t (Engine.now t.eng) m
  else
    let done_at = Mnode.charge t.nodes.(src) (send_occupancy t ~size) in
    let earliest = done_at +. wire t ~src ~dst in
    deliver_at_faulted t (bus_time t ~size ~earliest) m

let broadcast t ~src ~size ~tag body =
  let n = Array.length t.nodes in
  if n > 1 then begin
    let rounds = Topology.broadcast_schedule t.topo ~root:src in
    let per_round = send_occupancy t ~size in
    let total_rounds = Topology.broadcast_rounds t.topo in
    ignore (Mnode.charge t.nodes.(src) (float_of_int total_rounds *. per_round));
    let base = Engine.now t.eng in
    for dst = 0 to n - 1 do
      if dst <> src then begin
        let r = float_of_int rounds.(dst) in
        let time = base +. (r *. (per_round +. t.hop_latency)) in
        deliver_at_faulted t
          (bus_time t ~size ~earliest:time)
          (build t ~src ~dst ~size ~tag body)
      end
    done
  end

let set_down t p =
  t.down.(p) <- true;
  t.any_down <- true

let clear_down t p =
  t.down.(p) <- false;
  t.any_down <- Array.exists Fun.id t.down

let is_down t p = t.down.(p)

let message_count t = t.msgs

let byte_count t = t.bytes

let bytes_with_tag t tag = t.tag_bytes.(Tag.index tag)

let count_with_tag t tag = t.tag_counts.(Tag.index tag)

let peak_in_flight t = t.peak
