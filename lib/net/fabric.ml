open Jade_sim
open Jade_machines

(* Message cells are pooled: a send pops a cell from the free list, fills
   it, and schedules delivery as a flat engine event — the fabric's
   delivery opcode plus the cell's registry slot, one immediate int word.
   Delivery runs the destination handler and returns the cell to the
   pool, so the steady-state send–deliver round trip allocates neither
   the cell nor the event descriptor. Bodies are the client's values: the
   fabric never copies or recycles them. *)
type 'a msg = {
  mutable src : int;
  mutable dst : int;
  mutable size : int;
  mutable tag : Tag.t;
  mutable body : 'a;
  slot : int;
      (** index into the owning fabric's cell registry, carried as the
          operand of the delivery descriptor; -1 for standalone {!make}
          records that no fabric owns *)
}

type 'a t = {
  eng : Engine.t;
  nodes : Mnode.t array;
  topo : Topology.t;
  startup : float;
  bandwidth : float;
  hop_latency : float;
  bus : Mnode.t option;  (** shared medium all transfers serialize through *)
  fault : Fault.t option;  (** chaos plan for interrupt-context traffic *)
  dummy : 'a;
      (** inert body used to blank recycled cells, so a parked cell never
          keeps a delivered body alive *)
  handlers : ('a msg -> unit) option array;
  tag_counts : int array;  (** messages per tag, indexed by [Tag.index] *)
  tag_bytes : int array;  (** payload bytes per tag *)
  down : bool array;  (** crashed nodes: their NIC neither sends nor receives *)
  mutable any_down : bool;  (** fast guard so clean runs never scan [down] *)
  mutable cells : 'a msg array;
      (** every cell this fabric ever allocated, indexed by [slot] — the
          registry the delivery opcode resolves its operand against *)
  mutable cells_n : int;
  mutable deliver_op : int;  (** this fabric's opcode in the engine table *)
  mutable free : 'a msg array;  (** free-list stack of recycled cells *)
  mutable free_n : int;
  mutable msgs : int;
  mutable bytes : int;
}

let make ~src ~dst ~size ~tag body = { src; dst; size; tag; body; slot = -1 }

let release_cell t m =
  m.body <- t.dummy;
  if t.free_n = Array.length t.free then begin
    let cap = max 64 (2 * t.free_n) in
    let free = Array.make cap m in
    Array.blit t.free 0 free 0 t.free_n;
    t.free <- free
  end;
  t.free.(t.free_n) <- m;
  t.free_n <- t.free_n + 1

let deliver_cell t m =
  (match t.handlers.(m.dst) with
  | Some f -> f m
  | None ->
      invalid_arg
        (Printf.sprintf
           "Fabric: no handler on node %d (tag %S, src %d, %d bytes)" m.dst
           (Tag.to_string m.tag) m.src m.size));
  release_cell t m

let create ?bus ?fault eng ~dummy ~nodes ~topology ~startup ~bandwidth
    ~hop_latency =
  if Array.length nodes <> Topology.nodes topology then
    invalid_arg "Fabric.create: node/topology size mismatch";
  let t =
    {
      eng;
      nodes;
      topo = topology;
      startup;
      bandwidth;
      hop_latency;
      bus;
      fault;
      dummy;
      handlers = Array.make (Array.length nodes) None;
      tag_counts = Array.make Tag.count 0;
      tag_bytes = Array.make Tag.count 0;
      down = Array.make (Array.length nodes) false;
      any_down = false;
      cells = [||];
      cells_n = 0;
      deliver_op = 0;
      free = [||];
      free_n = 0;
      msgs = 0;
      bytes = 0;
    }
  in
  t.deliver_op <- Engine.register_op eng (fun slot -> deliver_cell t t.cells.(slot));
  t

let set_handler t p f = t.handlers.(p) <- Some f

let send_occupancy t ~size = t.startup +. (float_of_int size /. t.bandwidth)

let record t msg =
  t.msgs <- t.msgs + 1;
  t.bytes <- t.bytes + msg.size;
  let i = Tag.index msg.tag in
  t.tag_counts.(i) <- t.tag_counts.(i) + 1;
  t.tag_bytes.(i) <- t.tag_bytes.(i) + msg.size

let alloc t ~src ~dst ~size ~tag body =
  if t.free_n = 0 then begin
    let m = { src; dst; size; tag; body; slot = t.cells_n } in
    (if t.cells_n = Array.length t.cells then begin
       let cap = max 64 (2 * t.cells_n) in
       let cells = Array.make cap m in
       Array.blit t.cells 0 cells 0 t.cells_n;
       t.cells <- cells
     end);
    t.cells.(t.cells_n) <- m;
    t.cells_n <- t.cells_n + 1;
    m
  end
  else begin
    t.free_n <- t.free_n - 1;
    let m = t.free.(t.free_n) in
    m.src <- src;
    m.dst <- dst;
    m.size <- size;
    m.tag <- tag;
    m.body <- body;
    m
  end

(* Crash-stop: a down node's NIC is dark — anything it would send or
   receive is silently lost at schedule time. Checked before recording so
   the per-tag ledgers only count messages that actually hit the wire. *)
let deliver_at t time m =
  if t.any_down && (t.down.(m.src) || t.down.(m.dst)) then release_cell t m
  else begin
    record t m;
    Engine.schedule_op_at t.eng ~op:t.deliver_op ~arg:m.slot time
  end

(* Faultable delivery: interrupt-context traffic and broadcast copies go
   through the chaos plan (when one is installed). Dropped messages vanish
   without reaching the per-tag ledgers — their cell recycles immediately;
   duplicates are delivered — and counted — twice, riding a second cell
   that carries the same body, so recycling the first delivery's cell
   cannot touch the copy still in flight. *)
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
      if d.Fault.drop then release_cell t m
      else begin
        if d.Fault.duplicate then begin
          let c =
            alloc t ~src:m.src ~dst:m.dst ~size:m.size ~tag:m.tag m.body
          in
          deliver_at t (time +. d.Fault.delay) m;
          deliver_at t (time +. d.Fault.dup_delay) c
        end
        else deliver_at t (time +. d.Fault.delay) m
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
  let m = alloc t ~src ~dst ~size ~tag body in
  if src = dst then deliver_at t (Engine.now t.eng) m
  else begin
    Mnode.occupy t.nodes.(src) (send_occupancy t ~size);
    let earliest = Engine.now t.eng +. wire t ~src ~dst in
    deliver_at t (bus_time t ~size ~earliest) m
  end

let post t ~src ~dst ~size ~tag body =
  let m = alloc t ~src ~dst ~size ~tag body in
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
          (alloc t ~src ~dst ~size ~tag body)
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

let cell_count t = t.cells_n
