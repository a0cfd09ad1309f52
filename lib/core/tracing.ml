type event = {
  task_name : string;
  tid : int;
  proc : int;
  target : int;
  created_at : float;
  enabled_at : float;
  started_at : float;
  finished_at : float;
  stolen : bool;
}

type flow_kind = Fetch | Broadcast | Eager_update

type flow = {
  flow_kind : flow_kind;
  obj : string;
  src : int;
  dst : int;
  sent_at : float;
  arrived_at : float;
}

module Ir = Jade_graph.Ir

type t = {
  mutable rev_events : event list;
  mutable n : int;
  mutable rev_flows : flow list;
  mutable n_flows : int;
  mutable nodes : Ir.node list;
}

let create () =
  { rev_events = []; n = 0; rev_flows = []; n_flows = 0; nodes = [] }

(* Lift one completed task into its IR node: identity, declared access
   specification with the version chain the synchronizer resolved at
   creation, declared work and placement, the processor it ran on, and
   the op stream a staged body produced (empty for a kernel). *)
let node_of_task (task : Taskrec.t) =
  let accesses =
    Array.mapi
      (fun i (meta, amode) ->
        {
          Ir.a_obj = meta.Meta.id;
          a_name = meta.Meta.name;
          a_home = meta.Meta.home;
          a_size = meta.Meta.size;
          a_mode =
            (match amode with
            | Access.Read -> Ir.Rd
            | Access.Write -> Ir.Wr
            | Access.Read_write -> Ir.Rw);
          a_required = task.Taskrec.required.(i);
          a_produces = task.Taskrec.produces.(i);
        })
      task.Taskrec.spec
  in
  {
    Ir.n_id = task.Taskrec.tid;
    n_name = task.Taskrec.tname;
    n_work = task.Taskrec.work;
    n_placement = task.Taskrec.placement;
    n_ran_on = task.Taskrec.ran_on;
    n_accesses = accesses;
    n_ops = Array.of_list (List.rev task.Taskrec.ops);
  }

let record t (task : Taskrec.t) =
  t.nodes <- node_of_task task :: t.nodes;
  let open Taskrec in
  t.rev_events <-
    {
      task_name = task.tname;
      tid = task.tid;
      proc = task.ran_on;
      target = task.target;
      created_at = task.fl.created_at;
      enabled_at = task.fl.enabled_at;
      started_at = task.fl.started_at;
      finished_at = task.fl.finished_at;
      stolen = task.stolen;
    }
    :: t.rev_events;
  t.n <- t.n + 1

let record_flow t ~kind ~obj ~src ~dst ~sent_at ~arrived_at =
  t.rev_flows <-
    { flow_kind = kind; obj; src; dst; sent_at; arrived_at } :: t.rev_flows;
  t.n_flows <- t.n_flows + 1

let events t = List.rev t.rev_events

let graph t = Jade_graph.Build.make t.nodes

let count t = t.n

let flows t = List.rev t.rev_flows

let flow_count t = t.n_flows

let flow_kind_name = function
  | Fetch -> "fetch"
  | Broadcast -> "broadcast"
  | Eager_update -> "eager"

(* JSON string escaping for the few metacharacters task names can carry. *)
let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let us t = t *. 1.0e6

let to_chrome_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  let first = ref true in
  List.iter
    (fun e ->
      if not !first then Buffer.add_string buf ",\n";
      first := false;
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":%.3f,\
            \"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"task\":%d,\
            \"target\":%d,\"stolen\":%b,\"created\":%.3f,\"enabled\":%.3f}}"
           (escape e.task_name) (us e.started_at)
           (us (e.finished_at -. e.started_at))
           e.proc e.tid e.target e.stolen (us e.created_at) (us e.enabled_at)))
    (events t);
  (* Object movement: one "comm" slice per transfer on the network pid
     (lane = destination processor), plus a Chrome flow-event pair binding
     source lane to destination lane, so Perfetto draws an arrow from the
     sender at send time to the receiver at arrival time. *)
  List.iteri
    (fun i f ->
      let kind = flow_kind_name f.flow_kind in
      let id = i + 1 in
      if not !first then Buffer.add_string buf ",\n";
      first := false;
      let name = Printf.sprintf "%s %s" kind (escape f.obj) in
      (* Send marker on the source lane (flow start binds to it). *)
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"send %s\",\"cat\":\"comm\",\"ph\":\"X\",\"ts\":%.3f,\
            \"dur\":0,\"pid\":1,\"tid\":%d,\"args\":{\"obj\":\"%s\",\
            \"src\":%d,\"dst\":%d}}"
           name (us f.sent_at) f.src (escape f.obj) f.src f.dst);
      Buffer.add_string buf
        (Printf.sprintf
           ",\n{\"name\":\"%s\",\"cat\":\"comm\",\"ph\":\"s\",\"id\":%d,\
            \"ts\":%.3f,\"pid\":1,\"tid\":%d}"
           name id (us f.sent_at) f.src);
      (* In-flight slice on the destination lane (flow end binds to it). *)
      Buffer.add_string buf
        (Printf.sprintf
           ",\n{\"name\":\"%s\",\"cat\":\"comm\",\"ph\":\"X\",\"ts\":%.3f,\
            \"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"obj\":\"%s\",\
            \"src\":%d,\"dst\":%d}}"
           name (us f.sent_at)
           (us (f.arrived_at -. f.sent_at))
           f.dst (escape f.obj) f.src f.dst);
      Buffer.add_string buf
        (Printf.sprintf
           ",\n{\"name\":\"%s\",\"cat\":\"comm\",\"ph\":\"f\",\"bp\":\"e\",\
            \"id\":%d,\"ts\":%.3f,\"pid\":1,\"tid\":%d}"
           name id (us f.arrived_at) f.dst))
    (flows t);
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

let write_chrome_json t path =
  let oc = open_out path in
  output_string oc (to_chrome_json t);
  close_out oc
