module Ir = Jade_graph.Ir

type op = Ir.op = Work of float | Release of int

type store = {
  nodes : (int, Ir.node) Hashtbl.t;
  st_label : string;
  mutable st_sealed : bool;
  mutable st_poisoned : bool;
  mutable st_warned : bool;  (** poisoning warning already printed *)
  mutable st_graph : Ir.t option;  (** lazily lifted DAG, cached *)
}

let create_store ?(label = "") () =
  {
    nodes = Hashtbl.create 256;
    st_label = label;
    st_sealed = false;
    st_poisoned = false;
    st_warned = false;
    st_graph = None;
  }

let seal s = s.st_sealed <- true

let sealed s = s.st_sealed

let poison s =
  s.st_poisoned <- true;
  s.st_graph <- None;
  Hashtbl.reset s.nodes

let poisoned s = s.st_poisoned

let trace_count s = Hashtbl.length s.nodes

let graph s =
  if s.st_poisoned then None
  else
    match s.st_graph with
    | Some g -> Some g
    | None ->
        let g =
          Jade_graph.Build.make
            (Hashtbl.fold (fun _ n acc -> n :: acc) s.nodes [])
        in
        s.st_graph <- Some g;
        Some g

type mode = Record | Replay

type t = {
  store : store;
  t_mode : mode;
  bufs : (int, op list ref) Hashtbl.t;
      (** record mode: open per-task buffers, keyed by tid so interleaved
          bodies (a body that yields to the engine mid-execution) cannot
          corrupt each other's streams *)
  mutable n_replayed : int;
  mutable n_recorded : int;
}

let make store t_mode =
  { store; t_mode; bufs = Hashtbl.create 8; n_replayed = 0; n_recorded = 0 }

let recorder store =
  if store.st_sealed then
    invalid_arg "Replay.recorder: store is already sealed";
  make store Record

let replayer store =
  if not store.st_sealed then
    invalid_arg "Replay.replayer: store is not sealed";
  make store Replay

let mode h = h.t_mode

let store_of h = h.store

let node h ~tid =
  match h.t_mode with
  | Record -> None
  | Replay ->
      if h.store.st_poisoned then None else Hashtbl.find_opt h.store.nodes tid

let trace h ~tid =
  match node h ~tid with Some n -> Some n.Ir.n_ops | None -> None

let task_begin h ~tid =
  if h.t_mode = Record && not h.store.st_poisoned then
    Hashtbl.replace h.bufs tid (ref [])

let record h ~tid op =
  match Hashtbl.find_opt h.bufs tid with
  | Some buf -> buf := op :: !buf
  | None -> ()

(* Lift one completed task into its IR node: identity, declared access
   specification with the version chain the synchronizer resolved at
   creation, declared work and placement, and the op stream the body
   just produced. *)
let node_of_task (task : Taskrec.t) ~ran_on ops =
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
    n_ran_on = ran_on;
    n_accesses = accesses;
    n_ops = ops;
  }

let task_end h ~task ~ran_on ~ok =
  let tid = task.Taskrec.tid in
  match Hashtbl.find_opt h.bufs tid with
  | None -> ()
  | Some buf ->
      Hashtbl.remove h.bufs tid;
      if ok then begin
        Hashtbl.replace h.store.nodes tid
          (node_of_task task ~ran_on (Array.of_list (List.rev !buf)));
        h.n_recorded <- h.n_recorded + 1
      end
      else begin
        if not h.store.st_warned then begin
          h.store.st_warned <- true;
          Printf.eprintf
            "jade: replay: task %d (%s) created tasks or objects \
             mid-execution; %s is not replayable and falls back to real \
             execution\n\
             %!"
            tid task.Taskrec.tname
            (if h.store.st_label = "" then "its run group"
             else "run group " ^ h.store.st_label)
        end;
        poison h.store
      end

let note_replayed h = h.n_replayed <- h.n_replayed + 1

let replayed h = h.n_replayed

let recorded h = h.n_recorded
