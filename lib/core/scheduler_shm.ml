open Jade_sim

type otq = {
  tasks : Taskrec.t Deque.t;
  mutable linked : bool;  (** currently a member of some processor queue *)
}

type t = {
  cfg : Config.t;
  nprocs : int;
  cluster_size : int;
  proc_queues : otq Deque.t array;  (** queue of object task queues *)
  otqs : otq option array ref;  (** see {!Meta.slot} *)
  objectless : otq;  (** pseudo object queue of tasks with no object *)
  shared : Taskrec.t Deque.t;  (** No_locality: single FCFS queue *)
  placed : Taskrec.t Deque.t array;  (** Task_placement: pinned tasks *)
  victims : int array array;
      (** per processor: the other processors in steal-search order —
          cyclic from the thief, own cluster first. The order is fixed by
          (nprocs, cluster_size), and idle processors re-run the search on
          every poll, so it is computed once rather than rebuilt (three
          list allocations per attempt) on the idle path. *)
  down : bool array;  (** crashed processors: queues drained, no dispatch *)
  mutable steal_count : int;
  mutable queued_count : int;
}

(* Cyclic search order over the other processors, visiting the thief's own
   cluster first: a task stolen within the cluster keeps its data behind
   the same memory bus (the DASH-tailored variant of the locality
   heuristic). *)
let victim_order ~cluster_size ~nprocs proc =
  let cluster p = p / cluster_size in
  let all = List.init (nprocs - 1) (fun k -> (proc + k + 1) mod nprocs) in
  let near, far = List.partition (fun v -> cluster v = cluster proc) all in
  Array.of_list (near @ far)

let new_otq () = { tasks = Deque.create (); linked = false }

let create ?(cluster_size = 1) cfg ~nprocs =
  if cluster_size < 1 then invalid_arg "Scheduler_shm.create: bad cluster size";
  {
    cfg;
    nprocs;
    cluster_size;
    proc_queues = Array.init nprocs (fun _ -> Deque.create ());
    otqs = ref [||];
    objectless = new_otq ();
    shared = Deque.create ();
    placed = Array.init nprocs (fun _ -> Deque.create ());
    victims = Array.init nprocs (victim_order ~cluster_size ~nprocs);
    down = Array.make nprocs false;
    steal_count = 0;
    queued_count = 0;
  }

let mark_down t p = t.down.(p) <- true

let mark_up t p = t.down.(p) <- false

let is_down t p = t.down.(p)

(* A down processor's stand-in: the next live processor in cyclic order —
   within the cluster first, matching the steal-search bias. *)
let redirect t p =
  if not t.down.(p) then p
  else begin
    let victims = t.victims.(p) in
    let n = Array.length victims in
    let rec go i =
      if i >= n then invalid_arg "Scheduler_shm: no live processor"
      else if t.down.(victims.(i)) then go (i + 1)
      else victims.(i)
    in
    go 0
  end

(* Target processor of a task: its explicit placement if present,
   otherwise the home of its locality object (the paper measures task
   locality percentage against this regardless of optimization level). *)
let target_of (task : Taskrec.t) =
  match task.Taskrec.placement with
  | Some p -> p
  | None -> (
      match Taskrec.locality_object task with
      | Some meta -> meta.Meta.home
      | None -> 0)

let otq_of t meta = Meta.slot t.otqs meta new_otq

let enqueue_locality t (task : Taskrec.t) =
  let owner_queue, otq =
    match Taskrec.locality_object task with
    | Some meta -> (t.proc_queues.(redirect t meta.Meta.home), otq_of t meta)
    | None ->
        (* Objectless tasks live in a pseudo object queue on processor 0. *)
        (t.proc_queues.(0), t.objectless)
  in
  Deque.push_back otq.tasks task;
  if not otq.linked then begin
    otq.linked <- true;
    Deque.push_back owner_queue otq
  end

let enqueue t (task : Taskrec.t) =
  task.Taskrec.target <- target_of task;
  t.queued_count <- t.queued_count + 1;
  match (t.cfg.Config.locality, task.Taskrec.placement) with
  | _, Some p -> Deque.push_back t.placed.(redirect t p) task
  | Config.No_locality, None -> Deque.push_back t.shared task
  | (Config.Locality | Config.Task_placement), None -> enqueue_locality t task

(* A linked object task queue is never empty: it is linked after its
   first push, and whoever takes its last task unlinks it (fail-over drops
   empty ones). So an empty processor queue is the only miss. *)

(* Pop the first task of the first object task queue. An unsuccessful
   probe touches only ring-buffer fields and allocates nothing. *)
let pop_local t proc =
  let pq = t.proc_queues.(proc) in
  if Deque.is_empty pq then None
  else begin
    let otq = Deque.first pq in
    let task = Deque.pop_front_exn otq.tasks in
    if Deque.is_empty otq.tasks then begin
      ignore (Deque.pop_front_exn pq);
      otq.linked <- false
    end;
    Some task
  end

(* Steal the last task of the last object task queue of [victim]. *)
let steal_from t victim =
  let pq = t.proc_queues.(victim) in
  if Deque.is_empty pq then None
  else begin
    let otq = Deque.last pq in
    let task = Deque.pop_back_exn otq.tasks in
    if Deque.is_empty otq.tasks then begin
      ignore (Deque.pop_back_exn pq);
      otq.linked <- false
    end;
    Some task
  end

let next ?(allow_steal = true) t ~proc =
  let found =
    (* Nothing queued: skip the walk over every victim, which made each
       herd of idle probes quadratic in the processors. *)
    if t.queued_count = 0 then None
    else if not (Deque.is_empty t.placed.(proc)) then
      Some (Deque.pop_front_exn t.placed.(proc))
    else
      match t.cfg.Config.locality with
      | Config.No_locality -> Deque.pop_front t.shared
      | Config.Locality -> (
          match pop_local t proc with
          | Some task -> Some task
          | None when not allow_steal -> None
          | None ->
              let victims = t.victims.(proc) in
              let n = Array.length victims in
              let rec search i =
                if i >= n then None
                else
                  match steal_from t victims.(i) with
                  | Some task ->
                      t.steal_count <- t.steal_count + 1;
                      task.Taskrec.stolen <- true;
                      Some task
                  | None -> search (i + 1)
              in
              search 0)
      | Config.Task_placement ->
          (* No stealing: placed tasks are pinned; unplaced tasks still use
             the locality structure but are only taken locally. *)
          pop_local t proc
  in
  (match found with
  | Some _ -> t.queued_count <- t.queued_count - 1
  | None -> ());
  found

let steals t = t.steal_count

let queued t = t.queued_count

(* Crash recovery: hand everything still queued on [proc] to survivors.
   Pinned tasks are retargeted to the stand-in processor; whole object
   task queues move to the stand-in's queue (their tasks keep their
   ordering and remain stealable). Returns the number of tasks moved.
   Call after {!mark_down}. *)
let fail_over t ~proc =
  let moved = ref 0 in
  let pinned = t.placed.(proc) in
  while not (Deque.is_empty pinned) do
    let task = Deque.pop_front_exn pinned in
    let q = redirect t proc in
    task.Taskrec.target <- q;
    Deque.push_back t.placed.(q) task;
    incr moved
  done;
  let pq = t.proc_queues.(proc) in
  while not (Deque.is_empty pq) do
    let otq = Deque.pop_front_exn pq in
    if Deque.is_empty otq.tasks then otq.linked <- false
    else begin
      moved := !moved + Deque.length otq.tasks;
      Deque.push_back t.proc_queues.(redirect t proc) otq
    end
  done;
  !moved
