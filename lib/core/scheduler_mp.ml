open Jade_sim

(* A pooled task, listed twice: in [pool], in enable order, and in
   [by_target] under its target. Taking it from one list marks it
   [taken]; the other drops it when it reaches that list's front. A task
   sits in the pool at most once, and its target is fixed while it does
   (it is set only when the task is enabled). *)
type entry = { task : Taskrec.t; mutable taken : bool }

type t = {
  cfg : Config.t;
  nprocs : int;
  loads : int array;
  pool : entry Deque.t;
  by_target : entry Deque.t array;
  mutable pooled : int;  (** entries not yet taken *)
  down : bool array;  (** crashed processors: never assignment candidates *)
}

let create cfg ~nprocs =
  {
    cfg;
    nprocs;
    loads = Array.make nprocs 0;
    pool = Deque.create ();
    by_target = Array.init nprocs (fun _ -> Deque.create ());
    pooled = 0;
    down = Array.make nprocs false;
  }

(* Crash recovery: a down processor keeps whatever load count it had (its
   tasks are re-enqueued separately by the supervisor), but is excluded
   from every placement decision until it restarts. *)
let mark_down t p = t.down.(p) <- true

let mark_up t p = t.down.(p) <- false

let is_down t p = t.down.(p)

(* Target processor: explicit placement, else the owner of the locality
   object at enable time. Sets [task.target]. *)
let set_target (task : Taskrec.t) =
  let target =
    match task.Taskrec.placement with
    | Some p -> p
    | None -> (
        match Taskrec.locality_object task with
        | Some meta -> meta.Meta.owner
        | None -> 0)
  in
  task.Taskrec.target <- target

(* The lowest-index live processor of least load, or -1 when every
   processor is down. *)
let least_loaded t =
  let best = ref (-1) in
  for p = 0 to t.nprocs - 1 do
    if (not t.down.(p)) && (!best < 0 || t.loads.(p) < t.loads.(!best)) then best := p
  done;
  !best

let assign t p =
  t.loads.(p) <- t.loads.(p) + 1;
  `Assign p

(* A live processor to stand in for a down placement/target: the
   least-loaded survivor (lowest index on ties). *)
let survivor_for t =
  let p = least_loaded t in
  if p < 0 then invalid_arg "Scheduler_mp: no live processor" else p

let push t (task : Taskrec.t) =
  let e = { task; taken = false } in
  Deque.push_back t.pool e;
  Deque.push_back t.by_target.(task.Taskrec.target) e;
  t.pooled <- t.pooled + 1;
  `Pooled

let on_enabled t (task : Taskrec.t) =
  set_target task;
  if t.down.(task.Taskrec.target) then task.Taskrec.target <- survivor_for t;
  match task.Taskrec.placement with
  | Some p ->
      (* Explicitly placed tasks are sent straight to their processor —
         unless it has crashed, in which case a survivor stands in. *)
      assign t (if t.down.(p) then survivor_for t else p)
  | None -> (
      let p = least_loaded t in
      match t.cfg.Config.locality with
      | Config.No_locality ->
          (* Single queue at the main processor, FCFS to idle processors. *)
          if p >= 0 && t.loads.(p) = 0 then assign t p else push t task
      | Config.Locality | Config.Task_placement ->
          if p >= 0 && t.loads.(p) < t.cfg.Config.target_tasks then
            (* The target when it is among the least loaded (it is
               live: a down target was redirected above). *)
            let target = task.Taskrec.target in
            assign t (if t.loads.(target) = t.loads.(p) then target else p)
          else push t task)

let rec drop_taken q =
  if (not (Deque.is_empty q)) && (Deque.first q).taken then begin
    ignore (Deque.pop_front_exn q);
    drop_taken q
  end

let on_completed t ~proc =
  t.loads.(proc) <- t.loads.(proc) - 1;
  if t.loads.(proc) < 0 then invalid_arg "Scheduler_mp.on_completed: negative load";
  let handed = ref [] in
  let target_count =
    match t.cfg.Config.locality with
    | Config.No_locality -> 1
    | _ -> t.cfg.Config.target_tasks
  in
  let continue = ref true in
  while !continue && t.loads.(proc) < target_count do
    (* The earliest pooled task targeted at [proc], else the earliest
       pooled task. *)
    let mine = t.by_target.(proc) in
    drop_taken mine;
    drop_taken t.pool;
    if Deque.is_empty t.pool then continue := false
    else begin
      let e = Deque.pop_front_exn (if Deque.is_empty mine then t.pool else mine) in
      e.taken <- true;
      t.pooled <- t.pooled - 1;
      t.loads.(proc) <- t.loads.(proc) + 1;
      handed := e.task :: !handed
    end
  done;
  List.rev !handed

let load t p = t.loads.(p)

let pooled t = t.pooled
