open Jade_sim

(* One object's declaration queue as access epochs (see the interface).
   Only the head epoch's members are ready, and only they retire. *)
type queue = {
  mutable live : int;  (** unretired members of the head epoch; 0 = idle *)
  mutable tail_shared : bool;  (** the tail epoch is a replicated-read run *)
  behind : int Deque.t;  (** member counts of the epochs behind the head *)
  waiting : Taskrec.t Deque.t;  (** their members, in serial order *)
}

type t = {
  queues : queue option array ref;  (** see {!Meta.slot} *)
  replication : bool;
  on_enable : Taskrec.t -> unit;
  on_write_commit : Meta.t -> Taskrec.t -> unit;
  mutable outstanding : int;
  mutable enabled : int;
}

let create ~replication ~on_enable ~on_write_commit =
  {
    queues = ref [||];
    replication;
    on_enable;
    on_write_commit;
    outstanding = 0;
    enabled = 0;
  }

let queue_of t meta =
  Meta.slot t.queues meta (fun () ->
      { live = 0; tail_shared = false; behind = Deque.create (); waiting = Deque.create () })

let enable t (task : Taskrec.t) =
  task.Taskrec.state <- Taskrec.Enabled;
  t.enabled <- t.enabled + 1;
  t.on_enable task

(* Join the tail epoch or open a new one; [true] if the declaration is
   ready at once. Without replication a read is exclusive, which
   serializes readers (the §5.1 experiment). *)
let join t q (task : Taskrec.t) (mode : Access.mode) =
  let shared = match mode with Access.Read -> t.replication | _ -> false in
  let joins = shared && q.tail_shared in
  if q.live = 0 || (joins && Deque.is_empty q.behind) then begin
    q.live <- q.live + 1;
    q.tail_shared <- shared;
    true
  end
  else begin
    Deque.push_back q.behind
      (if joins then Deque.pop_back_exn q.behind + 1 else 1);
    q.tail_shared <- shared;
    Deque.push_back q.waiting task;
    false
  end

let add_task t (task : Taskrec.t) =
  let open Taskrec in
  (* Reject duplicate objects in a spec: versions and readiness would be
     ambiguous. Apps should declare Read_write instead. *)
  Array.iteri
    (fun i ((meta : Meta.t), _) ->
      for j = 0 to i - 1 do
        if (fst task.spec.(j)).Meta.id = meta.Meta.id then
          invalid_arg
            (Printf.sprintf "Synchronizer.add_task: object %s declared twice"
               meta.Meta.name)
      done)
    task.spec;
  task.pending <- 0;
  Array.iteri
    (fun slot ((meta : Meta.t), mode) ->
      task.required.(slot) <- meta.Meta.writers_created;
      if Access.is_write mode then begin
        meta.Meta.writers_created <- meta.Meta.writers_created + 1;
        task.produces.(slot) <- meta.Meta.writers_created
      end;
      if not (join t (queue_of t meta) task mode) then
        task.pending <- task.pending + 1;
      t.outstanding <- t.outstanding + 1)
    task.spec;
  if task.pending = 0 then enable t task

(* Shared by mid-task release and completion: drop one declaration from
   the head epoch, committing its write if necessary; when the epoch
   empties, the next one's members become ready in serial order. *)
let retire_entry t (task : Taskrec.t) slot =
  let open Taskrec in
  let meta, mode = task.spec.(slot) in
  if Access.is_write mode then begin
    Meta.commit_write meta ~proc:task.ran_on ~version:task.produces.(slot);
    t.on_write_commit meta task
  end;
  let q = queue_of t meta in
  if q.live = 0 then invalid_arg "Synchronizer: entry missing";
  t.outstanding <- t.outstanding - 1;
  q.live <- q.live - 1;
  if q.live = 0 && not (Deque.is_empty q.behind) then begin
    let n = Deque.pop_front_exn q.behind in
    q.live <- n;
    for _ = 1 to n do
      let next = Deque.pop_front_exn q.waiting in
      next.pending <- next.pending - 1;
      if next.pending = 0 then enable t next
    done
  end

(* The advanced access-specification statements (§2): a running task
   declares it will no longer access an object, committing its write (if
   any) and enabling successors before the task itself completes. *)
let release t (task : Taskrec.t) (meta : Meta.t) =
  let open Taskrec in
  (* Only a running task's declarations are all in head epochs. *)
  if task.ran_on < 0 || task.pending <> 0 then
    invalid_arg "Synchronizer.release: task not running";
  let slot =
    match Taskrec.spec_slot task meta with
    | slot -> slot
    | exception Not_found ->
        invalid_arg "Synchronizer.release: object not in spec"
  in
  if task.released.(slot) then
    invalid_arg "Synchronizer.release: already released";
  task.released.(slot) <- true;
  retire_entry t task slot

let complete t (task : Taskrec.t) =
  let open Taskrec in
  if task.ran_on < 0 || task.pending <> 0 then
    invalid_arg "Synchronizer.complete: task never ran";
  if task.state = Completed then
    invalid_arg "Synchronizer.complete: task already completed";
  Array.iteri
    (fun slot _ -> if not task.released.(slot) then retire_entry t task slot)
    task.spec;
  task.state <- Completed

let outstanding t = t.outstanding

let enabled_count t = t.enabled
