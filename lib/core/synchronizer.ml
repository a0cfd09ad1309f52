open Jade_sim

type entry = { task : Taskrec.t; mode : Access.mode; mutable ready : bool }

type t = {
  queues : entry Deque.t option array ref;  (** see {!Meta.slot} *)
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

(* Without replication, a read behaves like an exclusive access. *)
let effective_mode t (mode : Access.mode) : Access.mode =
  match mode with
  | Access.Read when not t.replication -> Access.Read_write
  | m -> m

let queue_of t meta = Meta.slot t.queues meta Deque.create

(* An entry is ready iff no conflicting entry precedes it in the queue.
   The walk stops at the first conflict: programs that touch an object
   every iteration build queues proportional to the iteration count, and
   a full walk per added entry made task creation quadratic per object. *)
let compute_ready t q (mode : Access.mode) =
  let em = effective_mode t mode in
  match
    Deque.iter
      (fun e ->
        if Access.conflicts (effective_mode t e.mode) em then
          raise_notrace Exit)
      q
  with
  | () -> true
  | exception Exit -> false

let enable t (task : Taskrec.t) =
  task.Taskrec.state <- Taskrec.Enabled;
  t.enabled <- t.enabled + 1;
  t.on_enable task

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
      let q = queue_of t meta in
      let ready = compute_ready t q mode in
      if not ready then task.pending <- task.pending + 1;
      Deque.push_back q { task; mode; ready };
      t.outstanding <- t.outstanding + 1)
    task.spec;
  if task.pending = 0 then enable t task

(* After removals, promote entries that became ready: walk the queue front
   to back tracking whether a read/any access would now be blocked. *)
let promote t q =
  let seen_write = ref false in
  let seen_any = ref false in
  (* Once a write and any access have both been seen, no later entry can
     become ready (reads need no preceding write, writes need no
     preceding access), so the walk stops — without this the walk visits
     the whole queue on every retirement, which is quadratic per object
     for programs that touch an object every iteration. *)
  try
    Deque.iter
      (fun e ->
        if !seen_write && !seen_any then raise_notrace Exit;
        if not e.ready then begin
          let em = effective_mode t e.mode in
          let ready_now =
            match em with
            | Access.Read -> not !seen_write
            | Access.Write | Access.Read_write -> not !seen_any
          in
          if ready_now then begin
            e.ready <- true;
            let task = e.task in
            task.Taskrec.pending <- task.Taskrec.pending - 1;
            if task.Taskrec.pending = 0 then enable t task
          end
        end;
        let em = effective_mode t e.mode in
        if Access.is_write em then seen_write := true;
        seen_any := true)
      q
  with Exit -> ()

(* Shared by mid-task release and completion: drop one declaration,
   committing its write if necessary, and promote newly-ready entries. *)
let retire_entry t (task : Taskrec.t) slot =
  let open Taskrec in
  let meta, mode = task.spec.(slot) in
  if Access.is_write mode then begin
    Meta.commit_write meta ~proc:task.ran_on ~version:task.produces.(slot);
    t.on_write_commit meta task
  end;
  let q = queue_of t meta in
  (match Deque.remove_first q (fun e -> e.task == task) with
  | Some _ -> t.outstanding <- t.outstanding - 1
  | None -> invalid_arg "Synchronizer: entry missing");
  promote t q

(* The advanced access-specification statements (§2): a running task
   declares it will no longer access an object, committing its write (if
   any) and enabling successors before the task itself completes. *)
let release t (task : Taskrec.t) (meta : Meta.t) =
  let open Taskrec in
  if task.ran_on < 0 then invalid_arg "Synchronizer.release: task not running";
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
  if task.ran_on < 0 then
    invalid_arg "Synchronizer.complete: task never ran";
  Array.iteri
    (fun slot _ -> if not task.released.(slot) then retire_entry t task slot)
    task.spec;
  task.state <- Completed

let outstanding t = t.outstanding

let enabled_count t = t.enabled
