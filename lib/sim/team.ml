(* A persistent worker-domain team for data-parallel phases inside the
   engine's run loop (the PDES window-extraction phase).

   [Pool] spawns fresh domains per batch, which is right for coarse
   experiment-level jobs but far too heavy for a phase that runs once per
   simulation window. The team keeps its domains alive across calls:
   each [parallel_for] publishes a job, wakes the workers, claims items
   alongside them through an atomic counter, and blocks until the last
   item completes.

   Workers sleep on a condition variable between batches rather than
   spinning: on hosts with fewer cores than domains a spinning worker
   would steal the coordinator's timeslice for the whole serial phase
   between windows, which is exactly the common case on small CI
   containers.

   Memory model: the job closure and item count are plain fields written
   by the coordinator before it bumps [epoch] under the mutex; workers
   read them only after observing the new epoch, so the monitor provides
   the happens-before edge. Item claims and completion counts are
   atomics; the coordinator's final read of [completed = n] happens
   after every worker's increment, which makes all worker writes (e.g.
   into per-shard staging buffers) visible to the serial phase that
   follows. *)

type t = {
  mutable workers : unit Domain.t array;
  mutable job : int -> unit;
  mutable njobs : int;
  next : int Atomic.t;
  completed : int Atomic.t;
  failure : exn option Atomic.t;
  m : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable epoch : int;
  mutable stopping : bool;
}

let nop_job (_ : int) = ()

let run_item t n i =
  (try t.job i
   with e -> ignore (Atomic.compare_and_set t.failure None (Some e)));
  let c = 1 + Atomic.fetch_and_add t.completed 1 in
  if c = n then begin
    (* The coordinator may be asleep waiting for this last item; take the
       monitor so the signal cannot slip between its check and its wait. *)
    Mutex.lock t.m;
    Condition.signal t.work_done;
    Mutex.unlock t.m
  end

let claim_loop t =
  let n = t.njobs in
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add t.next 1 in
    if i >= n then continue := false else run_item t n i
  done

let worker t =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.m;
    while t.epoch = !seen && not t.stopping do
      Condition.wait t.work_ready t.m
    done;
    seen := t.epoch;
    let stop = t.stopping in
    Mutex.unlock t.m;
    if stop then running := false else claim_loop t
  done

let create ~workers =
  let t =
    {
      workers = [||];
      job = nop_job;
      njobs = 0;
      next = Atomic.make 0;
      completed = Atomic.make 0;
      failure = Atomic.make None;
      m = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      epoch = 0;
      stopping = false;
    }
  in
  t.workers <- Array.init (max 0 workers) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let size t = 1 + Array.length t.workers

let parallel_for t ~n job =
  if n > 0 then begin
    if Array.length t.workers = 0 then
      for i = 0 to n - 1 do
        job i
      done
    else begin
      t.job <- job;
      t.njobs <- n;
      (* [completed] before [next]: a worker still leaving the previous
         batch's [claim_loop] can claim item 0 as soon as [next] drops to
         0, and its completion must land after the reset, not be wiped
         by it (the coordinator would then wait forever for the last
         item). *)
      Atomic.set t.completed 0;
      Atomic.set t.next 0;
      Mutex.lock t.m;
      t.epoch <- t.epoch + 1;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.m;
      claim_loop t;
      Mutex.lock t.m;
      while Atomic.get t.completed < n do
        Condition.wait t.work_done t.m
      done;
      Mutex.unlock t.m;
      t.job <- nop_job;
      match Atomic.exchange t.failure None with
      | Some e -> raise e
      | None -> ()
    end
  end

let shutdown t =
  Mutex.lock t.m;
  t.stopping <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.m;
  Array.iter Domain.join t.workers;
  t.workers <- [||]
