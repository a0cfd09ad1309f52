(** DASH communication cost model.

    On the shared-memory machine all communication happens on demand as
    tasks reference remote data, so the cost of a task's communication is
    folded into its execution time. For each declared object we charge one
    full-object traversal at a per-line latency determined by where the
    line comes from: the processor's cache (if it holds the required
    version), the local cluster's memory, a clean remote home, or a third
    cluster that holds the data dirty — the published DASH latencies.

    Each processor has a modelled cache with FIFO eviction; caching the
    version of each object a task touches captures the paper's observation
    that executing tasks with the same locality object consecutively on the
    same processor improves cache locality (§3.2.2). *)

type cache = {
  mutable versions : int array;  (** by object id: cached version, -1 = none *)
  order : Meta.t Jade_sim.Deque.t;  (** cached objects, oldest first *)
  mutable bytes : int;
}

type t = { costs : Jade_machines.Costs.shm; caches : cache array }

let create costs ~nprocs =
  {
    costs;
    caches =
      Array.init nprocs (fun _ ->
          { versions = [||]; order = Jade_sim.Deque.create (); bytes = 0 });
  }

let cached_version cache id =
  if id < Array.length cache.versions then cache.versions.(id) else -1

let cluster t p = p / t.costs.Jade_machines.Costs.cluster_size

let cache_insert t cache (meta : Meta.t) version =
  let c = t.costs in
  if meta.Meta.size <= c.Jade_machines.Costs.cache_bytes then begin
    let id = meta.Meta.id in
    let n = Array.length cache.versions in
    if id >= n then begin
      let v = Array.make (max (id + 1) (2 * n)) (-1) in
      Array.blit cache.versions 0 v 0 n;
      cache.versions <- v
    end;
    if cache.versions.(id) < 0 then begin
      Jade_sim.Deque.push_back cache.order meta;
      cache.bytes <- cache.bytes + meta.Meta.size
    end;
    cache.versions.(id) <- version;
    (* FIFO eviction; the object just inserted fits alone, so it stays. *)
    while cache.bytes > c.Jade_machines.Costs.cache_bytes do
      let old = Jade_sim.Deque.pop_front_exn cache.order in
      cache.versions.(old.Meta.id) <- -1;
      cache.bytes <- cache.bytes - old.Meta.size
    done
  end

(** Communication time for [task] executing on [proc]; updates the cache
    model. The returned time is what DASH folds into task execution. *)
let task_cost t (task : Taskrec.t) ~proc =
  let c = t.costs in
  let open Jade_machines.Costs in
  let cache = t.caches.(proc) in
  let total = ref 0.0 in
  Array.iteri
    (fun slot ((meta : Meta.t), mode) ->
      let required = task.Taskrec.required.(slot) in
      let lines = (meta.Meta.size + c.cache_line - 1) / c.cache_line in
      let cached = cached_version cache meta.Meta.id >= required in
      let cycles =
        if cached then c.l2_hit_cycles
        else if cluster t meta.Meta.home = cluster t proc then c.local_cycles
        else if
          cluster t meta.Meta.owner <> cluster t meta.Meta.home
          && cluster t meta.Meta.owner <> cluster t proc
        then c.remote_dirty_cycles
        else c.remote_cycles
      in
      total := !total +. (float_of_int lines *. float_of_int cycles *. c.cycle);
      let final_version =
        if Access.is_write mode then task.Taskrec.produces.(slot) else required
      in
      cache_insert t cache meta final_version)
    task.Taskrec.spec;
  !total
