open Jade_sim
open Jade_machines
open Jade_net

type pending = {
  mutable version : int;
  ivar : unit Ivar.t;
  mutable arrived_at : float;  (** -1 until the copy is installed *)
}

(* A pushed copy (broadcast or eager transfer) the owner is waiting to see
   acknowledged; only tracked when the reliable-delivery protocol is on.
   The table key (object id, version, dst) is captured as flat ints at
   track time, so the retransmit timers and the ack matcher never chase
   [meta]. *)
type push = {
  push_src : int;
  push_dst : int;
  push_size : int;
  push_id : int;  (** object id *)
  push_version : int;
  push_tag : Tag.t;
  push_body : Protocol.t;  (** the body that was sent, re-posted as is *)
}

(* A retransmit timer: a fetch the requester is waiting on, or a push the
   owner is waiting to see acknowledged. Its attempt is the level of the
   lane it waits on. *)
type timer =
  | Fetch of { meta : Meta.t; p : pending; version : int; proc : int }
  | Push of push

type t = {
  eng : Engine.t;
  cfg : Config.t;
  costs : Costs.mp;
  nodes : Mnode.t array;
  fabric : Protocol.t Fabric.t;
  metrics : Metrics.t;
  nprocs : int;
  pending : (int, pending) Hashtbl.t;
      (** [object id * nprocs + proc] -> fetch; int-keyed so the per-install
          lookup hashes a flat int instead of allocating a tuple *)
  reliable : Fault.spec option;
      (** Some = run the ack/retransmit protocol with these parameters.
          Only set when the fault plan can actually lose or delay messages,
          so clean runs carry zero protocol overhead (and stay bit-identical
          to builds without this machinery). *)
  pushes : (int * int * int, push) Hashtbl.t;
      (** (object id, version, dst) -> unacknowledged push *)
  retrans_by_proc : int array;
      (** retransmissions charged per processor (fetch retries to the
          requester, push retries to the destination) — the diagnostic a
          stuck chaos run is read from *)
  trace : Tracing.t option;
      (** when set, every arriving object transfer is recorded as a flow *)
  mutable lanes : timer Engine.lane array;
      (** retransmit timers, one fixed-delay lane per attempt level [k]
          (timeout [retry_timeout * 2^k]), made on first use *)
}

let create ?trace ~cfg ~costs ~nodes ~fabric ~metrics eng =
  {
    eng;
    cfg;
    costs;
    nodes;
    fabric;
    metrics;
    trace;
    nprocs = Array.length nodes;
    (* Pending fetches peak around (objects in flight x processors):
       pre-size with the processor count so steady-state operation never
       rehashes. *)
    pending = Hashtbl.create (max 64 (16 * Array.length nodes));
    reliable =
      (match cfg.Config.fault with
      | Some s when Fault.reliable s -> Some s
      | _ -> None);
    pushes = Hashtbl.create 64;
    retrans_by_proc = Array.make (Array.length nodes) 0;
    lanes = [||];
  }

let key t (meta : Meta.t) proc = (meta.Meta.id * t.nprocs) + proc

let post_request t (meta : Meta.t) ~version ~proc =
  Fabric.post t.fabric ~src:proc ~dst:meta.Meta.owner
    ~size:t.costs.Costs.small_msg ~tag:Tag.Request
    (Protocol.Request
       { meta; version; requester = proc; sent_at = Engine.now t.eng })

let push_key (pu : push) = (pu.push_id, pu.push_version, pu.push_dst)

(* Whether a timer still has work. Monotone, as lanes require: a fetch
   that completed or was superseded by a newer version (which armed its
   own timer) stays so, and a push once acknowledged, given up or
   re-tracked never returns to the table. *)
let live t = function
  | Fetch { p; version; _ } -> (not (Ivar.is_full p.ivar)) && p.version = version
  | Push pu -> (
      match Hashtbl.find_opt t.pushes (push_key pu) with
      | Some q -> q == pu
      | None -> false)

(* Requester-driven reliability for fetches: after a timeout of silence,
   re-post the request (to the object's *current* owner — ownership may
   have moved). Owner-driven reliability for pushes: re-post an
   unacknowledged broadcast/eager copy; receivers install idempotently,
   so a push whose ack — not the push itself — was lost is harmless.
   Either re-arms on the next level's lane (exponential backoff) up to
   the retry cap. [s] is the protocol's spec: timers are only armed when
   the protocol is on. *)
let rec arm t s level x =
  if level = Array.length t.lanes then
    t.lanes <-
      Array.append t.lanes
        [|
          Engine.lane t.eng
            (Float.ldexp s.Fault.retry_timeout level)
            ~live:(live t) ~fire:(fire t s level);
        |];
  Engine.arm t.lanes.(level) x

and fire t s level x =
  if level >= s.Fault.max_retries then begin
    t.metrics.Metrics.fetch_give_ups <- t.metrics.Metrics.fetch_give_ups + 1;
    match x with
    | Push pu -> Hashtbl.remove t.pushes (push_key pu)
    | Fetch _ -> ()
  end
  else begin
    t.metrics.Metrics.retransmits <- t.metrics.Metrics.retransmits + 1;
    (match x with
    | Fetch { meta; version; proc; _ } ->
        t.retrans_by_proc.(proc) <- t.retrans_by_proc.(proc) + 1;
        post_request t meta ~version ~proc
    | Push pu ->
        t.retrans_by_proc.(pu.push_dst) <- t.retrans_by_proc.(pu.push_dst) + 1;
        Fabric.post t.fabric ~src:pu.push_src ~dst:pu.push_dst
          ~size:pu.push_size ~tag:pu.push_tag pu.push_body);
    arm t s (level + 1) x
  end

(* Issue a request message for (meta, version) on behalf of [proc]; dedups
   against an in-flight fetch of the same (or newer) version. Returns the
   pending record to wait on. *)
let issue t (meta : Meta.t) ~version ~proc =
  let send_request p =
    t.metrics.Metrics.object_fetches <- t.metrics.Metrics.object_fetches + 1;
    post_request t meta ~version ~proc;
    match t.reliable with
    | Some s -> arm t s 0 (Fetch { meta; p; version; proc })
    | None -> ()
  in
  match Hashtbl.find_opt t.pending (key t meta proc) with
  | Some p when p.version >= version -> p
  | Some p when not (Ivar.is_full p.ivar) ->
      (* A newer version supersedes an in-flight fetch. Bump the existing
         record in place (keeping its ivar) so processes already waiting on
         the superseded fetch are woken when the newer version arrives —
         replacing the record would orphan them forever. Reusing the
         record also keeps this path allocation free. *)
      p.version <- version;
      p.arrived_at <- -1.0;
      send_request p;
      p
  | _ ->
      (* No pending fetch, or the previous one completed (its waiters have
         all been released): start a fresh one. *)
      let p =
        {
          version;
          (* Lazy name: one fetch ivar is created per remote fetch, so
             rendering the label eagerly would put a [sprintf] on the
             fetch hot path; it is only ever read by deadlock reports. *)
          ivar =
            Ivar.create
              ~name_fn:(fun () ->
                Printf.sprintf "fetch:%s@v%d->p%d" meta.Meta.name version proc)
              ();
          arrived_at = -1.0;
        }
      in
      Hashtbl.replace t.pending (key t meta proc) p;
      send_request p;
      p

(* A copy of [version] is now present on [proc] (reply or broadcast).
   Idempotent by construction: [install_copy] only upgrades, and the ivar
   is filled at most once — a duplicated or stale reply (version below the
   pending fetch's) falls through without touching either. *)
let installed t (meta : Meta.t) ~version ~proc =
  Meta.install_copy meta ~proc ~version;
  (* Exception-style lookup: [find_opt] would box a [Some] per delivered
     object message. *)
  match Hashtbl.find t.pending (key t meta proc) with
  | p ->
      if p.version <= version && not (Ivar.is_full p.ivar) then begin
        p.arrived_at <- Engine.now t.eng;
        Ivar.fill t.eng p.ivar ()
      end
  | exception Not_found -> ()

(* Keep the body just pushed from [meta]'s owner to [dst] until [dst]
   acknowledges it. *)
let track_push t (meta : Meta.t) ~version ~dst ~tag body =
  match t.reliable with
  | None -> ()
  | Some s ->
      let pu =
        { push_src = meta.Meta.owner; push_dst = dst;
          push_size = meta.Meta.size; push_id = meta.Meta.id;
          push_version = version; push_tag = tag; push_body = body }
      in
      Hashtbl.replace t.pushes (push_key pu) pu;
      arm t s 0 (Push pu)

(* Tracing hook: an object transfer arrived. Mutates only the trace
   buffer — no engine events, so traced and untraced runs are identical. *)
let record_flow t kind (meta : Meta.t) ~sent_at ~src ~dst =
  match t.trace with
  | Some tr ->
      Tracing.record_flow tr ~kind ~obj:meta.Meta.name ~src ~dst ~sent_at
        ~arrived_at:(Engine.now t.eng)
  | None -> ()

(* A pushed copy (broadcast or eager update) arrived. *)
let pushed t (msg : Protocol.t Fabric.msg) kind (meta : Meta.t) ~version
    ~sent_at =
  record_flow t kind meta ~sent_at ~src:msg.Fabric.src ~dst:msg.Fabric.dst;
  t.metrics.Metrics.fl.Metrics.comm_bytes <-
    t.metrics.Metrics.fl.Metrics.comm_bytes +. float_of_int meta.Meta.size;
  installed t meta ~version ~proc:msg.Fabric.dst;
  (* Under the reliable protocol, confirm the pushed copy landed so the
     owner can stop retransmitting it. Duplicated pushes re-ack — the
     owner treats surplus acks as no-ops. *)
  if t.reliable <> None && msg.Fabric.src <> msg.Fabric.dst then
    Fabric.post t.fabric ~src:msg.Fabric.dst ~dst:msg.Fabric.src
      ~size:t.costs.Costs.small_msg ~tag:Tag.Ack
      (Protocol.Ack { id = meta.Meta.id; version; from = msg.Fabric.dst })

let handle t (msg : Protocol.t Fabric.msg) =
  match msg.Fabric.body with
  | Protocol.Request { meta; version; requester; sent_at } ->
      (* We are the owner: record the requester for the adaptive-broadcast
         detector and reply with the object. A duplicated request just
         produces a second (idempotently installed) reply. The reply
         forwards the request's [sent_at], so the recorded object latency
         spans the whole round trip. *)
      if Meta.note_access meta requester && t.cfg.Config.adaptive_broadcast
      then meta.Meta.broadcast_mode <- true;
      Fabric.post t.fabric ~src:msg.Fabric.dst ~dst:requester
        ~size:meta.Meta.size ~tag:Tag.Obj
        (Protocol.Obj { meta; version; sent_at })
  | Protocol.Obj { meta; version; sent_at } ->
      t.metrics.Metrics.fl.Metrics.comm_bytes <-
        t.metrics.Metrics.fl.Metrics.comm_bytes +. float_of_int meta.Meta.size;
      t.metrics.Metrics.fl.Metrics.object_latency <-
        t.metrics.Metrics.fl.Metrics.object_latency +. (Engine.now t.eng -. sent_at);
      record_flow t Tracing.Fetch meta ~sent_at ~src:msg.Fabric.src
        ~dst:msg.Fabric.dst;
      installed t meta ~version ~proc:msg.Fabric.dst
  | Protocol.Bcast { meta; version; sent_at } ->
      pushed t msg Tracing.Broadcast meta ~version ~sent_at
  | Protocol.Eager { meta; version; sent_at } ->
      pushed t msg Tracing.Eager_update meta ~version ~sent_at
  | Protocol.Ack { id; version; from } -> (
      match Hashtbl.find_opt t.pushes (id, version, from) with
      | Some _ ->
          t.metrics.Metrics.acks <- t.metrics.Metrics.acks + 1;
          Hashtbl.remove t.pushes (id, version, from)
      | None -> () (* duplicate or post-give-up ack: already settled *))
  | Protocol.Assign _ | Protocol.Done _ | Protocol.Ping _ | Protocol.Pong _
  | Protocol.Reassign _ ->
      (* Assign/Done are scheduler traffic; Ping/Pong/Reassign are
         recovery-supervisor traffic. Both are routed by the backend's own
         handler before it delegates here. *)
      invalid_arg "Communicator.handle: not a communicator message"

(* Per-processor (proc, in-flight fetches, retransmits) — the payload of
   deadlock / unrecoverable reports. In-flight fetches are counted from
   the pending table on demand (it is keyed [object id * nprocs + proc]). *)
let stats t =
  let inflight = Array.make t.nprocs 0 in
  Hashtbl.iter
    (fun k (p : pending) ->
      if not (Ivar.is_full p.ivar) then begin
        let proc = k mod t.nprocs in
        inflight.(proc) <- inflight.(proc) + 1
      end)
    t.pending;
  List.init t.nprocs (fun p -> (p, inflight.(p), t.retrans_by_proc.(p)))

let remote_slots (task : Taskrec.t) ~proc =
  let acc = ref [] in
  Array.iteri
    (fun slot ((meta : Meta.t), _) ->
      let version = task.Taskrec.required.(slot) in
      if not (Meta.holds_version meta ~proc ~version) then
        acc := (meta, version) :: !acc)
    task.Taskrec.spec;
  List.rev !acc

(* Interrupt context: no yields between the checks and the issues, so
   iterating the spec directly is equivalent to snapshotting it first —
   and allocates no intermediate list. *)
let prefetch t (task : Taskrec.t) ~proc =
  if (not t.cfg.Config.work_free) && t.cfg.Config.concurrent_fetch then
    Array.iteri
      (fun slot ((meta : Meta.t), _) ->
        let version = task.Taskrec.required.(slot) in
        if not (Meta.holds_version meta ~proc ~version) then begin
          if task.Taskrec.fl.Taskrec.fetch_start < 0.0 then
            task.Taskrec.fl.Taskrec.fetch_start <- Engine.now t.eng;
          ignore (issue t meta ~version ~proc)
        end)
      task.Taskrec.spec

let ensure_local t (task : Taskrec.t) ~proc =
  if not t.cfg.Config.work_free then begin
    let remote = remote_slots task ~proc in
    let last_arrival = ref (-1.0) in
    let wait_one (meta, version) =
      (* May already have arrived between prefetch and now. *)
      if not (Meta.holds_version meta ~proc ~version) then begin
        if task.Taskrec.fl.Taskrec.fetch_start < 0.0 then
          task.Taskrec.fl.Taskrec.fetch_start <- Engine.now t.eng;
        let p = issue t meta ~version ~proc in
        Ivar.read t.eng p.ivar;
        if p.arrived_at > !last_arrival then last_arrival := p.arrived_at
      end
      else begin
        (* Arrived while we were waiting elsewhere: count its arrival. *)
        match Hashtbl.find_opt t.pending (key t meta proc) with
        | Some p when p.arrived_at > !last_arrival -> last_arrival := p.arrived_at
        | _ -> ()
      end
    in
    (* With concurrent fetch, [prefetch] already issued every request and
       we only wait; without it, [wait_one] issues each request and awaits
       its arrival before moving to the next object — serial fetches. *)
    List.iter wait_one remote;
    (* Retire completed fetch records. Without this the table only ever
       grows: objects fetched once and never refetched leave an entry for
       the whole run, and a long simulation carries every fetch it ever
       made. A record whose ivar is full has released all its waiters, so
       removing it cannot orphan anyone; records still in flight (e.g.
       superseded by a newer version another task wants) stay. *)
    List.iter
      (fun ((meta : Meta.t), _) ->
        let k = key t meta proc in
        match Hashtbl.find_opt t.pending k with
        | Some p when Ivar.is_full p.ivar -> Hashtbl.remove t.pending k
        | _ -> ())
      remote;
    if task.Taskrec.fl.Taskrec.fetch_start >= 0.0 then begin
      task.Taskrec.fl.Taskrec.fetch_end <-
        (if !last_arrival >= 0.0 then !last_arrival else Engine.now t.eng);
      t.metrics.Metrics.fl.Metrics.task_latency <-
        t.metrics.Metrics.fl.Metrics.task_latency
        +. (task.Taskrec.fl.Taskrec.fetch_end -. task.Taskrec.fl.Taskrec.fetch_start);
      t.metrics.Metrics.tasks_with_fetch <-
        t.metrics.Metrics.tasks_with_fetch + 1
    end
  end

(* The protocol invariant behind the whole message-passing design: when a
   task starts, its processor holds the required version of every declared
   object. [ensure_local] establishes it; this check catches protocol bugs
   rather than letting them corrupt results silently. *)
let assert_coherent t (task : Taskrec.t) ~proc =
  if not t.cfg.Config.work_free then
    Array.iteri
      (fun slot ((meta : Meta.t), _) ->
        let version = task.Taskrec.required.(slot) in
        if not (Meta.holds_version meta ~proc ~version) then
          failwith
            (Printf.sprintf
               "coherence violation: task %s on processor %d needs %s@v%d \
                but holds v%d"
               task.Taskrec.tname proc meta.Meta.name version
               meta.Meta.copies.(proc)))
      task.Taskrec.spec

let note_accesses t (task : Taskrec.t) ~proc =
  if not t.cfg.Config.work_free then
    Array.iter
      (fun ((meta : Meta.t), _) ->
        if Meta.note_access meta proc && t.cfg.Config.adaptive_broadcast then
          meta.Meta.broadcast_mode <- true)
      task.Taskrec.spec

(* Update-protocol variant (§6): push the committed version to every
   processor that accessed the previous one. *)
let eager_push t (meta : Meta.t) =
  let version = meta.Meta.committed in
  Bytes.iteri
    (fun q used ->
      if used <> '\000' && q <> meta.Meta.owner
         && not (Meta.holds_version meta ~proc:q ~version)
      then begin
        t.metrics.Metrics.eager_transfers <-
          t.metrics.Metrics.eager_transfers + 1;
        let body =
          Protocol.Eager { meta; version; sent_at = Engine.now t.eng }
        in
        Fabric.post t.fabric ~src:meta.Meta.owner ~dst:q ~size:meta.Meta.size
          ~tag:Tag.Eager body;
        track_push t meta ~version ~dst:q ~tag:Tag.Eager body
      end)
    meta.Meta.prev_accessed

let on_write_commit t (meta : Meta.t) (task : Taskrec.t) =
  ignore task;
  if (not t.cfg.Config.work_free) && t.cfg.Config.eager_transfer then
    eager_push t meta;
  if
    (not t.cfg.Config.work_free)
    && t.cfg.Config.adaptive_broadcast && meta.Meta.broadcast_mode
  then begin
    let version = meta.Meta.committed in
    t.metrics.Metrics.broadcasts <- t.metrics.Metrics.broadcasts + 1;
    t.metrics.Metrics.fl.Metrics.broadcast_bytes <-
      t.metrics.Metrics.fl.Metrics.broadcast_bytes
      +. float_of_int (meta.Meta.size * (t.nprocs - 1));
    (* Protocol cost on the owner, paid even in the degenerate
       single-processor case (§5.3): the owner still marshals the object
       for a broadcast that reaches nobody, which is what degrades the
       1-processor Ocean and Panel Cholesky runs in tables 13 and 14. *)
    let marshal =
      if t.nprocs = 1 then
        float_of_int meta.Meta.size /. t.costs.Costs.marshal_bandwidth
      else 0.0
    in
    ignore
      (Mnode.charge t.nodes.(meta.Meta.owner)
         (t.costs.Costs.broadcast_setup +. marshal));
    (* One immutable body serves every destination and, under the
       reliable protocol, every retransmit timer. *)
    let body = Protocol.Bcast { meta; version; sent_at = Engine.now t.eng } in
    Fabric.broadcast t.fabric ~src:meta.Meta.owner ~size:meta.Meta.size
      ~tag:Tag.Bcast body;
    if t.reliable <> None then
      for q = 0 to t.nprocs - 1 do
        if q <> meta.Meta.owner then
          track_push t meta ~version ~dst:q ~tag:Tag.Bcast body
      done
  end
