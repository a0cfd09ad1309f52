(* Unit and property tests for the queue-based synchronizer: readiness
   rules, version assignment, serial-order preservation, the
   replication-off read serialization. These drive the synchronizer
   directly (no runtime), playing the role of the scheduler/dispatcher. *)

module A = Jade.Access
module M = Jade.Meta
module T = Jade.Taskrec
module S = Jade.Synchronizer

let make_meta ?(nprocs = 4) id =
  M.create ~id ~name:(Printf.sprintf "o%d" id) ~size:64 ~home:0 ~nprocs

let make_task ~tid spec =
  T.create ~tid ~tname:(Printf.sprintf "t%d" tid) ~spec:(Array.of_list spec)
    ~body:(fun _ _ -> ())
    ~work:1.0 ~placement:None ~now:0.0

(* A little harness: tracks enabled order; completing a task requires it to
   have been enabled. *)
type harness = {
  sync : S.t;
  mutable enabled : T.t list;  (** most recent first *)
}

let harness ?(replication = true) () =
  let h = ref None in
  let sync =
    S.create ~replication
      ~on_enable:(fun task ->
        let h = Option.get !h in
        h.enabled <- task :: h.enabled)
      ~on_write_commit:(fun _ _ -> ())
  in
  let v = { sync; enabled = [] } in
  h := Some v;
  v

let is_enabled h task = List.memq task h.enabled

let complete h ?(proc = 0) task =
  task.T.ran_on <- proc;
  S.complete h.sync task

let test_independent_tasks_enable_immediately () =
  let h = harness () in
  let o1 = make_meta 1 and o2 = make_meta 2 in
  let t1 = make_task ~tid:1 [ (o1, A.Write) ] in
  let t2 = make_task ~tid:2 [ (o2, A.Write) ] in
  S.add_task h.sync t1;
  S.add_task h.sync t2;
  Alcotest.(check bool) "t1 enabled" true (is_enabled h t1);
  Alcotest.(check bool) "t2 enabled" true (is_enabled h t2)

let test_writer_blocks_writer () =
  let h = harness () in
  let o = make_meta 1 in
  let t1 = make_task ~tid:1 [ (o, A.Write) ] in
  let t2 = make_task ~tid:2 [ (o, A.Write) ] in
  S.add_task h.sync t1;
  S.add_task h.sync t2;
  Alcotest.(check bool) "t2 blocked" false (is_enabled h t2);
  complete h t1;
  Alcotest.(check bool) "t2 enabled after t1" true (is_enabled h t2)

let test_readers_share () =
  let h = harness () in
  let o = make_meta 1 in
  let readers = List.init 5 (fun i -> make_task ~tid:i [ (o, A.Read) ]) in
  List.iter (S.add_task h.sync) readers;
  List.iter
    (fun t -> Alcotest.(check bool) "reader enabled" true (is_enabled h t))
    readers

let test_writer_waits_for_all_readers () =
  let h = harness () in
  let o = make_meta 1 in
  let r1 = make_task ~tid:1 [ (o, A.Read) ] in
  let r2 = make_task ~tid:2 [ (o, A.Read) ] in
  let w = make_task ~tid:3 [ (o, A.Write) ] in
  S.add_task h.sync r1;
  S.add_task h.sync r2;
  S.add_task h.sync w;
  Alcotest.(check bool) "writer blocked" false (is_enabled h w);
  complete h r1;
  Alcotest.(check bool) "still blocked by r2" false (is_enabled h w);
  complete h r2;
  Alcotest.(check bool) "enabled after both readers" true (is_enabled h w)

let test_reader_after_writer_blocked () =
  let h = harness () in
  let o = make_meta 1 in
  let w = make_task ~tid:1 [ (o, A.Write) ] in
  let r = make_task ~tid:2 [ (o, A.Read) ] in
  S.add_task h.sync w;
  S.add_task h.sync r;
  Alcotest.(check bool) "reader blocked by writer" false (is_enabled h r);
  complete h w;
  Alcotest.(check bool) "reader enabled" true (is_enabled h r)

let test_versions_assigned_in_serial_order () =
  let h = harness () in
  let o = make_meta 1 in
  let w1 = make_task ~tid:1 [ (o, A.Write) ] in
  let r1 = make_task ~tid:2 [ (o, A.Read) ] in
  let w2 = make_task ~tid:3 [ (o, A.Read_write) ] in
  let r2 = make_task ~tid:4 [ (o, A.Read) ] in
  List.iter (S.add_task h.sync) [ w1; r1; w2; r2 ];
  Alcotest.(check int) "w1 produces v1" 1 w1.T.produces.(0);
  Alcotest.(check int) "r1 requires v1" 1 r1.T.required.(0);
  Alcotest.(check int) "w2 requires v1" 1 w2.T.required.(0);
  Alcotest.(check int) "w2 produces v2" 2 w2.T.produces.(0);
  Alcotest.(check int) "r2 requires v2" 2 r2.T.required.(0)

let test_commit_updates_ownership () =
  let h = harness () in
  let o = make_meta 1 in
  let w = make_task ~tid:1 [ (o, A.Write) ] in
  S.add_task h.sync w;
  complete h ~proc:3 w;
  Alcotest.(check int) "owner moved" 3 o.M.owner;
  Alcotest.(check int) "version committed" 1 o.M.committed;
  Alcotest.(check int) "writer holds copy" 1 o.M.copies.(3)

let test_duplicate_spec_rejected () =
  let h = harness () in
  let o = make_meta 1 in
  let t = make_task ~tid:1 [ (o, A.Read); (o, A.Write) ] in
  Alcotest.check_raises "duplicate declaration"
    (Invalid_argument "Synchronizer.add_task: object o1 declared twice")
    (fun () -> S.add_task h.sync t)

let test_replication_off_serializes_readers () =
  let h = harness ~replication:false () in
  let o = make_meta 1 in
  let r1 = make_task ~tid:1 [ (o, A.Read) ] in
  let r2 = make_task ~tid:2 [ (o, A.Read) ] in
  S.add_task h.sync r1;
  S.add_task h.sync r2;
  Alcotest.(check bool) "r1 enabled" true (is_enabled h r1);
  Alcotest.(check bool) "r2 serialized" false (is_enabled h r2);
  complete h r1;
  Alcotest.(check bool) "r2 enabled after r1" true (is_enabled h r2)

let test_outstanding_accounting () =
  let h = harness () in
  let o1 = make_meta 1 and o2 = make_meta 2 in
  let t = make_task ~tid:1 [ (o1, A.Write); (o2, A.Read) ] in
  S.add_task h.sync t;
  Alcotest.(check int) "two entries" 2 (S.outstanding h.sync);
  complete h t;
  Alcotest.(check int) "drained" 0 (S.outstanding h.sync)

(* Property: for random task sets, executing tasks greedily (any enabled
   task, in a shuffled order) preserves the serial order of every
   conflicting pair, and object versions end at their writer counts. *)
let conflict_order_prop =
  QCheck.Test.make ~name:"conflicting pairs execute in creation order" ~count:120
    QCheck.(pair (int_range 1 6) (pair small_int (int_range 2 25)))
    (fun (nobjs, (seed, ntasks)) ->
      let g = Jade_sim.Srandom.create seed in
      let objs = Array.init nobjs (fun i -> make_meta (i + 1)) in
      let h = harness () in
      let tasks =
        List.init ntasks (fun tid ->
            (* Random spec over distinct objects. *)
            let count = 1 + Jade_sim.Srandom.int g (min 3 nobjs) in
            let order = Array.init nobjs Fun.id in
            Jade_sim.Srandom.shuffle g order;
            let spec =
              List.init count (fun k ->
                  let mode =
                    match Jade_sim.Srandom.int g 3 with
                    | 0 -> A.Read
                    | 1 -> A.Write
                    | _ -> A.Read_write
                  in
                  (objs.(order.(k)), mode))
            in
            make_task ~tid spec)
      in
      List.iter (S.add_task h.sync) tasks;
      (* Greedy random execution. *)
      let executed = ref [] in
      let done_set = Hashtbl.create 16 in
      let rec run () =
        let ready =
          List.filter
            (fun t -> is_enabled h t && not (Hashtbl.mem done_set t.T.tid))
            tasks
        in
        match ready with
        | [] -> ()
        | _ ->
            let arr = Array.of_list ready in
            Jade_sim.Srandom.shuffle g arr;
            let t = arr.(0) in
            Hashtbl.add done_set t.T.tid ();
            executed := t :: !executed;
            complete h t;
            run ()
      in
      run ();
      let order = List.rev !executed in
      (* All tasks ran. *)
      List.length order = ntasks
      &&
      (* Conflicting pairs respect creation order. *)
      let pos = Hashtbl.create 16 in
      List.iteri (fun i t -> Hashtbl.add pos t.T.tid i) order;
      let conflict t1 t2 =
        Array.exists
          (fun (o1, m1) ->
            Array.exists
              (fun (o2, m2) -> o1 == o2 && A.conflicts m1 m2)
              t2.T.spec)
          t1.T.spec
      in
      List.for_all
        (fun t1 ->
          List.for_all
            (fun t2 ->
              if t1.T.tid < t2.T.tid && conflict t1 t2 then
                Hashtbl.find pos t1.T.tid < Hashtbl.find pos t2.T.tid
              else true)
            tasks)
        tasks
      &&
      (* Final committed versions equal writer counts. *)
      Array.for_all
        (fun (o : M.t) -> o.M.committed = o.M.writers_created)
        objs)

(* Retiring a blocked task's declarations would take them from behind the
   head epoch, so completing a task that is not running is refused. *)
let test_complete_requires_running () =
  let h = harness () in
  let o = make_meta 1 in
  let w1 = make_task ~tid:1 [ (o, A.Write) ] in
  let w2 = make_task ~tid:2 [ (o, A.Write) ] in
  S.add_task h.sync w1;
  S.add_task h.sync w2;
  Alcotest.check_raises "blocked task"
    (Invalid_argument "Synchronizer.complete: task never ran") (fun () ->
      complete h w2);
  complete h w1;
  Alcotest.check_raises "second completion"
    (Invalid_argument "Synchronizer.complete: task already completed")
    (fun () -> complete h w1);
  Alcotest.(check int) "w2 still queued" 1 (S.outstanding h.sync)

(* 10,000 readers of one object, retired newest first: the writer behind
   them waits for the last one, and no retirement walks the queue. *)
let test_many_readers_retire_in_reverse () =
  let h = harness () in
  let o = make_meta 1 in
  let readers = Array.init 10_000 (fun i -> make_task ~tid:i [ (o, A.Read) ]) in
  let w = make_task ~tid:10_000 [ (o, A.Write) ] in
  Array.iter (S.add_task h.sync) readers;
  S.add_task h.sync w;
  Alcotest.(check int) "every reader enabled" 10_000 (S.enabled_count h.sync);
  for i = Array.length readers - 1 downto 1 do
    complete h readers.(i)
  done;
  Alcotest.(check bool) "writer waits for the oldest reader" false (is_enabled h w);
  complete h readers.(0);
  Alcotest.(check bool) "writer enabled" true (is_enabled h w);
  Alcotest.(check int) "only the writer queued" 1 (S.outstanding h.sync)

(* Reference model of the readiness rules as a walk over each object's
   declaration queue: a declaration is ready when no conflicting one
   precedes it, and a retirement re-walks the queue front to back. *)
module Reference = struct
  type decl = { tid : int; mode : A.mode; mutable ready : bool }

  type t = {
    replication : bool;
    queues : (int, decl list) Hashtbl.t;  (** object id -> serial order *)
    writers : (int, int) Hashtbl.t;  (** object id -> versions promised *)
    pending : (int, int) Hashtbl.t;  (** tid -> declarations not ready *)
    mutable enabled : int list;  (** most recent first *)
    mutable outstanding : int;
  }

  let create ~replication =
    {
      replication;
      queues = Hashtbl.create 8;
      writers = Hashtbl.create 8;
      pending = Hashtbl.create 8;
      enabled = [];
      outstanding = 0;
    }

  let effective t (m : A.mode) =
    if m = A.Read && not t.replication then A.Read_write else m

  let queue t id = Option.value (Hashtbl.find_opt t.queues id) ~default:[]

  let enable t tid = t.enabled <- tid :: t.enabled

  (* [(required, produces)] per declaration, in spec order. *)
  let add t tid spec =
    let versions =
      List.map
        (fun (id, mode) ->
          let required = Option.value (Hashtbl.find_opt t.writers id) ~default:0 in
          let produces =
            if A.is_write mode then begin
              Hashtbl.replace t.writers id (required + 1);
              required + 1
            end
            else -1
          in
          let q = queue t id in
          let ready =
            not
              (List.exists
                 (fun d -> A.conflicts (effective t d.mode) (effective t mode))
                 q)
          in
          Hashtbl.replace t.queues id (q @ [ { tid; mode; ready } ]);
          t.outstanding <- t.outstanding + 1;
          if not ready then
            Hashtbl.replace t.pending tid
              (1 + Option.value (Hashtbl.find_opt t.pending tid) ~default:0);
          (required, produces))
        spec
    in
    if not (Hashtbl.mem t.pending tid) then enable t tid;
    versions

  let retire t tid id =
    let q = List.filter (fun d -> d.tid <> tid) (queue t id) in
    Hashtbl.replace t.queues id q;
    t.outstanding <- t.outstanding - 1;
    let rec walk before = function
      | [] -> ()
      | d :: rest ->
          if
            (not d.ready)
            && not
                 (List.exists
                    (fun e -> A.conflicts (effective t e.mode) (effective t d.mode))
                    before)
          then begin
            d.ready <- true;
            let n = Hashtbl.find t.pending d.tid - 1 in
            if n = 0 then begin
              Hashtbl.remove t.pending d.tid;
              enable t d.tid
            end
            else Hashtbl.replace t.pending d.tid n
          end;
          walk (d :: before) rest
    in
    walk [] q
end

(* Differential property: random programs over a few objects, with tasks
   created, completed in a random order among the enabled ones and
   released mid-task, interleaved at random. After every step the
   synchronizer and the reference agree on the enable order and the
   outstanding count; at the end, on every required/produced version. *)
let matches_reference_prop =
  QCheck.Test.make ~name:"epochs match the walk-based reference" ~count:300
    QCheck.(quad bool (int_range 1 4) (int_range 1 40) small_int)
    (fun (replication, nobjs, ntasks, seed) ->
      let g = Jade_sim.Srandom.create seed in
      let objs = Array.init nobjs (fun i -> make_meta (i + 1)) in
      let specs =
        Array.init ntasks (fun _ ->
            let order = Array.init nobjs Fun.id in
            Jade_sim.Srandom.shuffle g order;
            List.init
              (1 + Jade_sim.Srandom.int g nobjs)
              (fun k ->
                let mode =
                  match Jade_sim.Srandom.int g 3 with
                  | 0 -> A.Read
                  | 1 -> A.Write
                  | _ -> A.Read_write
                in
                (order.(k), mode)))
      in
      let tasks =
        Array.mapi
          (fun tid spec ->
            make_task ~tid (List.map (fun (k, m) -> (objs.(k), m)) spec))
          specs
      in
      let h = harness ~replication () in
      let r = Reference.create ~replication in
      let versions = Array.make ntasks [] in
      let created = ref 0 and completed = Hashtbl.create 16 in
      let agree () =
        List.map (fun t -> t.T.tid) h.enabled = r.Reference.enabled
        && S.outstanding h.sync = r.Reference.outstanding
      in
      let rec step () =
        let running =
          List.filter (fun t -> not (Hashtbl.mem completed t.T.tid)) h.enabled
          |> Array.of_list
        in
        let can_create = !created < ntasks in
        if Array.length running = 0 && not can_create then true
        else if can_create && (Array.length running = 0 || Jade_sim.Srandom.bool g)
        then begin
          let tid = !created in
          incr created;
          S.add_task h.sync tasks.(tid);
          versions.(tid) <-
            Reference.add r tid
              (List.map (fun (k, m) -> (objs.(k).M.id, m)) specs.(tid));
          agree () && step ()
        end
        else begin
          let t = running.(Jade_sim.Srandom.int g (Array.length running)) in
          t.T.ran_on <- 0;
          let open_slots =
            List.filter (fun i -> not t.T.released.(i))
              (List.init (Array.length t.T.spec) Fun.id)
          in
          (match open_slots with
          | _ :: _ :: _ when Jade_sim.Srandom.int g 3 = 0 ->
              let slot =
                List.nth open_slots
                  (Jade_sim.Srandom.int g (List.length open_slots))
              in
              let meta = fst t.T.spec.(slot) in
              S.release h.sync t meta;
              Reference.retire r t.T.tid meta.M.id
          | _ ->
              S.complete h.sync t;
              List.iter
                (fun i -> Reference.retire r t.T.tid (fst t.T.spec.(i)).M.id)
                open_slots;
              Hashtbl.replace completed t.T.tid ());
          agree () && step ()
        end
      in
      step ()
      && Hashtbl.length completed = ntasks
      && Array.for_all
           (fun t ->
             List.for_all2
               (fun i (required, produces) ->
                 t.T.required.(i) = required && t.T.produces.(i) = produces)
               (List.init (Array.length t.T.spec) Fun.id)
               versions.(t.T.tid))
           tasks)

let qcheck t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "synchronizer"
    [
      ( "readiness",
        [
          Alcotest.test_case "independent enable" `Quick
            test_independent_tasks_enable_immediately;
          Alcotest.test_case "writer blocks writer" `Quick test_writer_blocks_writer;
          Alcotest.test_case "readers share" `Quick test_readers_share;
          Alcotest.test_case "writer waits for readers" `Quick
            test_writer_waits_for_all_readers;
          Alcotest.test_case "reader after writer" `Quick
            test_reader_after_writer_blocked;
        ] );
      ( "versions",
        [
          Alcotest.test_case "serial order versions" `Quick
            test_versions_assigned_in_serial_order;
          Alcotest.test_case "commit ownership" `Quick test_commit_updates_ownership;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "duplicate spec" `Quick test_duplicate_spec_rejected;
          Alcotest.test_case "replication off" `Quick
            test_replication_off_serializes_readers;
          Alcotest.test_case "outstanding" `Quick test_outstanding_accounting;
          Alcotest.test_case "completion requires a running task" `Quick
            test_complete_requires_running;
          Alcotest.test_case "10,000 readers retire in reverse" `Quick
            test_many_readers_retire_in_reverse;
        ] );
      ( "properties",
        [ qcheck conflict_order_prop; qcheck matches_reference_prop ] );
    ]
