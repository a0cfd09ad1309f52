(* Unit tests for the two scheduling policies, driven directly. *)

module A = Jade.Access
module M = Jade.Meta
module T = Jade.Taskrec
module C = Jade.Config
module Sshm = Jade.Scheduler_shm
module Smp = Jade.Scheduler_mp

let make_meta ?(nprocs = 4) ?(home = 0) id =
  M.create ~id ~name:(Printf.sprintf "o%d" id) ~size:64 ~home ~nprocs

let make_task ?placement ~tid spec =
  T.create ~tid ~tname:(Printf.sprintf "t%d" tid) ~spec:(Array.of_list spec)
    ~body:(fun _ _ -> ())
    ~work:1.0 ~placement ~now:0.0

let cfg level = { C.default with C.locality = level }

(* ---------------- Shared-memory scheduler ---------------- *)

let test_shm_local_first () =
  let s = Sshm.create (cfg C.Locality) ~nprocs:4 in
  let o = make_meta ~home:2 1 in
  let t = make_task ~tid:1 [ (o, A.Write) ] in
  Sshm.enqueue s t;
  Alcotest.(check int) "target = home" 2 t.T.target;
  Alcotest.(check (option bool)) "proc 2 gets it" (Some true)
    (Option.map (fun x -> x == t) (Sshm.next s ~proc:2))

let test_shm_no_steal_when_disallowed () =
  let s = Sshm.create (cfg C.Locality) ~nprocs:4 in
  let o = make_meta ~home:2 1 in
  Sshm.enqueue s (make_task ~tid:1 [ (o, A.Write) ]);
  Alcotest.(check bool) "proc 0 cannot take without stealing" true
    (Sshm.next s ~allow_steal:false ~proc:0 = None);
  Alcotest.(check bool) "task still queued" true (Sshm.queued s = 1)

let test_shm_steal_takes_last () =
  let s = Sshm.create (cfg C.Locality) ~nprocs:4 in
  let o1 = make_meta ~home:2 1 and o2 = make_meta ~home:2 2 in
  let t1 = make_task ~tid:1 [ (o1, A.Write) ] in
  let t2 = make_task ~tid:2 [ (o1, A.Read) ] in
  let t3 = make_task ~tid:3 [ (o2, A.Write) ] in
  List.iter (Sshm.enqueue s) [ t1; t2; t3 ];
  (* Proc 0 steals: last task of the last object task queue of proc 2. *)
  (match Sshm.next s ~proc:0 with
  | Some t -> Alcotest.(check int) "stole last otq's task" 3 t.T.tid
  | None -> Alcotest.fail "expected a steal");
  Alcotest.(check int) "steal counted" 1 (Sshm.steals s);
  (* Next steal takes the last task of the remaining queue. *)
  (match Sshm.next s ~proc:1 with
  | Some t ->
      Alcotest.(check int) "stole tail of first otq" 2 t.T.tid;
      Alcotest.(check bool) "marked stolen" true t.T.stolen
  | None -> Alcotest.fail "expected a second steal");
  (* The owner still finds its front task. *)
  match Sshm.next s ~proc:2 with
  | Some t -> Alcotest.(check int) "owner gets front" 1 t.T.tid
  | None -> Alcotest.fail "owner should find a task"

let test_shm_same_object_fifo () =
  let s = Sshm.create (cfg C.Locality) ~nprocs:2 in
  let o = make_meta ~home:1 1 in
  let tasks = List.init 4 (fun i -> make_task ~tid:i [ (o, A.Read) ]) in
  List.iter (Sshm.enqueue s) tasks;
  let order =
    List.init 4 (fun _ ->
        match Sshm.next s ~proc:1 with Some t -> t.T.tid | None -> -1)
  in
  Alcotest.(check (list int)) "object task queue is FIFO" [ 0; 1; 2; 3 ] order

let test_shm_no_locality_fcfs () =
  let s = Sshm.create (cfg C.No_locality) ~nprocs:4 in
  let o = make_meta ~home:3 1 in
  let t1 = make_task ~tid:1 [ (o, A.Read) ] in
  let t2 = make_task ~tid:2 [ (o, A.Read) ] in
  Sshm.enqueue s t1;
  Sshm.enqueue s t2;
  (match Sshm.next s ~proc:0 with
  | Some t -> Alcotest.(check int) "any proc pops FIFO" 1 t.T.tid
  | None -> Alcotest.fail "expected task");
  Alcotest.(check int) "no steals at FCFS" 0 (Sshm.steals s)

let test_shm_placement_pinned () =
  let s = Sshm.create (cfg C.Task_placement) ~nprocs:4 in
  let o = make_meta ~home:0 1 in
  let t = make_task ~placement:3 ~tid:1 [ (o, A.Write) ] in
  Sshm.enqueue s t;
  Alcotest.(check int) "target = placement" 3 t.T.target;
  Alcotest.(check bool) "other procs never see it" true
    (Sshm.next s ~proc:1 = None && Sshm.next s ~proc:0 = None);
  match Sshm.next s ~proc:3 with
  | Some got -> Alcotest.(check int) "pinned proc takes it" 1 got.T.tid
  | None -> Alcotest.fail "placement queue empty"

let test_shm_cluster_aware_stealing () =
  (* 8 processors in clusters of 4. Tasks sit on processors 2 (thief's
     cluster) and 4 (other cluster). Processor 3 must steal from its own
     cluster first even though cyclic order would reach 4 sooner. *)
  let s = Sshm.create ~cluster_size:4 (cfg C.Locality) ~nprocs:8 in
  let o_far = make_meta ~nprocs:8 ~home:4 1 in
  let o_near = make_meta ~nprocs:8 ~home:2 2 in
  let far = make_task ~tid:1 [ (o_far, A.Write) ] in
  let near = make_task ~tid:2 [ (o_near, A.Write) ] in
  Sshm.enqueue s far;
  Sshm.enqueue s near;
  (match Sshm.next s ~proc:3 with
  | Some t -> Alcotest.(check int) "stole from own cluster first" 2 t.T.tid
  | None -> Alcotest.fail "expected steal");
  match Sshm.next s ~proc:3 with
  | Some t -> Alcotest.(check int) "then the far cluster" 1 t.T.tid
  | None -> Alcotest.fail "expected second steal"

let test_shm_cluster_size_one_is_cyclic () =
  let s = Sshm.create ~cluster_size:1 (cfg C.Locality) ~nprocs:4 in
  let o1 = make_meta ~home:1 1 and o3 = make_meta ~home:3 2 in
  Sshm.enqueue s (make_task ~tid:1 [ (o1, A.Write) ]);
  Sshm.enqueue s (make_task ~tid:2 [ (o3, A.Write) ]);
  match Sshm.next s ~proc:0 with
  | Some t -> Alcotest.(check int) "plain cyclic order" 1 t.T.tid
  | None -> Alcotest.fail "expected steal"

(* ---------------- Message-passing scheduler ---------------- *)

let mp_task ?placement ~tid ~owner () =
  let o = make_meta ~home:0 tid in
  o.M.owner <- owner;
  make_task ?placement ~tid [ (o, A.Write) ]

let test_mp_prefers_target () =
  let s = Smp.create (cfg C.Locality) ~nprocs:4 in
  let t = mp_task ~tid:1 ~owner:2 () in
  (match Smp.on_enabled s t with
  | `Assign p -> Alcotest.(check int) "assigned to owner of locality object" 2 p
  | `Pooled -> Alcotest.fail "should assign when all idle");
  Alcotest.(check int) "load counted" 1 (Smp.load s 2)

let test_mp_least_loaded_fallback () =
  let s = Smp.create (cfg C.Locality) ~nprocs:3 in
  (* Fill the target processor. *)
  (match Smp.on_enabled s (mp_task ~tid:1 ~owner:1 ()) with
  | `Assign 1 -> ()
  | _ -> Alcotest.fail "first goes to target");
  match Smp.on_enabled s (mp_task ~tid:2 ~owner:1 ()) with
  | `Assign p ->
      Alcotest.(check bool) "went to a least-loaded proc" true (p = 0 || p = 2)
  | `Pooled -> Alcotest.fail "capacity remains"

let test_mp_pools_when_full () =
  let s = Smp.create (cfg C.Locality) ~nprocs:2 in
  ignore (Smp.on_enabled s (mp_task ~tid:1 ~owner:0 ()));
  ignore (Smp.on_enabled s (mp_task ~tid:2 ~owner:1 ()));
  (match Smp.on_enabled s (mp_task ~tid:3 ~owner:1 ()) with
  | `Pooled -> ()
  | `Assign _ -> Alcotest.fail "should pool when every proc has target tasks");
  Alcotest.(check int) "pool size" 1 (Smp.pooled s)

let test_mp_completion_prefers_matching_target () =
  let s = Smp.create (cfg C.Locality) ~nprocs:2 in
  ignore (Smp.on_enabled s (mp_task ~tid:1 ~owner:0 ()));
  ignore (Smp.on_enabled s (mp_task ~tid:2 ~owner:1 ()));
  let t3 = mp_task ~tid:3 ~owner:1 () in
  let t4 = mp_task ~tid:4 ~owner:0 () in
  ignore (Smp.on_enabled s t3);
  ignore (Smp.on_enabled s t4);
  Alcotest.(check int) "both pooled" 2 (Smp.pooled s);
  (* Proc 0 completes: it should receive t4 (target 0), not t3 (first in). *)
  match Smp.on_completed s ~proc:0 with
  | [ t ] -> Alcotest.(check int) "target-matching task handed out" 4 t.T.tid
  | l -> Alcotest.fail (Printf.sprintf "expected one task, got %d" (List.length l))

let test_mp_target_two_keeps_pipeline () =
  let cfg2 = { (cfg C.Locality) with C.target_tasks = 2 } in
  let s = Smp.create cfg2 ~nprocs:2 in
  let assigned = ref 0 in
  for tid = 1 to 4 do
    match Smp.on_enabled s (mp_task ~tid ~owner:0 ()) with
    | `Assign _ -> incr assigned
    | `Pooled -> ()
  done;
  Alcotest.(check int) "assigns up to 2 per proc" 4 !assigned;
  match Smp.on_enabled s (mp_task ~tid:5 ~owner:0 ()) with
  | `Pooled -> ()
  | `Assign _ -> Alcotest.fail "fifth task must pool"

let test_mp_no_locality_idle_only () =
  let s = Smp.create (cfg C.No_locality) ~nprocs:2 in
  (match Smp.on_enabled s (mp_task ~tid:1 ~owner:1 ()) with
  | `Assign p -> Alcotest.(check int) "FCFS to first idle" 0 p
  | `Pooled -> Alcotest.fail "idle procs exist");
  (match Smp.on_enabled s (mp_task ~tid:2 ~owner:0 ()) with
  | `Assign p -> Alcotest.(check int) "next idle" 1 p
  | `Pooled -> Alcotest.fail "idle procs exist");
  match Smp.on_enabled s (mp_task ~tid:3 ~owner:0 ()) with
  | `Pooled -> ()
  | `Assign _ -> Alcotest.fail "no idle procs left"

let test_mp_placement_assigns_directly () =
  let s = Smp.create (cfg C.Task_placement) ~nprocs:4 in
  ignore (Smp.on_enabled s (mp_task ~tid:1 ~owner:0 ~placement:3 ()));
  match Smp.on_enabled s (mp_task ~tid:2 ~owner:0 ~placement:3 ()) with
  | `Assign p ->
      Alcotest.(check int) "placed even when loaded" 3 p;
      Alcotest.(check int) "load" 2 (Smp.load s 3)
  | `Pooled -> Alcotest.fail "placement bypasses load gating"

(* The list-based policy the scheduler replaced, kept as the reference it
   must match choice for choice: the least-loaded processors as a list
   (lowest index first), the pool as a list in enable order, and the
   hand-out as a front-most search for a task targeted at the freed
   processor, else the pool's first task. *)
module Reference = struct
  type t = {
    cfg : C.t;
    nprocs : int;
    loads : int array;
    mutable pool : T.t list;
    down : bool array;
  }

  let create cfg ~nprocs =
    { cfg; nprocs; loads = Array.make nprocs 0; pool = [];
      down = Array.make nprocs false }

  let least_loaded t =
    let live = List.filter (fun p -> not t.down.(p)) (List.init t.nprocs Fun.id) in
    let m = List.fold_left (fun m p -> min m t.loads.(p)) max_int live in
    (m, List.filter (fun p -> t.loads.(p) = m) live)

  let assign t p =
    t.loads.(p) <- t.loads.(p) + 1;
    `Assign p

  let survivor_for t =
    match least_loaded t with
    | _, p :: _ -> p
    | _, [] -> invalid_arg "no live processor"

  let on_enabled t (task : T.t) =
    task.T.target <-
      (match (task.T.placement, T.locality_object task) with
      | Some p, _ -> p
      | None, Some meta -> meta.M.owner
      | None, None -> 0);
    if t.down.(task.T.target) then task.T.target <- survivor_for t;
    let pool () =
      t.pool <- t.pool @ [ task ];
      `Pooled
    in
    match task.T.placement with
    | Some p -> assign t (if t.down.(p) then survivor_for t else p)
    | None -> (
        let m, least = least_loaded t in
        match t.cfg.C.locality with
        | C.No_locality -> (
            match least with p :: _ when m = 0 -> assign t p | _ -> pool ())
        | C.Locality | C.Task_placement ->
            if m < t.cfg.C.target_tasks then
              assign t
                (if List.mem task.T.target least then task.T.target
                 else List.hd least)
            else pool ())

  let on_completed t ~proc =
    t.loads.(proc) <- t.loads.(proc) - 1;
    let cap =
      match t.cfg.C.locality with C.No_locality -> 1 | _ -> t.cfg.C.target_tasks
    in
    let rec hand acc =
      let pick =
        match List.find_opt (fun (x : T.t) -> x.T.target = proc) t.pool with
        | Some _ as x -> x
        | None -> List.nth_opt t.pool 0
      in
      match pick with
      | Some x when t.loads.(proc) < cap ->
          t.pool <- List.filter (fun y -> y != x) t.pool;
          t.loads.(proc) <- t.loads.(proc) + 1;
          hand (x :: acc)
      | _ -> List.rev acc
    in
    hand []
end

(* Random enable/complete/crash/restart sequences drive the scheduler and
   the reference side by side, each on its own copies of the tasks: every
   enable must give the same decision and target, every completion hand
   out the same tasks in the same order, and the loads and pool sizes
   must agree after every step. An op is three random ints, read against
   the state when it runs: enables (with a random locality-object owner,
   a sixth of them explicitly placed), completions on a random loaded
   processor, down processors (one always stays up) and restarts. *)
let mp_reference_prop =
  let levels = [| C.Locality; C.Task_placement; C.No_locality |] in
  QCheck.Test.make ~name:"scheduler matches the list-based reference" ~count:500
    QCheck.(
      quad (int_range 1 8) (int_bound 2) (int_range 1 3)
        (list_of_size Gen.(int_range 1 200) (triple (int_bound 9) small_nat small_nat)))
    (fun (nprocs, level, target_tasks, ops) ->
      let cfg = { C.default with C.locality = levels.(level); C.target_tasks } in
      let s = Smp.create cfg ~nprocs and r = Reference.create cfg ~nprocs in
      let tid = ref 0 in
      let tids = List.map (fun (t : T.t) -> t.T.tid) in
      let step (kind, a, b) =
        if kind <= 4 then begin
          incr tid;
          let placement = if b mod 6 = 0 then Some (a mod nprocs) else None in
          let task () = mp_task ?placement ~tid:!tid ~owner:(b mod nprocs) () in
          let ts = task () and tr = task () in
          let ds = Smp.on_enabled s ts and dr = Reference.on_enabled r tr in
          if ds <> dr || ts.T.target <> tr.T.target then
            QCheck.Test.fail_reportf "task %d: decisions or targets differ" !tid
        end
        else if kind <= 7 then begin
          let loaded = List.filter (fun p -> r.Reference.loads.(p) > 0) (List.init nprocs Fun.id) in
          if loaded <> [] then begin
            let proc = List.nth loaded (a mod List.length loaded) in
            let hs = tids (Smp.on_completed s ~proc) in
            let hr = tids (Reference.on_completed r ~proc) in
            if hs <> hr then
              QCheck.Test.fail_reportf "completion on %d: handed [%s], reference [%s]" proc
                (String.concat ";" (List.map string_of_int hs))
                (String.concat ";" (List.map string_of_int hr))
          end
        end
        else
          let p = a mod nprocs in
          let live = List.filter (fun q -> not r.Reference.down.(q)) (List.init nprocs Fun.id) in
          if kind = 8 && live <> [ p ] && not r.Reference.down.(p) then begin
            Smp.mark_down s p;
            r.Reference.down.(p) <- true
          end
          else if kind = 9 then begin
            Smp.mark_up s p;
            r.Reference.down.(p) <- false
          end
      in
      List.iter
        (fun op ->
          step op;
          for p = 0 to nprocs - 1 do
            if Smp.load s p <> r.Reference.loads.(p) then
              QCheck.Test.fail_reportf "load of %d differs" p
          done;
          if Smp.pooled s <> List.length r.Reference.pool then
            QCheck.Test.fail_reportf "pool sizes differ")
        ops;
      true)

let () =
  Alcotest.run "schedulers"
    [
      ( "shared-memory",
        [
          Alcotest.test_case "local first" `Quick test_shm_local_first;
          Alcotest.test_case "no steal when disallowed" `Quick
            test_shm_no_steal_when_disallowed;
          Alcotest.test_case "steal takes last" `Quick test_shm_steal_takes_last;
          Alcotest.test_case "object queue FIFO" `Quick test_shm_same_object_fifo;
          Alcotest.test_case "no-locality FCFS" `Quick test_shm_no_locality_fcfs;
          Alcotest.test_case "placement pinned" `Quick test_shm_placement_pinned;
          Alcotest.test_case "cluster-aware stealing" `Quick
            test_shm_cluster_aware_stealing;
          Alcotest.test_case "cluster size 1 cyclic" `Quick
            test_shm_cluster_size_one_is_cyclic;
        ] );
      ( "message-passing",
        [
          Alcotest.test_case "prefers target" `Quick test_mp_prefers_target;
          Alcotest.test_case "least-loaded fallback" `Quick
            test_mp_least_loaded_fallback;
          Alcotest.test_case "pools when full" `Quick test_mp_pools_when_full;
          Alcotest.test_case "completion handout" `Quick
            test_mp_completion_prefers_matching_target;
          Alcotest.test_case "target two" `Quick test_mp_target_two_keeps_pipeline;
          Alcotest.test_case "no-locality idle only" `Quick
            test_mp_no_locality_idle_only;
          Alcotest.test_case "placement direct" `Quick
            test_mp_placement_assigns_directly;
          QCheck_alcotest.to_alcotest mp_reference_prop;
        ] );
    ]
