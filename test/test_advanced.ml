(* Tests for the advanced runtime features: mid-task access release with
   progressive work charging (§2's advanced access specification
   statements, available to [withonly_staged] bodies) and the eager update
   protocol (§6). *)

module R = Jade.Runtime

let flops_1s_ipsc = 8.0e6 (* one virtual second on the iPSC/860 model *)

(* Producer computes for 2 virtual seconds but releases its output after
   0.5; the consumer (1.5s) can overlap the rest. *)
(* Producer and consumer live on workers 1 and 2 so the main processor is
   free to schedule the consumer the moment the release enables it. *)
let pipeline_program ~use_release rt =
  let a = R.create_object rt ~home:1 ~name:"a" ~size:1000 (Array.make 4 0.0) in
  R.withonly_staged rt ~placement:1 ~name:"producer" ~work:(2.0 *. flops_1s_ipsc)
    ~accesses:(fun s -> Jade.Spec.wr s a)
    (fun env ->
      let arr = R.wr env a in
      arr.(0) <- 42.0;
      if use_release then begin
        R.work env (0.5 *. flops_1s_ipsc);
        R.release env a
      end
      (* the rest of the work is charged when the body returns *));
  R.withonly rt ~placement:2 ~name:"consumer" ~work:(1.5 *. flops_1s_ipsc)
    ~accesses:(fun s -> Jade.Spec.rd s a)
    (fun env -> assert ((R.rd env a).(0) = 42.0));
  R.drain rt

let test_release_overlaps_pipeline () =
  let run use_release =
    (R.run ~machine:R.ipsc860 ~nprocs:3 (pipeline_program ~use_release))
      .Jade.Metrics.elapsed_s
  in
  let without = run false and with_release = run true in
  (* Without release: 2.0 + fetch + 1.5 sequential. With: consumer starts
     after 0.5 and runs its 1.5s while the producer finishes. *)
  Alcotest.(check bool)
    (Printf.sprintf "pipelined (%.3f < %.3f)" with_release without)
    true
    (with_release < without -. 1.0)

let test_release_commits_value () =
  (* The consumer must observe the released write on both machines even
     while the producer is still running. *)
  List.iter
    (fun machine ->
      let seen = ref 0.0 in
      ignore
        (R.run ~machine ~nprocs:2 (fun rt ->
             let a = R.create_object rt ~home:0 ~name:"a" ~size:100 (Array.make 1 0.0) in
             R.withonly_staged rt ~placement:0 ~name:"p" ~work:1.0e6
               ~accesses:(fun s -> Jade.Spec.wr s a)
               (fun env ->
                 (R.wr env a).(0) <- 7.0;
                 R.release env a);
             R.withonly rt ~placement:1 ~name:"c" ~work:100.0
               ~accesses:(fun s -> Jade.Spec.rd s a)
               (fun env -> seen := (R.rd env a).(0));
             R.drain rt));
      Alcotest.(check (float 0.0)) "released value visible" 7.0 !seen)
    [ R.dash; R.ipsc860 ]

let test_access_after_release_raises () =
  Alcotest.check_raises "use after release"
    (R.Access_violation "task p writes undeclared object a") (fun () ->
      ignore
        (R.run ~machine:R.dash ~nprocs:2 (fun rt ->
             let a = R.create_object rt ~home:0 ~name:"a" ~size:100 (Array.make 1 0.0) in
             R.withonly_staged rt ~wait:true ~name:"p" ~work:100.0
               ~accesses:(fun s -> Jade.Spec.wr s a)
               (fun env ->
                 R.release env a;
                 ignore (R.wr env a)))))

let test_double_release_raises () =
  Alcotest.check_raises "double release"
    (Invalid_argument "Synchronizer.release: already released") (fun () ->
      ignore
        (R.run ~machine:R.dash ~nprocs:2 (fun rt ->
             let a = R.create_object rt ~home:0 ~name:"a" ~size:100 (Array.make 1 0.0) in
             R.withonly_staged rt ~wait:true ~name:"p" ~work:100.0
               ~accesses:(fun s -> Jade.Spec.rd s a)
               (fun env ->
                 R.release env a;
                 R.release env a))))

let test_release_undeclared_raises () =
  Alcotest.check_raises "release of undeclared object"
    (Invalid_argument "Synchronizer.release: object not in spec") (fun () ->
      ignore
        (R.run ~machine:R.dash ~nprocs:2 (fun rt ->
             let a = R.create_object rt ~home:0 ~name:"a" ~size:100 (Array.make 1 0.0) in
             let b = R.create_object rt ~home:0 ~name:"b" ~size:100 (Array.make 1 0.0) in
             R.withonly_staged rt ~wait:true ~name:"p" ~work:100.0
               ~accesses:(fun s -> Jade.Spec.rd s a)
               (fun env -> R.release env b))))

let test_read_release_unblocks_writer () =
  (* A long reader releases the object early; a writer queued behind it
     starts immediately. *)
  let order = ref [] in
  ignore
    (R.run ~machine:R.dash ~nprocs:2 (fun rt ->
         let a = R.create_object rt ~home:0 ~name:"a" ~size:100 (Array.make 1 1.0) in
         R.withonly_staged rt ~placement:0 ~name:"reader" ~work:(2.0 *. 6.0e6)
           ~accesses:(fun s -> Jade.Spec.rd s a)
           (fun env ->
             ignore (R.rd env a);
             R.work env 6.0e6;
             R.release env a;
             order := ("released", R.now rt) :: !order);
         R.withonly rt ~placement:1 ~name:"writer" ~work:100.0
           ~accesses:(fun s -> Jade.Spec.rw s a)
           (fun env ->
             ignore (R.wr env a);
             order := ("writer-ran", R.now rt) :: !order);
         R.drain rt));
  match List.rev !order with
  | [ ("released", t1); ("writer-ran", t2) ] ->
      Alcotest.(check bool) "writer ran soon after release" true
        (t2 -. t1 < 1.0)
  | _ -> Alcotest.fail "unexpected event order"

let test_work_charging_totals () =
  (* Charging half the work inside the body changes nothing about the
     task's total cost. *)
  let run charge_inside =
    (R.run ~machine:R.ipsc860 ~nprocs:1 (fun rt ->
         let a = R.create_object rt ~home:0 ~name:"a" ~size:100 (Array.make 1 0.0) in
         R.withonly_staged rt ~wait:true ~name:"t" ~work:(1.0 *. flops_1s_ipsc)
           ~accesses:(fun s -> Jade.Spec.rw s a)
           (fun env ->
             ignore (R.wr env a);
             if charge_inside then R.work env (0.5 *. flops_1s_ipsc))))
      .Jade.Metrics.elapsed_s
  in
  Alcotest.(check (float 1e-9)) "same elapsed" (run false) (run true)

let test_overcharge_clamped () =
  (* Charging more than the declared work must not make the remainder
     negative. *)
  let s =
    R.run ~machine:R.ipsc860 ~nprocs:1 (fun rt ->
        let a = R.create_object rt ~home:0 ~name:"a" ~size:100 (Array.make 1 0.0) in
        R.withonly_staged rt ~wait:true ~name:"t" ~work:1000.0
          ~accesses:(fun s -> Jade.Spec.rw s a)
          (fun env ->
            ignore (R.wr env a);
            R.work env 5000.0))
  in
  Alcotest.(check bool) "ran fine" true (s.Jade.Metrics.elapsed_s > 0.0)

(* ---------------- Eager update protocol ---------------- *)

let phases_program phases rt =
  let x = R.create_object rt ~home:0 ~name:"x" ~size:4096 (Array.make 8 0.0) in
  for _ = 1 to phases do
    (* Only processor 1 consumes; 0 writes. The consumer set is stable, the
       pattern is repetitive: the update protocol's best case. *)
    R.withonly rt ~placement:1 ~name:"read" ~work:500.0
      ~accesses:(fun s -> Jade.Spec.rd s x)
      (fun env -> ignore (R.rd env x));
    R.withonly rt ~placement:0 ~name:"write" ~work:500.0
      ~accesses:(fun s -> Jade.Spec.rw s x)
      (fun env -> ignore (R.wr env x))
  done;
  R.drain rt

let test_eager_transfer_eliminates_fetches () =
  let phases = 5 in
  let base = { Jade.Config.default with Jade.Config.adaptive_broadcast = false } in
  let off = R.run ~config:base ~machine:R.ipsc860 ~nprocs:3 (phases_program phases) in
  let on =
    R.run
      ~config:{ base with Jade.Config.eager_transfer = true }
      ~machine:R.ipsc860 ~nprocs:3 (phases_program phases)
  in
  Alcotest.(check int) "demand protocol fetches every phase" phases
    off.Jade.Metrics.fetches;
  Alcotest.(check int) "eager pushes replace fetches" 1 on.Jade.Metrics.fetches;
  Alcotest.(check bool) "eager transfers happened" true
    (on.Jade.Metrics.eager_count >= phases - 1)

let test_eager_only_previous_consumers () =
  (* Processor 2 never touches the object: it must not receive pushes. *)
  let base =
    {
      Jade.Config.default with
      Jade.Config.adaptive_broadcast = false;
      Jade.Config.eager_transfer = true;
    }
  in
  let s = R.run ~config:base ~machine:R.ipsc860 ~nprocs:4 (phases_program 4) in
  (* One consumer, four writes, each pushing one copy to processor 1 and
     none to the untouched processors 2 and 3. *)
  Alcotest.(check int) "pushes only to the consumer" 4 s.Jade.Metrics.eager_count

let () =
  Alcotest.run "advanced"
    [
      ( "release",
        [
          Alcotest.test_case "overlaps pipeline" `Quick test_release_overlaps_pipeline;
          Alcotest.test_case "commits value" `Quick test_release_commits_value;
          Alcotest.test_case "use after release" `Quick
            test_access_after_release_raises;
          Alcotest.test_case "double release" `Quick test_double_release_raises;
          Alcotest.test_case "undeclared release" `Quick
            test_release_undeclared_raises;
          Alcotest.test_case "read release unblocks" `Quick
            test_read_release_unblocks_writer;
        ] );
      ( "work charging",
        [
          Alcotest.test_case "totals unchanged" `Quick test_work_charging_totals;
          Alcotest.test_case "overcharge clamped" `Quick test_overcharge_clamped;
        ] );
      ( "eager transfer",
        [
          Alcotest.test_case "eliminates fetches" `Quick
            test_eager_transfer_eliminates_fetches;
          Alcotest.test_case "only previous consumers" `Quick
            test_eager_only_previous_consumers;
        ] );
    ]
