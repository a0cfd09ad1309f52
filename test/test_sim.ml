(* Tests for the discrete-event simulation substrate: heap, engine,
   ivars, mailboxes, deques, RNG. *)

open Jade_sim

(* Remove the minimum as a [(time, seq, value)] triple. *)
let pop h =
  let time = Heap.min_time h and seq = Heap.min_seq h in
  (time, seq, Heap.pop_min_value h)

let test_heap_order () =
  let h = Heap.create () in
  Heap.push h ~time:3.0 ~seq:1 30;
  Heap.push h ~time:1.0 ~seq:2 10;
  Heap.push h ~time:2.0 ~seq:3 20;
  let out = List.init 3 (fun _ -> Heap.pop_min_value h) in
  Alcotest.(check (list int)) "sorted" [ 10; 20; 30 ] out

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~time:1.0 ~seq:i i
  done;
  let out = List.init 10 (fun _ -> Heap.pop_min_value h) in
  Alcotest.(check (list int)) "fifo on equal times" (List.init 10 Fun.id) out

let heap_sorted_prop =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:200
    QCheck.(list (pair (float_bound_exclusive 1000.0) small_int))
    (fun entries ->
      let h = Heap.create () in
      List.iteri (fun i (t, v) -> Heap.push h ~time:t ~seq:i v) entries;
      let rec drain last ok =
        if Heap.is_empty h then ok
        else
          let t, _, _ = pop h in
          drain t (ok && t >= last)
      in
      drain neg_infinity true)

(* The heap against an independent model, a list kept sorted by
   [(time, seq)], under an interleaved stream of pushes and pops. Times
   stay at or above the last popped instant (the engine never schedules
   into the past); deltas mix zero (ties), sub-unit steps and 1e7-scale
   spikes. Every pop must return the model's head, key and payload. *)
let heap_op_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return `Pop);
        (3, map (fun d -> `Push d) (float_bound_exclusive 1.0));
        (1, return (`Push 0.0));
        (1, map (fun d -> `Push (d *. 1e7)) (float_bound_exclusive 1.0));
      ])

let heap_model_prop =
  QCheck.Test.make ~name:"heap pops like a list sorted by (time, seq)"
    ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 400) heap_op_gen))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] and seq = ref 0 and base = ref 0.0 in
      let ok = ref true in
      let pop_both () =
        match !model with
        | [] -> ok := !ok && Heap.is_empty h
        | (time, s) :: rest ->
            model := rest;
            base := time;
            ok := !ok && pop h = (time, s, s)
      in
      List.iter
        (fun op ->
          (match op with
          | `Pop -> pop_both ()
          | `Push delta ->
              let time = !base +. delta in
              incr seq;
              Heap.push h ~time ~seq:!seq !seq;
              model := List.merge compare !model [ (time, !seq) ]);
          ok := !ok && Heap.length h = List.length !model)
        ops;
      while !model <> [] do
        pop_both ()
      done;
      !ok && Heap.is_empty h)

(* The same model with keys in any order: times from a few integer
   instants, so ties are common, and each push's seq drawn from a
   shuffled range, as a lane's head pushes a seq reserved when it was
   armed. Pushes land below the minimum, tie its time on either side of
   its seq, and pops run down to empty, where every reader raises
   [Not_found]. *)
let heap_any_order_prop =
  QCheck.Test.make ~name:"heap keeps (time, seq) order for keys in any order"
    ~count:500
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 0 200)
           (frequency [ (2, return None); (3, map Option.some (int_bound 5)) ])
         >>= fun ops ->
         shuffle_l (List.init (List.length ops) Fun.id) >|= fun seqs ->
         List.combine ops seqs))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] and ok = ref true in
      let pop_both () =
        match !model with
        | [] ->
            let raises f = match f h with _ -> false | exception Not_found -> true in
            ok := !ok && Heap.is_empty h && raises Heap.min_time && raises Heap.min_seq
                  && raises Heap.pop_min_value
        | (time, s) :: rest ->
            model := rest;
            ok := !ok && pop h = (time, s, s)
      in
      List.iter
        (fun (op, seq) ->
          (match op with
          | None -> pop_both ()
          | Some instant ->
              let time = float_of_int instant in
              Heap.push h ~time ~seq seq;
              model := List.merge compare !model [ (time, seq) ]);
          ok := !ok && Heap.length h = List.length !model)
        ops;
      while !model <> [] do
        pop_both ()
      done;
      pop_both ();
      !ok)

let test_engine_delay_order () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng (fun () ->
      Engine.delay eng 2.0;
      log := ("b", Engine.now eng) :: !log);
  Engine.spawn eng (fun () ->
      Engine.delay eng 1.0;
      log := ("a", Engine.now eng) :: !log);
  ignore (Engine.run eng);
  Alcotest.(check (list (pair string (float 1e-9))))
    "order and times"
    [ ("a", 1.0); ("b", 2.0) ]
    (List.rev !log)

let test_engine_same_time_fifo () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 0 to 4 do
    Engine.spawn eng (fun () ->
        Engine.delay eng 1.0;
        log := i :: !log)
  done;
  ignore (Engine.run eng);
  Alcotest.(check (list int)) "spawn order preserved" [ 0; 1; 2; 3; 4 ]
    (List.rev !log)

(* Two-lane interleaving: at one virtual instant, zero-delay events live
   in the FIFO now lane while sub-ulp positive delays land in the heap at
   the same timestamp. Delivery must follow global scheduling (seq)
   order, exactly as if a single queue held them all. Two processes wake
   at t=1.0 and alternate now-lane pushes with tiny heap re-blocks; the
   log must come out in the order the events were created. *)
let test_engine_two_lane_interleave () =
  let eng = Engine.create () in
  let log = ref [] in
  let tiny = 1e-300 in
  (* 1.0 +. tiny = 1.0: a heap event at the current instant. *)
  let proc name =
    Engine.spawn eng (fun () ->
        Engine.delay eng 1.0;
        log := (name ^ "1") :: !log;
        Engine.schedule_now eng (fun () -> log := ("now-" ^ name) :: !log);
        Engine.delay eng tiny;
        log := (name ^ "2") :: !log)
  in
  proc "p";
  proc "q";
  ignore (Engine.run eng);
  Alcotest.(check (list string))
    "seq order across lanes"
    [ "p1"; "q1"; "now-p"; "p2"; "now-q"; "q2" ]
    (List.rev !log);
  Alcotest.(check (float 0.0)) "clock stayed put" 1.0 (Engine.now eng)

(* An op event aimed at an instant already past fires at the current
   instant, behind the events already queued for it — the same clamp
   [Engine.schedule_at] applies. *)
let test_engine_flat_past_clamps () =
  let eng = Engine.create () in
  let log = ref [] in
  let op =
    Engine.register_op eng (fun arg -> log := (arg, Engine.now eng) :: !log)
  in
  Engine.spawn eng (fun () ->
      Engine.delay eng 2.0;
      Engine.schedule_op_at eng ~op ~arg:1 2.0;
      Engine.schedule_op_at eng ~op ~arg:2 0.5;
      Engine.schedule_op_at eng ~op ~arg:3 (-1.0);
      Engine.schedule_op_at eng ~op ~arg:4 2.5);
  ignore (Engine.run eng);
  Alcotest.(check (list (pair int (float 0.0))))
    "past times fire now, in scheduling order"
    [ (1, 2.0); (2, 2.0); (3, 2.0); (4, 2.5) ]
    (List.rev !log)

(* The handler table behind [schedule_op_at]: 100 handlers, each fired
   with its own operand, in (time, seq) order — a stable sort by time of
   the scheduling sequence, which runs from the last op to the first.
   Times are multiples of 1/8 in [0, 1), so ties are common and time 0
   rides the now lane. An op no registration returned is refused. *)
let test_engine_op_registry () =
  let eng = Engine.create () in
  let log = ref [] in
  let ops =
    List.init 100 (fun k ->
        Engine.register_op eng (fun arg ->
            log := (k, arg, Engine.now eng) :: !log))
  in
  Alcotest.(check (list int)) "ops 0..99" (List.init 100 Fun.id) ops;
  let scheduled =
    List.rev_map (fun k -> (k, 1000 + k, float_of_int (k mod 7) /. 8.0)) ops
  in
  List.iter
    (fun (op, arg, time) -> Engine.schedule_op_at eng ~op ~arg time)
    scheduled;
  Alcotest.(check int) "events" 100 (Engine.run eng);
  Alcotest.(check (list (triple int int (float 0.0))))
    "each handler with its operand, in (time, seq) order"
    (List.stable_sort (fun (_, _, a) (_, _, b) -> Float.compare a b) scheduled)
    (List.rev !log);
  List.iter
    (fun op ->
      Alcotest.check_raises
        (Printf.sprintf "op %d refused" op)
        (Invalid_argument "Engine.schedule_op_at: unregistered op")
        (fun () -> Engine.schedule_op_at eng ~op ~arg:0 1.0))
    [ -1; 100 ]

(* Op events scheduled before the run commit in (time, scheduling
   order): a stable sort by time of the scheduling sequence. Times are
   multiples of 1/16 in [0, 1), so ties are common and time 0 rides the
   now lane while the rest ride the far lane. *)
let flat_order_prop =
  QCheck.Test.make ~name:"flat events commit in (time, seq) order"
    ~count:200
    QCheck.(list (int_bound 15))
    (fun slots ->
      let eng = Engine.create () in
      let log = ref [] in
      let op =
        Engine.register_op eng (fun arg -> log := (arg, Engine.now eng) :: !log)
      in
      let scheduled = List.mapi (fun i k -> (i, float_of_int k /. 16.0)) slots in
      List.iter
        (fun (i, time) -> Engine.schedule_op_at eng ~op ~arg:i time)
        scheduled;
      let events = Engine.run eng in
      let expected =
        List.stable_sort (fun (_, a) (_, b) -> Float.compare a b) scheduled
      in
      events = List.length slots && List.rev !log = expected)

let test_engine_nested_spawn () =
  let eng = Engine.create () in
  let hits = ref 0 in
  Engine.spawn eng (fun () ->
      Engine.delay eng 1.0;
      Engine.spawn eng (fun () ->
          Engine.delay eng 1.0;
          incr hits);
      Engine.delay eng 5.0;
      incr hits);
  ignore (Engine.run eng);
  Alcotest.(check int) "both ran" 2 !hits;
  Alcotest.(check int) "no live processes" 0 (Engine.live_processes eng)

let test_engine_negative_delay () =
  List.iter
    (fun d ->
      let eng = Engine.create () in
      Alcotest.check_raises
        (Printf.sprintf "schedule_after %g rejected" d)
        (Invalid_argument "Engine.schedule_after: negative or NaN delay")
        (fun () -> Engine.schedule_after eng d ignore);
      Engine.spawn eng (fun () ->
          Alcotest.check_raises
            (Printf.sprintf "delay %g rejected" d)
            (Invalid_argument "Engine.delay: negative or NaN delay") (fun () ->
              Engine.delay eng d));
      ignore (Engine.run eng))
    [ -1.0; Float.nan ]

(* An event time of +inf would move the clock to +inf, after which every
   delay sums to +inf or NaN. The far lane refuses it at push time;
   events already queued still run. *)
let test_engine_infinite_time () =
  let eng = Engine.create () in
  let op = Engine.register_op eng ignore in
  Engine.schedule_op_at eng ~op ~arg:0 1.0;
  Alcotest.check_raises "+inf event time"
    (Invalid_argument "Engine: non-finite event time") (fun () ->
      Engine.schedule_op_at eng ~op ~arg:1 infinity);
  Alcotest.(check int) "the finite event still runs" 1 (Engine.run eng)

(* A resume belongs to one suspension. A process waits for an int, then
   for a string; calling the first wait's resume again while the second
   wait is pending raises [Continuation_already_resumed], leaves the
   second wait registered, and the process still finishes when its own
   resume arrives. The waits differ in type, so a resume that reached
   the wrong one would hand the string wait an int. *)
let test_engine_stale_resume () =
  let eng = Engine.create () in
  let first = ref (fun (_ : int) -> ()) in
  let second = ref (fun (_ : string) -> ()) in
  let got = ref None in
  Engine.spawn ~name:"p" eng (fun () ->
      let a = Engine.await ~on:(fun () -> "first") eng (( := ) first) in
      let b = Engine.await ~on:(fun () -> "second") eng (( := ) second) in
      got := Some (a, String.uppercase_ascii b));
  Engine.schedule_after eng 1.0 (fun () -> !first 1);
  Engine.schedule_after eng 2.0 (fun () ->
      Alcotest.check_raises "a stale resume raises"
        Effect.Continuation_already_resumed (fun () -> !first 2);
      Alcotest.(check (list (pair string string)))
        "the pending wait stays registered" [ ("p", "second") ]
        (Engine.blocked_report eng));
  Engine.schedule_after eng 3.0 (fun () -> !second "done");
  ignore (Engine.run eng);
  Alcotest.(check (option (pair int string)))
    "the process finished" (Some (1, "DONE")) !got;
  Alcotest.(check int) "no live processes" 0 (Engine.live_processes eng);
  Alcotest.(check (list (pair string string)))
    "no waits left" [] (Engine.blocked_report eng)

(* [blocked_report] lists labelled waits in the order they began, not in
   spawn order, and a wait leaves it once it resumes. Processes a, b, c
   begin their waits at times 2, 0 and 1; they resume in the order b, a,
   c, and a waits again, which puts it behind c. *)
let test_engine_blocked_order () =
  let eng = Engine.create () in
  let resumes = Hashtbl.create 3 in
  let proc name start =
    Engine.spawn ~name eng (fun () ->
        Engine.delay eng start;
        for round = 1 to (if name = "a" then 2 else 1) do
          let label = Printf.sprintf "%s-wait-%d" name round in
          Engine.await ~on:(fun () -> label) eng (fun r ->
              Hashtbl.replace resumes name r)
        done)
  in
  proc "a" 2.0;
  proc "b" 0.0;
  proc "c" 1.0;
  let snapshots = ref [] in
  let at time f =
    Engine.schedule_after eng time (fun () ->
        f ();
        snapshots := Engine.blocked_report eng :: !snapshots)
  in
  let resume name () = (Hashtbl.find resumes name) () in
  at 3.0 ignore;
  at 4.0 (resume "b");
  at 5.0 (resume "a");
  at 6.0 (resume "c");
  at 7.0 (resume "a");
  ignore (Engine.run eng);
  Alcotest.(check (list (list (pair string string))))
    "report after each step"
    [
      [ ("b", "b-wait-1"); ("c", "c-wait-1"); ("a", "a-wait-1") ];
      [ ("c", "c-wait-1"); ("a", "a-wait-1") ];
      [ ("c", "c-wait-1"); ("a", "a-wait-2") ];
      [ ("a", "a-wait-2") ];
      [];
    ]
    (List.rev !snapshots);
  Alcotest.(check int) "no live processes" 0 (Engine.live_processes eng)

let test_ivar_basic () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let seen = ref [] in
  for i = 0 to 2 do
    Engine.spawn eng (fun () ->
        let v = Ivar.read eng iv in
        seen := (i, v, Engine.now eng) :: !seen)
  done;
  Engine.spawn eng (fun () ->
      Engine.delay eng 3.0;
      Ivar.fill eng iv 42);
  ignore (Engine.run eng);
  Alcotest.(check int) "all readers woke" 3 (List.length !seen);
  List.iter
    (fun (_, v, t) ->
      Alcotest.(check int) "value" 42 v;
      Alcotest.(check (float 1e-9)) "woke at fill time" 3.0 t)
    !seen

let test_ivar_double_fill () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  Ivar.fill eng iv 1;
  Alcotest.check_raises "double fill"
    (Invalid_argument "Ivar.fill: already filled: ivar") (fun () ->
      Ivar.fill eng iv 2);
  (* Named ivars identify themselves in the error. *)
  let named = Ivar.create ~name:"result-cell" () in
  Ivar.fill eng named 1;
  Alcotest.check_raises "named double fill"
    (Invalid_argument "Ivar.fill: already filled: result-cell") (fun () ->
      Ivar.fill eng named 2)

(* [name_fn] wins over [name] and is forced only when the string is
   needed: blocking on, filling and reading the ivar never build it. *)
let test_ivar_lazy_name () =
  let eng = Engine.create () in
  let forced = ref 0 in
  let iv =
    Ivar.create ~name:"eager"
      ~name_fn:(fun () ->
        incr forced;
        "lazy")
      ()
  in
  let got = ref 0 in
  Engine.spawn eng (fun () -> got := Ivar.read eng iv);
  Engine.spawn eng (fun () ->
      Engine.delay eng 1.0;
      Ivar.fill eng iv 5);
  ignore (Engine.run eng);
  Alcotest.(check int) "blocked reader woken" 5 !got;
  Alcotest.(check int) "name not built by the run" 0 !forced;
  Alcotest.(check string) "name_fn wins" "lazy" (Ivar.name iv);
  Alcotest.(check int) "built on demand" 1 !forced;
  Alcotest.(check string) "default name" "ivar" (Ivar.name (Ivar.create ()))

let test_ivar_read_after_fill () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  Ivar.fill eng iv "x";
  let got = ref "" in
  Engine.spawn eng (fun () -> got := Ivar.read eng iv);
  ignore (Engine.run eng);
  Alcotest.(check string) "immediate" "x" !got

let test_mailbox_fifo () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.recv eng mb :: !got
      done);
  Engine.spawn eng (fun () ->
      Engine.delay eng 1.0;
      Mailbox.send eng mb 1;
      Mailbox.send eng mb 2;
      Mailbox.send eng mb 3);
  ignore (Engine.run eng);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_buffered () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  Mailbox.send eng mb "a";
  Mailbox.send eng mb "b";
  Alcotest.(check int) "buffered" 2 (Mailbox.length mb);
  Alcotest.(check (option string)) "try_recv" (Some "a") (Mailbox.try_recv mb)

let test_deque_ends () =
  let d = Deque.create () in
  Deque.push_back d 0;
  Deque.push_back d 1;
  Deque.push_back d 2;
  Alcotest.(check (list int)) "order" [ 0; 1; 2 ] (Deque.to_list d);
  Alcotest.(check int) "first" 0 (Deque.first d);
  Alcotest.(check int) "last" 2 (Deque.last d);
  Alcotest.(check int) "pop back" 2 (Deque.pop_back_exn d);
  Alcotest.(check (option int)) "pop front" (Some 0) (Deque.pop_front d);
  Alcotest.(check int) "length" 1 (Deque.length d);
  ignore (Deque.pop_front_exn d);
  Alcotest.(check (option int)) "pop front of empty" None (Deque.pop_front d)

(* Pushes at the back, pops at either end: the scheduler's work-queue
   discipline, against a list model, across ring-buffer growth and
   wrap-around. *)
let deque_model_prop =
  QCheck.Test.make ~name:"deque behaves like a list" ~count:300
    QCheck.(list (pair (int_range 0 2) small_int))
    (fun ops ->
      let d = Deque.create () in
      let model = ref [] in
      List.for_all
        (fun (op, v) ->
          let popped_ok =
            match (op, List.rev !model) with
            | 1, _ :: _ ->
                let x = List.hd !model in
                model := List.tl !model;
                Deque.first d = x && Deque.pop_front_exn d = x
            | 2, x :: rest ->
                model := List.rev rest;
                Deque.last d = x && Deque.pop_back_exn d = x
            | _ ->
                Deque.push_back d v;
                model := !model @ [ v ];
                true
          in
          popped_ok && Deque.to_list d = !model)
        ops)

(* The allocation-free accessors raise on an empty deque, also once a
   grown and wrapped ring buffer has been drained, and the drained deque
   stays usable. *)
let test_deque_empty_raises () =
  let d = Deque.create () in
  let check_empty label =
    List.iter
      (fun (name, f) ->
        Alcotest.check_raises
          (Printf.sprintf "%s: %s" label name)
          (Invalid_argument (Printf.sprintf "Deque.%s: empty" name))
          (fun () -> ignore (f d)))
      [
        ("first", Deque.first);
        ("last", Deque.last);
        ("pop_front_exn", Deque.pop_front_exn);
        ("pop_back_exn", Deque.pop_back_exn);
      ]
  in
  check_empty "fresh";
  for i = 0 to 40 do
    Deque.push_back d i;
    if i mod 3 = 0 then ignore (Deque.pop_front_exn d)
  done;
  while not (Deque.is_empty d) do
    ignore (Deque.pop_back_exn d)
  done;
  Alcotest.(check int) "drained" 0 (Deque.length d);
  check_empty "drained";
  Alcotest.(check (option int)) "pop front of drained" None (Deque.pop_front d);
  Deque.push_back d 7;
  Alcotest.(check (list int)) "reusable" [ 7 ] (Deque.to_list d)

let test_srandom_deterministic () =
  let a = Srandom.create 7 in
  let b = Srandom.create 7 in
  let da = List.init 20 (fun _ -> Srandom.int a 1000) in
  let db = List.init 20 (fun _ -> Srandom.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" da db

let srandom_bounds_prop =
  QCheck.Test.make ~name:"srandom int stays in bounds" ~count:300
    QCheck.(pair small_int (int_range 1 10000))
    (fun (seed, bound) ->
      let g = Srandom.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Srandom.int g bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let test_srandom_shuffle_permutes () =
  let g = Srandom.create 11 in
  let a = Array.init 50 Fun.id in
  Srandom.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* Stress property: a random tree of processes with random delays and
   ivar joins always terminates with a monotone clock and no live
   processes. *)
let engine_stress_prop =
  QCheck.Test.make ~name:"random process trees terminate cleanly" ~count:100
    QCheck.small_int
    (fun seed ->
      let g = Srandom.create seed in
      let eng = Engine.create () in
      let completions = ref [] in
      let spawned = ref 0 in
      let rec spawn_tree depth =
        incr spawned;
        let children = if depth >= 3 then 0 else Srandom.int g 4 in
        let kids = List.init children (fun _ -> Ivar.create ()) in
        let me = Ivar.create () in
        Engine.spawn eng (fun () ->
            Engine.delay eng (Srandom.float g 0.5);
            let child_ivars = List.map (fun iv -> iv) kids in
            List.iter
              (fun iv ->
                let child = spawn_tree (depth + 1) in
                (* Forward the child's completion into our slot. *)
                Engine.spawn eng (fun () -> Ivar.fill eng iv (Ivar.read eng child)))
              child_ivars;
            List.iter (fun iv -> ignore (Ivar.read eng iv)) child_ivars;
            Engine.delay eng (Srandom.float g 0.2);
            completions := Engine.now eng :: !completions;
            Ivar.fill eng me ());
        me
      in
      let root = spawn_tree 0 in
      ignore (Engine.run eng);
      Engine.live_processes eng = 0
      && Ivar.is_full root
      && List.length !completions >= 1)

(* The handler table vs closure scheduling: the identical random
   schedule — processes with random delays, op events, plain closure
   events — must commit the identical trajectory whether each op event
   goes through the table ([schedule_op_at]) or is the equivalent closure
   ([schedule_at eng t (fun () -> handler arg)]). The log captures each commit's (kind, operand, virtual time) in
   commit order, so any ordering or timing divergence flips the
   comparison; event count and final clock cover the run summary. *)
let flat_closure_parity_prop =
  QCheck.Test.make ~name:"flat descriptors match closure scheduling"
    ~count:60
    QCheck.(pair small_int (int_range 1 4))
    (fun (seed, procs) ->
      let trajectory ~flat =
        let g = Srandom.create ((seed * 31) + procs) in
        let eng = Engine.create () in
        let log = ref [] in
        let commit kind arg = log := (kind, arg, Engine.now eng) :: !log in
        let handlers = [| commit 0; commit 1 |] in
        let ops = Array.map (Engine.register_op eng) handlers in
        let schedule k ~arg time =
          if flat then Engine.schedule_op_at eng ~op:ops.(k) ~arg time
          else Engine.schedule_at eng time (fun () -> handlers.(k) arg)
        in
        for p = 0 to procs - 1 do
          Engine.spawn eng (fun () ->
              for i = 1 to 30 do
                (* dyadic delays sum exactly, so same-time ties — where
                   only the seq order decides — are common *)
                let d = float_of_int (Srandom.int g 4) /. 64.0 in
                let arg = (p * 1000) + i in
                match Srandom.int g 4 with
                | 0 ->
                    (* any delay: zero rides the now lane, positive the
                       far lane *)
                    schedule 0 ~arg (Engine.now eng +. d)
                | 1 -> schedule 1 ~arg (Engine.now eng +. 0.25 +. d)
                | 2 ->
                    (* a plain closure event *)
                    Engine.schedule_at eng
                      (Engine.now eng +. d)
                      (fun () -> commit 2 arg)
                | _ -> Engine.delay eng d
              done)
        done;
        let events = Engine.run eng in
        (List.rev !log, events, Engine.now eng)
      in
      trajectory ~flat:true = trajectory ~flat:false)

(* [Engine.poll] against the chain of [schedule_after] ticks it replaces.
   Competing events sit on an eighth-second grid and the periods are
   multiples of an eighth, so ticks tie exactly with pending events
   (where only the seq decides, and the pending event goes first); the
   competing events also push same-instant now-lane events and flip the
   condition. The firing sequence, each entry a (time, label) pair, and
   the event count must be identical. *)
let poll_chain_prop =
  QCheck.Test.make ~name:"poll matches its schedule_after chain" ~count:300
    QCheck.small_int
    (fun seed ->
      let trajectory ~fast =
        let g = Srandom.create seed in
        let eng = Engine.create () in
        let log = ref [] in
        let note label = log := (Engine.now eng, label) :: !log in
        let flag = ref false in
        let grid () = float_of_int (Srandom.int g 32) /. 8.0 in
        let poll p cond k =
          if fast then Engine.poll eng p cond k
          else
            let rec tick () =
              if cond () then k () else Engine.schedule_after eng p tick
            in
            Engine.schedule_after eng p tick
        in
        let rec start_poll id =
          let p = float_of_int (1 + Srandom.int g 3) /. 8.0 in
          let ticks = ref 0 in
          poll p
            (fun () ->
              incr ticks;
              note (Printf.sprintf "tick%d" id);
              (* The cap ends a poll that nothing would release. *)
              !flag || !ticks >= 40)
            (fun () ->
              note (Printf.sprintf "release%d" id);
              flag := false;
              if id < 3 then start_poll (id + 1))
        in
        for i = 0 to 15 do
          Engine.schedule_at eng (grid ()) (fun () ->
              note (Printf.sprintf "ev%d" i);
              (match Srandom.int g 4 with
              | 0 -> flag := true
              | 1 -> flag := false
              | _ -> ());
              if Srandom.bool g then
                Engine.schedule_now eng (fun () ->
                    note (Printf.sprintf "now%d" i);
                    if Srandom.int g 3 = 0 then flag := true);
              if Srandom.int g 3 = 0 then
                Engine.schedule_after eng (grid ()) (fun () ->
                    note (Printf.sprintf "late%d" i)))
        done;
        Engine.schedule_at eng (grid ()) (fun () -> start_poll 0);
        let events = Engine.run eng in
        (List.rev !log, events, Engine.events_processed eng)
      in
      trajectory ~fast:true = trajectory ~fast:false)

(* A fixed-delay lane against one [schedule_after] timer per entry, under
   random monotone liveness: entries die (never revive) at random, a fired
   entry re-arms on the next lane as a retransmit timer does, and
   competing events on the same grid tie with lane entries. The
   zero-delay lane's entries, due at once, must fire where the now-lane
   events [schedule_after] makes of them would. The firing
   sequence and the event count must be identical, and the lane run must
   account every armed timer as fired or dropped. *)
let lane_timers_prop =
  QCheck.Test.make ~name:"lanes match plain schedule_after timers" ~count:300
    QCheck.small_int
    (fun seed ->
      let trajectory ~lanes =
        let g = Srandom.create seed in
        let eng = Engine.create () in
        let log = ref [] in
        let note label = log := (Engine.now eng, label) :: !log in
        let dead = Array.make 64 false and next = ref 0 and armed = ref 0 in
        let delays = [| 0.0; 0.125; 0.25; 0.5 |] in
        let live x = not dead.(x) in
        let kill () = dead.(Srandom.int g (max 1 !next)) <- true in
        let ls = ref [||] in
        let rec fire level x =
          note (Printf.sprintf "fire%d@%d" x level);
          if Srandom.int g 3 = 0 then kill ();
          if level < 3 && Srandom.bool g then arm (level + 1) x
        and arm level x =
          incr armed;
          if lanes then Engine.arm !ls.(level) x
          else
            Engine.schedule_after eng delays.(level) (fun () ->
                if live x then fire level x)
        in
        ls :=
          Array.mapi
            (fun level d -> Engine.lane eng d ~live ~fire:(fire level))
            delays;
        let grid () = float_of_int (Srandom.int g 24) /. 8.0 in
        for i = 0 to 23 do
          Engine.schedule_at eng (grid ()) (fun () ->
              note (Printf.sprintf "ev%d" i);
              for _ = 1 to Srandom.int g 4 do
                if !next < Array.length dead then begin
                  arm (Srandom.int g 4) !next;
                  incr next
                end
              done;
              if Srandom.bool g then kill ();
              if Srandom.bool g then
                Engine.schedule_now eng (fun () ->
                    note (Printf.sprintf "now%d" i);
                    if Srandom.bool g then kill ()))
        done;
        let events = Engine.run eng in
        let accounted =
          (not lanes)
          || Engine.timers_fired eng + Engine.timers_dropped eng = !armed
        in
        (List.rev !log, events, accounted)
      in
      trajectory ~lanes:true = trajectory ~lanes:false)

let qcheck t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "jade_sim"
    [
      ( "heap",
        [
          Alcotest.test_case "pop order" `Quick test_heap_order;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          qcheck heap_sorted_prop;
          qcheck heap_model_prop;
          qcheck heap_any_order_prop;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delay order" `Quick test_engine_delay_order;
          Alcotest.test_case "same-time fifo" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "two-lane interleave" `Quick
            test_engine_two_lane_interleave;
          Alcotest.test_case "nested spawn" `Quick test_engine_nested_spawn;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay;
          Alcotest.test_case "infinite event time" `Quick
            test_engine_infinite_time;
          Alcotest.test_case "flat event in the past fires now" `Quick
            test_engine_flat_past_clamps;
          Alcotest.test_case "op registry" `Quick
            test_engine_op_registry;
          Alcotest.test_case "stale resume raises" `Quick
            test_engine_stale_resume;
          Alcotest.test_case "blocked report order" `Quick
            test_engine_blocked_order;
          qcheck engine_stress_prop;
          qcheck flat_closure_parity_prop;
          qcheck flat_order_prop;
          qcheck poll_chain_prop;
          qcheck lane_timers_prop;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "fill wakes readers" `Quick test_ivar_basic;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
          Alcotest.test_case "read after fill" `Quick test_ivar_read_after_fill;
          Alcotest.test_case "lazy name" `Quick test_ivar_lazy_name;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "buffered" `Quick test_mailbox_buffered;
        ] );
      ( "deque",
        [
          Alcotest.test_case "ends" `Quick test_deque_ends;
          Alcotest.test_case "empty raises" `Quick test_deque_empty_raises;
          qcheck deque_model_prop;
        ] );
      ( "srandom",
        [
          Alcotest.test_case "deterministic" `Quick test_srandom_deterministic;
          Alcotest.test_case "shuffle permutes" `Quick test_srandom_shuffle_permutes;
          qcheck srandom_bounds_prop;
        ] );
    ]
