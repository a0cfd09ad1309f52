(* Tests for the domain-parallel experiment executor: the [Pool] work
   queue itself (ordering, exception propagation, empty input) and the
   end-to-end determinism guarantee — the same tables, figures and
   analyses rendered with jobs=1 and jobs=4 must be byte-identical. *)

open Jade_experiments

let test_empty () =
  Alcotest.(check (list int)) "empty input" [] (Pool.run ~jobs:4 [])

let test_ordering () =
  let n = 100 in
  let expected = List.init n (fun i -> i * i) in
  Alcotest.(check (list int))
    "results in submission order" expected
    (Pool.map ~jobs:4 (fun i -> i * i) (List.init n Fun.id));
  Alcotest.(check (list int))
    "jobs=1 inline path agrees" expected
    (Pool.map ~jobs:1 (fun i -> i * i) (List.init n Fun.id))

let test_jobs_clamped () =
  (* Degenerate jobs values fall back to sequential execution. *)
  Alcotest.(check (list int))
    "jobs=0 clamped" [ 1; 2; 3 ]
    (Pool.map ~jobs:0 Fun.id [ 1; 2; 3 ]);
  (* More workers than tasks is fine too. *)
  Alcotest.(check (list int))
    "more jobs than tasks" [ 7 ]
    (Pool.map ~jobs:16 Fun.id [ 7 ]);
  (* The domain count itself, checked without spawning any: at least one,
     at most one per task and never past OCaml's domain limit. *)
  Alcotest.(check int) "OCaml 5.1's domain limit" 128 Pool.max_jobs;
  List.iter
    (fun (jobs, n, want) ->
      Alcotest.(check int)
        (Printf.sprintf "workers ~jobs:%d %d" jobs n)
        want (Pool.workers ~jobs n))
    [ (0, 5, 1); (-3, 5, 1); (4, 10, 4); (16, 1, 1); (200, 1000, 128);
      (128, 1000, 128); (129, 129, 128) ]

exception Boom of int

let test_exception_propagates () =
  let f i = if i mod 3 = 2 then raise (Boom i) else i in
  match Pool.map ~jobs:4 f (List.init 10 Fun.id) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i ->
      (* Tasks 2, 5 and 8 all raise; the lowest submission index wins
         regardless of which domain finished first. *)
      Alcotest.(check int) "lowest-index failure surfaces" 2 i

(* The raise site lives in its own non-inlined function so its frame must
   appear in the propagated backtrace. *)
let[@inline never] detonate i = raise (Boom i)

let test_backtrace_preserved () =
  (* A worker domain's exception must surface with the backtrace captured
     at the raise site, not a fresh one from the re-raise in [Pool.run] —
     and at jobs > 1 the lowest submission index must still win even when
     a later task fails first. *)
  Printexc.record_backtrace true;
  let jobs =
    List.init 6 (fun i () ->
        if i = 1 then detonate i
        else if i = 4 then detonate i
        else i)
  in
  match Pool.run ~jobs:4 jobs with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i ->
      let bt = Printexc.get_backtrace () in
      Alcotest.(check int) "lowest-index failure re-raised" 1 i;
      Alcotest.(check bool)
        "worker backtrace preserved across domains" true
        (String.length bt > 0);
      let mentions_raise_site =
        let needle = "test_pool" and n = String.length bt in
        let m = String.length needle in
        let rec go j = j + m <= n && (String.sub bt j m = needle || go (j + 1)) in
        go 0
      in
      Alcotest.(check bool)
        "backtrace points at the raise site" true mentions_raise_site

let test_exception_does_not_cancel () =
  let ran = Array.make 8 false in
  (try
     ignore
       (Pool.run ~jobs:4
          (List.init 8 (fun i () ->
               ran.(i) <- true;
               if i = 0 then failwith "boom")))
   with Failure _ -> ());
  Alcotest.(check bool)
    "every task still ran" true
    (Array.for_all Fun.id ran)

(* ------------------------------------------------------------------ *)
(* Determinism of parallel regeneration. *)

let render_all ~jobs =
  let r = Runner.create ~jobs Runner.Test in
  let tables = List.map (Tables.table r) [ 1; 2; 7; 13 ] in
  let figures = List.map (Figures.figure r) [ 6; 14; 20 ] in
  let analyses = [ Analyses.latency_hiding r; Analyses.concurrent_fetch r ] in
  String.concat "\n" (List.map Report.render (tables @ figures @ analyses))

let test_jobs_byte_identical () =
  let seq = render_all ~jobs:1 in
  let par = render_all ~jobs:4 in
  Alcotest.(check string) "jobs=1 and jobs=4 render identically" seq par

let test_parallel_same_as_direct () =
  (* [Runner.parallel]'s plan/warm/replay must agree with plain memoized
     execution on a fresh runner. *)
  let direct =
    let r = Runner.create ~jobs:1 Runner.Test in
    Report.render (Tables.table r 7)
  in
  let parallel =
    let r = Runner.create ~jobs:3 Runner.Test in
    Report.render (Runner.parallel r (fun () -> Tables.table r 7))
  in
  Alcotest.(check string) "parallel evaluation matches direct" direct parallel

let test_events_counted () =
  let r = Runner.create ~jobs:2 Runner.Test in
  ignore (Tables.table r 7);
  Alcotest.(check bool)
    "simulated events accumulated" true
    (Runner.events_simulated r > 0)

(* Two domains format the same names at once, each through its own
   table: every string equals the [Printf.sprintf] it stands for, and a
   domain asking again gets the string it formatted the first time. *)
let test_names_domain_safe () =
  let name = Jade.Names.memo (fun (stem, i) -> Printf.sprintf "%s.%d" stem i) in
  let keys = List.init 2000 (fun i -> ((if i mod 2 = 0 then "a" else "b"), i / 2)) in
  let format_twice () =
    let first = List.map name keys in
    (first, List.for_all2 ( == ) first (List.map name keys))
  in
  let d1 = Domain.spawn format_twice and d2 = Domain.spawn format_twice in
  let (n1, same1), (n2, same2) = (Domain.join d1, Domain.join d2) in
  let expected = List.map (fun (stem, i) -> Printf.sprintf "%s.%d" stem i) keys in
  Alcotest.(check (list string)) "domain 1" expected n1;
  Alcotest.(check (list string)) "domain 2" expected n2;
  Alcotest.(check (pair bool bool)) "memoised on each domain" (true, true)
    (same1, same2)

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "empty queue" `Quick test_empty;
          Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "jobs clamped" `Quick test_jobs_clamped;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates;
          Alcotest.test_case "backtrace preserved" `Quick
            test_backtrace_preserved;
          Alcotest.test_case "no cancellation on failure" `Quick
            test_exception_does_not_cancel;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs=1 vs jobs=4 byte-identical" `Slow
            test_jobs_byte_identical;
          Alcotest.test_case "parallel matches direct" `Quick
            test_parallel_same_as_direct;
          Alcotest.test_case "event accounting" `Quick test_events_counted;
          Alcotest.test_case "names are domain-safe" `Quick
            test_names_domain_safe;
        ] );
    ]
