(* Tests of the task-graph IR.

   Two layers:

   1. Serialization: for random well-formed node sets, build -> encode ->
      decode -> build is the identity (floats travel as hex literals, so
      the round-trip is bit-exact).
   2. Identity: a traced run of a random program lifts into the IR with
      one node per task and the op stream each body produced, and neither
      tracing nor [~kernels:false] moves the metric summary of the
      baseline run — on all three machines. *)

module R = Jade.Runtime
module Ir = Jade_graph.Ir
module Build = Jade_graph.Build
module Sr = Jade_sim.Srandom

(* ------------------------------------------------------------------ *)
(* Random well-formed node sets: per-object version counters keep the
   access chains consistent (every required version has a producer), and
   names include spaces and quotes to stress the string encoding. *)

let gen_float g =
  match Sr.int g 6 with
  | 0 -> 0.0
  | 1 -> Sr.float g 1e-9
  | 2 -> Sr.float g 1.0
  | 3 -> Sr.float g 1e9
  | 4 -> 0.1 +. Sr.float g 0.3
  | _ -> Float.of_int (Sr.int g 1000) /. 7.0

let gen_nodes g =
  let nobjs = 1 + Sr.int g 6 in
  let versions = Array.make nobjs 0 in
  let sizes = Array.init nobjs (fun i -> 64 * (i + 1)) in
  let n = 1 + Sr.int g 40 in
  let next_id = ref 0 in
  List.init n (fun _ ->
      next_id := !next_id + 1 + Sr.int g 3;
      let order = Array.init nobjs Fun.id in
      Sr.shuffle g order;
      let count = 1 + Sr.int g (min 3 nobjs) in
      let accesses =
        Array.init count (fun k ->
            let obj = order.(k) in
            let mode =
              match Sr.int g 3 with 0 -> Ir.Rd | 1 -> Ir.Wr | _ -> Ir.Rw
            in
            let required = versions.(obj) in
            let produces =
              if mode = Ir.Rd then -1
              else begin
                versions.(obj) <- versions.(obj) + 1;
                versions.(obj)
              end
            in
            {
              Ir.a_obj = obj + 1;
              a_name = Printf.sprintf "obj \"%d\" x" obj;
              a_home = Sr.int g 8;
              a_size = sizes.(obj);
              a_mode = mode;
              a_required = required;
              a_produces = produces;
            })
      in
      let nops = Sr.int g 5 in
      let ops =
        Array.init nops (fun _ ->
            if Sr.int g 3 = 0 then Ir.Release (Sr.int g count)
            else Ir.Work (gen_float g))
      in
      {
        Ir.n_id = !next_id;
        n_name = Printf.sprintf "task %d with spaces" !next_id;
        n_work = gen_float g;
        n_placement = (if Sr.int g 4 = 0 then Some (Sr.int g 8) else None);
        n_ran_on = (if Sr.int g 5 = 0 then -1 else Sr.int g 8);
        n_accesses = accesses;
        n_ops = ops;
      })

let roundtrip_prop =
  QCheck.Test.make ~name:"encode/decode round-trips bit-exactly" ~count:200
    QCheck.small_int (fun seed ->
      let g = Sr.create seed in
      let nodes = gen_nodes g in
      let graph = Build.make nodes in
      match Ir.decode_nodes (Ir.encode graph) with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok nodes' -> Ir.equal graph (Build.make nodes'))

(* Decoder robustness: arbitrary strings (bare, and behind a valid
   header so the line parser sees them) and single-line mutations of a
   valid encoding — a line dropped, duplicated, truncated or replaced by
   junk — decode to [Ok] or [Error], never an exception. *)
let decode_never_raises_prop =
  QCheck.Test.make ~name:"decode never raises on mutated input" ~count:500
    QCheck.(pair small_int string)
    (fun (seed, junk) ->
      let g = Sr.create seed in
      let lines =
        Array.of_list
          (String.split_on_char '\n' (Ir.encode (Build.make (gen_nodes g))))
      in
      let i = Sr.int g (Array.length lines) in
      let mutated =
        List.concat
          (List.mapi
             (fun k line ->
               if k <> i then [ line ]
               else
                 match Sr.int g 4 with
                 | 0 -> []
                 | 1 -> [ line; line ]
                 | 2 ->
                     [ String.sub line 0 (Sr.int g (String.length line + 1)) ]
                 | _ -> [ junk ])
             (Array.to_list lines))
      in
      let total s =
        match Ir.decode_nodes s with
        | Ok _ | Error _ -> true
        | exception e ->
            QCheck.Test.fail_reportf "decode raised %s on %S"
              (Printexc.to_string e) s
      in
      total junk
      && total ("jade-graph 1\n" ^ junk)
      && total (String.concat "\n" mutated))

let test_decode_rejects_garbage () =
  let bad s =
    match Ir.decode_nodes s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "empty" true (bad "");
  Alcotest.(check bool) "wrong header" true (bad "jade-graph 99\n");
  Alcotest.(check bool) "unterminated node" true
    (bad "jade-graph 1\nn 1 0x1p0 -1 0 \"t\"\n");
  Alcotest.(check bool) "junk line" true
    (bad "jade-graph 1\nzzz\n");
  (* The [c] segment-cut lines of older encodings are no longer part of
     the format: a stale one is rejected by name, not skipped. *)
  Alcotest.(check (option string))
    "stale cut line" (Some "line 3: unrecognized line")
    (match Ir.decode_nodes "jade-graph 1\nn 1 0x1p0 -1 0 \"t\"\nc 3\ne\n" with
    | Ok _ -> None
    | Error e -> Some e);
  Alcotest.(check bool) "access outside node still builds nodes" true
    (match Ir.decode_nodes "jade-graph 1\nn 1 0x1p0 -1 0 \"t\"\ne\n" with
    | Ok [ n ] -> n.Ir.n_id = 1 && n.Ir.n_placement = None
    | _ -> false)

let test_build_rejects_inconsistent () =
  let node ~id ~required ~produces =
    {
      Ir.n_id = id;
      n_name = "t";
      n_work = 1.0;
      n_placement = None;
      n_ran_on = -1;
      n_accesses =
        [|
          {
            Ir.a_obj = 1;
            a_name = "o";
            a_home = 0;
            a_size = 8;
            a_mode = Ir.Rw;
            a_required = required;
            a_produces = produces;
          };
        |];
      n_ops = [||];
    }
  in
  let invalid nodes =
    match Build.make nodes with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "duplicate id" true
    (invalid [ node ~id:1 ~required:0 ~produces:1; node ~id:1 ~required:1 ~produces:2 ]);
  Alcotest.(check bool) "missing producer" true
    (invalid [ node ~id:1 ~required:5 ~produces:6 ]);
  Alcotest.(check bool) "version produced twice" true
    (invalid [ node ~id:1 ~required:0 ~produces:1; node ~id:2 ~required:0 ~produces:1 ])

(* ------------------------------------------------------------------ *)
(* Random Jade programs (the serial-equivalence generator, condensed):
   each task reads its declared objects and writes a deterministic
   function of what it read, so any dependence violation changes the
   final state. *)

type op = {
  op_id : int;
  reads : int list;
  writes : int list;
  updates : int list;
  placement : int option;
  early_release : int list;
}

type prog = { nobjs : int; ops : op list }

let gen_prog g ~nprocs =
  let nobjs = 2 + Sr.int g 5 in
  let nops = 3 + Sr.int g 25 in
  let ops =
    List.init nops (fun op_id ->
        let order = Array.init nobjs Fun.id in
        Sr.shuffle g order;
        let count = 1 + Sr.int g (min 3 nobjs) in
        let reads = ref [] and writes = ref [] and updates = ref [] in
        for k = 0 to count - 1 do
          match Sr.int g 3 with
          | 0 -> reads := order.(k) :: !reads
          | 1 -> writes := order.(k) :: !writes
          | _ -> updates := order.(k) :: !updates
        done;
        let placement =
          if Sr.int g 5 = 0 then Some (Sr.int g nprocs) else None
        in
        let declared = !reads @ !writes @ !updates in
        let early_release =
          List.filter (fun _ -> Sr.int g 4 = 0) declared
        in
        {
          op_id;
          reads = !reads;
          writes = !writes;
          updates = !updates;
          placement;
          early_release;
        })
  in
  { nobjs; ops }

let apply_op op (arrays : float array array) =
  let sum =
    List.fold_left
      (fun acc i -> acc +. arrays.(i).(0))
      0.0 (op.reads @ op.updates)
  in
  let v = (sum *. 1.000731) +. float_of_int ((op.op_id * 37) + 11) in
  List.iter
    (fun i ->
      arrays.(i).(0) <- v +. float_of_int i;
      arrays.(i).(1) <- arrays.(i).(1) +. 1.0)
    (op.writes @ op.updates)

let jade_program prog ~nprocs rt =
  let objs =
    Array.init prog.nobjs (fun i ->
        R.create_object rt ~home:(i mod nprocs)
          ~name:(Printf.sprintf "obj%d" i)
          ~size:(64 * (i + 1))
          [| float_of_int i; 0.0 |])
  in
  List.iter
    (fun op ->
      let placement =
        match op.placement with Some p when p < nprocs -> Some p | _ -> None
      in
      R.withonly_staged rt ?placement
        ~name:(Printf.sprintf "op%d" op.op_id)
        ~work:(float_of_int (100 + (op.op_id * 13 mod 500)))
        ~accesses:(fun s ->
          List.iter (fun i -> Jade.Spec.rd s objs.(i)) op.reads;
          List.iter (fun i -> Jade.Spec.wr s objs.(i)) op.writes;
          List.iter (fun i -> Jade.Spec.rw s objs.(i)) op.updates)
        (fun env ->
          (* Mid-body work charges bracket the early releases so the
             traced op streams contain [Work; Release...; Work]. *)
          R.work env (float_of_int (50 + (op.op_id * 7 mod 200)));
          let arrays =
            Array.init prog.nobjs (fun i ->
                if List.mem i op.reads then R.rd env objs.(i)
                else if List.mem i (op.writes @ op.updates) then
                  R.wr env objs.(i)
                else [| 0.0; 0.0 |])
          in
          apply_op op arrays;
          List.iter (fun i -> R.release env objs.(i)) op.early_release;
          R.work env 3.0))
    prog.ops;
  R.drain rt

let machines =
  [ ("dash", R.dash); ("ipsc", R.ipsc860); ("lan", R.lan) ]

let identity_prop (mname, machine) =
  QCheck.Test.make
    ~name:(Printf.sprintf "identity pipeline lifts a traced run on %s" mname)
    ~count:25 QCheck.small_int (fun seed ->
      let g = Sr.create seed in
      let nprocs = 2 + Sr.int g 6 in
      let prog = gen_prog g ~nprocs in
      let ntasks = List.length prog.ops in
      let s0 = R.run ~machine ~nprocs (jade_program prog ~nprocs) in
      let trace = Jade.Tracing.create () in
      let s_traced = R.run ~trace ~machine ~nprocs (jade_program prog ~nprocs) in
      if s_traced <> s0 then
        QCheck.Test.fail_reportf "traced run diverged from baseline";
      let graph = Jade.Tracing.graph trace in
      if Ir.node_count graph <> ntasks then
        QCheck.Test.fail_reportf "lifted %d nodes from %d tasks"
          (Ir.node_count graph) ntasks;
      (* Node i is task i + 1: two work charges plus its early releases. *)
      List.iteri
        (fun i op ->
          let n = graph.Ir.nodes.(i) in
          if Array.length n.Ir.n_ops <> List.length op.early_release + 2 then
            QCheck.Test.fail_reportf "task %d lifted %d ops" n.Ir.n_id
              (Array.length n.Ir.n_ops))
        prog.ops;
      R.run ~kernels:false ~machine ~nprocs (jade_program prog ~nprocs) = s0)

let qcheck t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "graph"
    [
      ( "serialization",
        [
          qcheck roundtrip_prop;
          qcheck decode_never_raises_prop;
          Alcotest.test_case "decode rejects garbage" `Quick
            test_decode_rejects_garbage;
          Alcotest.test_case "build rejects inconsistent chains" `Quick
            test_build_rejects_inconsistent;
        ] );
      ( "identity pipeline",
        List.map (fun m -> qcheck (identity_prop m)) machines );
    ]
