(* Tests of the task-graph IR.

   Two layers:

   1. Build: for random well-formed node sets, the derived edges are
      exactly the version chains, and inconsistent chains are rejected.
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
   access chains consistent (every required version has a producer). *)

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

(* For random well-formed node sets, [Build.make] accepts the nodes and
   derives exactly the version-chain edges: each node's producers are the
   nodes a direct scan finds producing its required versions, and the
   consumer lists are their transpose. *)
let build_edges_prop =
  QCheck.Test.make ~name:"build derives the version-chain edges" ~count:200
    QCheck.small_int (fun seed ->
      let nodes = gen_nodes (Sr.create seed) in
      let g = Build.make nodes in
      let arr = g.Ir.nodes in
      let producers (a : Ir.access) =
        List.filter
          (fun q ->
            Array.exists
              (fun b ->
                b.Ir.a_obj = a.Ir.a_obj && b.Ir.a_produces = a.Ir.a_required)
              arr.(q).Ir.n_accesses)
          (List.init (Array.length arr) Fun.id)
      in
      if Ir.node_count g <> List.length nodes then
        QCheck.Test.fail_reportf "built %d nodes from %d" (Ir.node_count g)
          (List.length nodes);
      Array.iteri
        (fun pos n ->
          let scanned =
            Array.to_list n.Ir.n_accesses
            |> List.filter (fun a -> a.Ir.a_required > 0)
            |> List.concat_map producers
            |> List.filter (( <> ) pos)
            |> List.sort_uniq compare
          in
          if g.Ir.preds.(pos) <> scanned then
            QCheck.Test.fail_reportf "task %d: preds [%s], scan finds [%s]"
              n.Ir.n_id
              (String.concat ";" (List.map string_of_int g.Ir.preds.(pos)))
              (String.concat ";" (List.map string_of_int scanned));
          let consumers =
            List.filter
              (fun q -> List.mem pos g.Ir.preds.(q))
              (List.init (Array.length arr) Fun.id)
          in
          if g.Ir.succs.(pos) <> consumers then
            QCheck.Test.fail_reportf "task %d: succs are not the transpose"
              n.Ir.n_id)
        arr;
      true)

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
      ( "build",
        [
          qcheck build_edges_prop;
          Alcotest.test_case "build rejects inconsistent chains" `Quick
            test_build_rejects_inconsistent;
        ] );
      ( "identity pipeline",
        List.map (fun m -> qcheck (identity_prop m)) machines );
    ]
