(* Graph construction: sort the recorded nodes by task id, validate the
   version chains, and derive the data-flow edges. Task B is a successor
   of task A exactly when some access of B requires a version some access
   of A produces — the same (object, version) chains the synchronizer
   enforces at run time, so the derived DAG is precisely the execution
   precedence the recorded program exhibited. *)

let make nodes =
  let arr = Array.of_list nodes in
  Array.sort (fun a b -> compare a.Ir.n_id b.Ir.n_id) arr;
  let n = Array.length arr in
  let index = Hashtbl.create (max 16 n) in
  Array.iteri
    (fun pos node ->
      if Hashtbl.mem index node.Ir.n_id then
        invalid_arg
          (Printf.sprintf "Build.make: duplicate task id %d" node.Ir.n_id);
      Hashtbl.add index node.Ir.n_id pos)
    arr;
  (* (object, version) -> producing node position. Version promises are
     handed out in task creation order, so producers always precede their
     consumers in the sorted array. *)
  let producer = Hashtbl.create (max 16 n) in
  Array.iteri
    (fun pos node ->
      Array.iter
        (fun a ->
          if a.Ir.a_produces >= 0 then begin
            let k = (a.Ir.a_obj, a.Ir.a_produces) in
            if Hashtbl.mem producer k then
              invalid_arg
                (Printf.sprintf
                   "Build.make: version %d of object %d produced twice"
                   a.Ir.a_produces a.Ir.a_obj);
            Hashtbl.add producer k pos
          end)
        node.Ir.n_accesses)
    arr;
  let preds = Array.make n [] in
  let succs = Array.make n [] in
  Array.iteri
    (fun pos node ->
      let ps = ref [] in
      Array.iter
        (fun a ->
          if a.Ir.a_required > 0 then
            match Hashtbl.find_opt producer (a.Ir.a_obj, a.Ir.a_required) with
            | Some p when p <> pos ->
                if p > pos then
                  invalid_arg
                    (Printf.sprintf
                       "Build.make: task %d requires version %d of object %d \
                        produced by the later task %d"
                       node.Ir.n_id a.Ir.a_required a.Ir.a_obj
                       arr.(p).Ir.n_id);
                if not (List.mem p !ps) then ps := p :: !ps
            | Some _ -> ()
            | None ->
                invalid_arg
                  (Printf.sprintf
                     "Build.make: task %d requires version %d of object %d, \
                      which no recorded task produces"
                     node.Ir.n_id a.Ir.a_required a.Ir.a_obj))
        node.Ir.n_accesses;
      let ps = List.sort compare !ps in
      preds.(pos) <- ps;
      List.iter (fun p -> succs.(p) <- pos :: succs.(p)) ps)
    arr;
  Array.iteri (fun pos l -> succs.(pos) <- List.rev l) succs;
  { Ir.nodes = arr; index; preds; succs }
