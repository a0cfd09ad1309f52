type result = {
  graph : Ir.t;
  changed : int;
  detail : string;
  cert : Verify.cert;
}

(* The static locality projection: the processor each task is expected
   to execute on, following explicit placement where declared, the
   observed schedule where recorded, and the owner (last projected
   writer, initially the allocation home) of the task's locality object
   otherwise — a machine-independent approximation of the schedulers'
   locality heuristic. *)
let projected_placement g =
  let n = Array.length g.Ir.nodes in
  let proj = Array.make n 0 in
  (* (object, version) -> projected owner: the projected placement of the
     version's producer; version 0 is owned by the allocation home. *)
  let owner = Hashtbl.create (max 16 n) in
  Array.iteri
    (fun pos node ->
      let p =
        match node.Ir.n_placement with
        | Some p -> p
        | None when node.Ir.n_ran_on >= 0 ->
            (* observed data-access information beats any static guess *)
            node.Ir.n_ran_on
        | None ->
            if Array.length node.Ir.n_accesses = 0 then 0
            else
              let a = node.Ir.n_accesses.(0) in
              if a.Ir.a_required = 0 then a.Ir.a_home
              else (
                match
                  Hashtbl.find_opt owner (a.Ir.a_obj, a.Ir.a_required)
                with
                | Some o -> o
                | None -> a.Ir.a_home)
      in
      proj.(pos) <- p;
      Array.iter
        (fun a ->
          if a.Ir.a_produces >= 0 then
            Hashtbl.replace owner (a.Ir.a_obj, a.Ir.a_produces) p)
        node.Ir.n_accesses)
    g.Ir.nodes;
  proj

(* ------------------------------------------------------------------ *)
(* Locality re-clustering. The schedulers' locality heuristic follows a
   single access — the task's first-declared (locality) object — and
   corrects itself dynamically with load balancing. This pass starts
   from the observed schedule ([n_ran_on], which already has the
   baseline's balance) and moves a task only where the data flow says a
   different processor holds the majority of the bytes it writes: each
   written access whose required version has a known producer votes for
   that producer's effective processor, weighted by the object's size in
   bytes (what a miss would move over the network). Only writes vote
   when any exist — a written version must live wherever the task runs,
   while reads are served by replication and adaptive broadcast, so
   letting a large read-shared object vote would collapse every reader
   onto its owner and serialize the program. Version-0 accesses never
   vote: initial data sits at the allocation home (processor 0 on
   message-passing machines), and pinning every first-phase task there
   would trade one cold fetch for all the parallelism. A task moves only
   when the winning processor holds a strict majority of all the bytes
   it writes — a minority access (a small boundary object, say) must not
   drag the task away from the bulk of its data. Tasks the program
   placed explicitly are never overridden. Effective processors project
   forward in task-id order, so a re-homed producer's consumers vote for
   its new home. *)

let cluster before =
  let n = Array.length before.Ir.nodes in
  let proj0 = projected_placement before in
  let owner = Hashtbl.create (max 16 n) in
  let votes = Hashtbl.create 8 in
  let changed = ref 0 and pinned = ref 0 in
  let nodes =
    Array.mapi
      (fun pos node ->
        let node =
          if node.Ir.n_placement <> None || Array.length node.Ir.n_accesses = 0
          then node
          else begin
            Hashtbl.reset votes;
            let writes =
              Array.exists (fun a -> a.Ir.a_produces >= 0) node.Ir.n_accesses
            in
            let eligible a = (not writes) || a.Ir.a_produces >= 0 in
            let total = ref 0.0 in
            Array.iter
              (fun a ->
                if eligible a then begin
                  let w = float_of_int (max 1 a.Ir.a_size) in
                  total := !total +. w;
                  if a.Ir.a_required > 0 then
                    match
                      Hashtbl.find_opt owner (a.Ir.a_obj, a.Ir.a_required)
                    with
                    | Some o ->
                        Hashtbl.replace votes o
                          (w
                          +. Option.value ~default:0.0
                               (Hashtbl.find_opt votes o))
                    | None -> ()
                end)
              node.Ir.n_accesses;
            let best =
              Hashtbl.fold
                (fun o w acc ->
                  match acc with
                  | Some (bo, bw) when w < bw || (w = bw && bo <= o) -> acc
                  | _ -> Some (o, w))
                votes None
            in
            match (best, node.Ir.n_ran_on) with
            | Some (best, bw), _ when bw > 0.5 *. !total ->
                incr pinned;
                if best <> proj0.(pos) then incr changed;
                { node with Ir.n_placement = Some best }
            | _, ran when ran >= 0 ->
                (* no majority data-flow vote: keep the observed spot *)
                incr pinned;
                { node with Ir.n_placement = Some ran }
            | _, _ -> node
          end
        in
        let p =
          match node.Ir.n_placement with Some p -> p | None -> proj0.(pos)
        in
        Array.iter
          (fun a ->
            if a.Ir.a_produces >= 0 then
              Hashtbl.replace owner (a.Ir.a_obj, a.Ir.a_produces) p)
          node.Ir.n_accesses;
        node)
      before.Ir.nodes
  in
  (* The derived edges come out identical — placement is all this pass
     edits — which the certificate then independently confirms. *)
  let after = Build.make (Array.to_list nodes) in
  let cert = Verify.check ~pass:"cluster" ~before ~after in
  if not (Verify.ok cert) then
    invalid_arg
      (Format.asprintf "Passes.cluster: dirty certificate: %a" Verify.pp cert);
  {
    graph = after;
    changed = !changed;
    detail =
      Printf.sprintf
        "pinned %d unplaced tasks, %d moved off the observed schedule" !pinned
        !changed;
    cert;
  }
