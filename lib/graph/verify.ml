(* Pass validity certificates. Every transformation pass must preserve
   the program's synchronization-visible semantics; this module checks
   the preservation properties directly on the before/after graphs and
   issues a certificate naming each property. [Passes.cluster] refuses
   to hand a graph to the replay layer unless its certificate is clean.

   The properties:

   - node set: same task ids, none added or removed (the recorded
     program still creates exactly these tasks);
   - access sets: every task's declared accesses — objects, modes and
     resolved version chain positions — are untouched (placement is the
     only degree of freedom a pass has);
   - release order: each task's mid-body release sequence, the work
     charged before each release, and the total charged work are
     unchanged (so the synchronizer observes the same commits at the
     same flop offsets);
   - edges: the derived data-flow DAG is identical. *)

type cert = {
  v_pass : string;
  v_nodes : bool;
  v_accesses : bool;
  v_releases : bool;
  v_edges : bool;
  v_detail : string;
}

let ok c = c.v_nodes && c.v_accesses && c.v_releases && c.v_edges

(* Release sequence of an op stream paired with the cumulative work
   charged before each release, plus the total work. *)
let release_profile ops =
  let rels = ref [] and acc = ref 0.0 in
  Array.iter
    (fun op ->
      match op with
      | Ir.Work f -> acc := !acc +. f
      | Ir.Release s -> rels := (s, !acc) :: !rels)
    ops;
  (List.rev !rels, !acc)

let check ~pass ~before ~after =
  let fails = Buffer.create 64 in
  let note fmt = Printf.ksprintf (fun s ->
      if Buffer.length fails > 0 then Buffer.add_string fails "; ";
      Buffer.add_string fails s) fmt
  in
  let nb = Array.length before.Ir.nodes and na = Array.length after.Ir.nodes in
  let nodes_ok =
    nb = na
    && Array.for_all2 (fun x y -> x.Ir.n_id = y.Ir.n_id) before.Ir.nodes
         after.Ir.nodes
  in
  if not nodes_ok then note "node set changed (%d -> %d tasks)" nb na;
  let accesses_ok =
    nodes_ok
    && Array.for_all2
         (fun x y ->
           x.Ir.n_accesses = y.Ir.n_accesses && x.Ir.n_name = y.Ir.n_name
           && x.Ir.n_work = y.Ir.n_work)
         before.Ir.nodes after.Ir.nodes
  in
  if nodes_ok && not accesses_ok then note "access sets changed";
  let releases_ok =
    nodes_ok
    && Array.for_all2
         (fun x y -> release_profile x.Ir.n_ops = release_profile y.Ir.n_ops)
         before.Ir.nodes after.Ir.nodes
  in
  if nodes_ok && not releases_ok then note "release order or work changed";
  let edges_ok = nodes_ok && before.Ir.preds = after.Ir.preds in
  if nodes_ok && not edges_ok then note "data-flow edges changed";
  {
    v_pass = pass;
    v_nodes = nodes_ok;
    v_accesses = accesses_ok;
    v_releases = releases_ok;
    v_edges = edges_ok;
    v_detail =
      (if Buffer.length fails = 0 then "preserved" else Buffer.contents fails);
  }

let pp fmt c =
  Format.fprintf fmt
    "%s: %s [nodes=%b accesses=%b releases=%b edges=%b]" c.v_pass
    (if ok c then "valid" else "INVALID: " ^ c.v_detail)
    c.v_nodes c.v_accesses c.v_releases c.v_edges
