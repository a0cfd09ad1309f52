type mode = Rd | Wr | Rw

type op = Work of float | Release of int

type access = {
  a_obj : int;
  a_name : string;
  a_home : int;
  a_size : int;
  a_mode : mode;
  a_required : int;
  a_produces : int;
}

type node = {
  n_id : int;
  n_name : string;
  n_work : float;
  n_placement : int option;
  n_ran_on : int;
  n_accesses : access array;
  n_ops : op array;
}

type t = {
  nodes : node array;
  index : (int, int) Hashtbl.t;
  preds : int list array;
  succs : int list array;
}

let mode_to_string = function Rd -> "rd" | Wr -> "wr" | Rw -> "rw"

let node_count g = Array.length g.nodes

let edge_count g = Array.fold_left (fun n l -> n + List.length l) 0 g.preds

let object_count g =
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun n ->
      Array.iter (fun a -> Hashtbl.replace seen a.a_obj ()) n.n_accesses)
    g.nodes;
  Hashtbl.length seen

let node_work n =
  if Array.length n.n_ops = 0 then n.n_work
  else
    Array.fold_left
      (fun acc op -> match op with Work f -> acc +. f | Release _ -> acc)
      0.0 n.n_ops

let total_work g = Array.fold_left (fun acc n -> acc +. node_work n) 0.0 g.nodes

(* ------------------------------------------------------------------ *)
(* Serialization. Line-oriented; floats print as hex ([%h]), exact to
   the bit; names print as OCaml string literals ([%S]) and come last on
   their line so they may contain spaces. *)

let magic = "jade-graph 1"

let encode g =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  Buffer.add_char b '\n';
  Array.iter
    (fun n ->
      Buffer.add_string b
        (Printf.sprintf "n %d %h %d %d %S\n" n.n_id n.n_work
           (match n.n_placement with Some p -> p | None -> -1)
           n.n_ran_on n.n_name);
      Array.iter
        (fun a ->
          Buffer.add_string b
            (Printf.sprintf "a %d %d %d %s %d %d %S\n" a.a_obj a.a_home
               a.a_size (mode_to_string a.a_mode) a.a_required a.a_produces
               a.a_name))
        n.n_accesses;
      Array.iter
        (fun op ->
          match op with
          | Work f -> Buffer.add_string b (Printf.sprintf "w %h\n" f)
          | Release s -> Buffer.add_string b (Printf.sprintf "r %d\n" s))
        n.n_ops;
      Buffer.add_string b "e\n")
    g.nodes;
  Buffer.contents b
