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

let mode_of_string = function
  | "rd" -> Some Rd
  | "wr" -> Some Wr
  | "rw" -> Some Rw
  | _ -> None

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

(* Nodes are pure data (ints, floats, strings, arrays), so structural
   equality is exact; edges are derived from the nodes and need no
   separate comparison. *)
let equal a b = a.nodes = b.nodes

(* ------------------------------------------------------------------ *)
(* Serialization. Line-oriented; floats print as hex ([%h]) so decode
   reproduces the exact bits; names print as OCaml string literals
   ([%S]) and come last on their line so they may contain spaces. *)

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

(* Decoder state for the node currently being read (fields accumulate in
   reverse). *)
type partial = {
  mutable p_node : node option;
  mutable p_accesses : access list;
  mutable p_ops : op list;
}

let decode_nodes s =
  let lines = String.split_on_char '\n' s in
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  match lines with
  | [] -> Error "empty input"
  | first :: rest ->
      if String.trim first <> magic then
        Error (Printf.sprintf "bad header %S (want %S)" first magic)
      else begin
        let cur = { p_node = None; p_accesses = []; p_ops = [] } in
        let out = ref [] in
        let rec go lineno = function
          | [] ->
              if cur.p_node <> None then Error "truncated: unterminated node"
              else Ok (List.rev !out)
          | line :: tl when String.trim line = "" -> go (lineno + 1) tl
          | line :: tl -> (
              let fail msg = err lineno msg in
              match line.[0] with
              | 'n' -> (
                  if cur.p_node <> None then
                    fail "node start inside open node"
                  else
                    match
                      Scanf.sscanf line "n %d %h %d %d %S"
                        (fun id work pl ran name ->
                          {
                            n_id = id;
                            n_name = name;
                            n_work = work;
                            n_placement = (if pl < 0 then None else Some pl);
                            n_ran_on = ran;
                            n_accesses = [||];
                            n_ops = [||];
                          })
                    with
                    | n ->
                        cur.p_node <- Some n;
                        go (lineno + 1) tl
                    | exception _ -> fail "malformed node line")
              | 'a' -> (
                  match
                    Scanf.sscanf line "a %d %d %d %s %d %d %S"
                      (fun obj home size mode req prod name ->
                        match mode_of_string mode with
                        | Some m ->
                            Some
                              {
                                a_obj = obj;
                                a_name = name;
                                a_home = home;
                                a_size = size;
                                a_mode = m;
                                a_required = req;
                                a_produces = prod;
                              }
                        | None -> None)
                  with
                  | Some a ->
                      cur.p_accesses <- a :: cur.p_accesses;
                      go (lineno + 1) tl
                  | None -> fail "unknown access mode"
                  | exception _ -> fail "malformed access line")
              | 'w' -> (
                  match Scanf.sscanf line "w %h" (fun f -> f) with
                  | f ->
                      cur.p_ops <- Work f :: cur.p_ops;
                      go (lineno + 1) tl
                  | exception _ -> fail "malformed work line")
              | 'r' -> (
                  match Scanf.sscanf line "r %d" (fun s -> s) with
                  | s ->
                      cur.p_ops <- Release s :: cur.p_ops;
                      go (lineno + 1) tl
                  | exception _ -> fail "malformed release line")
              | 'e' -> (
                  match cur.p_node with
                  | None -> fail "node end with no open node"
                  | Some n ->
                      out :=
                        {
                          n with
                          n_accesses =
                            Array.of_list (List.rev cur.p_accesses);
                          n_ops = Array.of_list (List.rev cur.p_ops);
                        }
                        :: !out;
                      cur.p_node <- None;
                      cur.p_accesses <- [];
                      cur.p_ops <- [];
                      go (lineno + 1) tl)
              | _ -> fail "unrecognized line")
        in
        go 2 rest
      end
