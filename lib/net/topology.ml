type t = { n : int; dim : int }

let ceil_log2 n =
  let rec go d v = if v >= n then d else go (d + 1) (v * 2) in
  go 0 1

let hypercube n =
  if n <= 0 then invalid_arg "Topology.hypercube: need at least one node";
  { n; dim = ceil_log2 n }

let nodes t = t.n

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + (x land 1)) (x lsr 1) in
  go 0 x

let check t p =
  if p < 0 || p >= t.n then invalid_arg "Topology: node out of range"

let hops t src dst =
  check t src;
  check t dst;
  popcount (src lxor dst)

let broadcast_rounds t = t.dim

let broadcast_schedule t ~root =
  check t root;
  let rounds = Array.make t.n 0 in
  (* In a binomial broadcast on the cube, node [root lxor m] is reached
     in the round equal to the position (1-based, counted from the high
     end of the dimensions actually used) of the highest set bit of
     [m]. We assign rounds so that at most 2^(r-1) new nodes appear in
     round r, matching a tree in which every holder forwards once per
     round. *)
  let reached = ref 1 in
  let order = Array.init t.n (fun i -> i) in
  (* Sort non-root nodes by their relative address so the schedule is
     deterministic and tree-shaped. *)
  Array.sort (fun a b -> compare (a lxor root) (b lxor root)) order;
  let round = ref 0 in
  let capacity = ref 0 in
  Array.iter
    (fun node ->
      if node <> root then begin
        if !capacity = 0 then begin
          incr round;
          capacity := !reached
        end;
        rounds.(node) <- !round;
        decr capacity;
        incr reached
      end)
    order;
  rounds
