(* Growable ring buffer. The task-queue structures sit on the scheduler's
   hot path (every dispatch pops, every idle poll peeks, a DASH steal
   search probes every victim), so the representation is a circular array:
   pushes and the [_exn]/[first]/[last] accessors allocate nothing, unlike
   the classic two-list deque whose every operation conses or boxes an
   option. Capacity is always a power of two; slots outside the live
   window hold [filler] so a popped element is never pinned. *)
type 'a t = { mutable buf : Obj.t array; mutable head : int; mutable size : int }

let filler = Obj.repr ()

let create () = { buf = [||]; head = 0; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let grow t =
  let cap = Array.length t.buf in
  let cap' = if cap = 0 then 8 else 2 * cap in
  let buf = Array.make cap' filler in
  for i = 0 to t.size - 1 do
    buf.(i) <- t.buf.((t.head + i) land (cap - 1))
  done;
  t.buf <- buf;
  t.head <- 0

let push_back t v =
  if t.size = Array.length t.buf then grow t;
  t.buf.((t.head + t.size) land (Array.length t.buf - 1)) <- Obj.repr v;
  t.size <- t.size + 1

let first (t : 'a t) : 'a =
  if t.size = 0 then invalid_arg "Deque.first: empty";
  Obj.obj t.buf.(t.head)

let last (t : 'a t) : 'a =
  if t.size = 0 then invalid_arg "Deque.last: empty";
  Obj.obj t.buf.((t.head + t.size - 1) land (Array.length t.buf - 1))

let pop_front_exn (t : 'a t) : 'a =
  if t.size = 0 then invalid_arg "Deque.pop_front_exn: empty";
  let v = t.buf.(t.head) in
  t.buf.(t.head) <- filler;
  t.head <- (t.head + 1) land (Array.length t.buf - 1);
  t.size <- t.size - 1;
  Obj.obj v

let pop_back_exn (t : 'a t) : 'a =
  if t.size = 0 then invalid_arg "Deque.pop_back_exn: empty";
  let i = (t.head + t.size - 1) land (Array.length t.buf - 1) in
  let v = t.buf.(i) in
  t.buf.(i) <- filler;
  t.size <- t.size - 1;
  Obj.obj v

let pop_front t = if t.size = 0 then None else Some (pop_front_exn t)

let to_list (t : 'a t) =
  let mask = Array.length t.buf - 1 in
  List.init t.size (fun i -> (Obj.obj t.buf.((t.head + i) land mask) : 'a))
