(* Parallel-array binary min-heap over int payloads. Keys live in an
   unboxed [float array] (times) and an [int array] (seqs), and payloads
   are immediate ints too, so a push is three barrier-free stores, a pop
   allocates nothing, and a vacated slot pins nothing. *)

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable values : int array;
  mutable size : int;
}

let create () =
  {
    times = Array.make 16 0.0;
    seqs = Array.make 16 0;
    values = Array.make 16 0;
    size = 0;
  }

let length t = t.size

let is_empty t = t.size = 0

let grow t =
  let n = Array.length t.times in
  let n' = 2 * n in
  let times = Array.make n' 0.0 in
  let seqs = Array.make n' 0 in
  let values = Array.make n' 0 in
  Array.blit t.times 0 times 0 n;
  Array.blit t.seqs 0 seqs 0 n;
  Array.blit t.values 0 values 0 n;
  t.times <- times;
  t.seqs <- seqs;
  t.values <- values

let push t ~time ~seq value =
  if t.size = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and values = t.values in
  (* Sift up with a hole: move larger parents down, then place the new
     entry once — no intermediate swaps. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = times.(parent) in
    if time < pt || (time = pt && seq < seqs.(parent)) then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(parent);
      values.(!i) <- values.(parent);
      i := parent
    end
    else continue := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  values.(!i) <- value

let[@inline] min_time t =
  if t.size = 0 then raise Not_found;
  t.times.(0)

let[@inline] min_seq t =
  if t.size = 0 then raise Not_found;
  t.seqs.(0)

(* The caller reads [min_time]/[min_seq] first (still at the root) and
   takes only the payload, so nothing is boxed per event. *)
let pop_min_value t =
  if t.size = 0 then raise Not_found;
  let v = t.values.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let times = t.times and seqs = t.seqs and values = t.values in
    (* Sift the last entry down from the root, again with a hole. *)
    let lt = times.(n) and ls = seqs.(n) and lv = values.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let best = ref (-1) and bt = ref lt and bs = ref ls in
      if l < n && (times.(l) < !bt || (times.(l) = !bt && seqs.(l) < !bs))
      then begin
        best := l;
        bt := times.(l);
        bs := seqs.(l)
      end;
      if r < n && (times.(r) < !bt || (times.(r) = !bt && seqs.(r) < !bs))
      then best := r;
      if !best >= 0 then begin
        times.(!i) <- times.(!best);
        seqs.(!i) <- seqs.(!best);
        values.(!i) <- values.(!best);
        i := !best
      end
      else continue := false
    done;
    times.(!i) <- lt;
    seqs.(!i) <- ls;
    values.(!i) <- lv
  end;
  v
