type t = {
  n : int;
  colptr : int array;
  rowind : int array;
  values : float array;
}

let of_triplets n entries =
  if n <= 0 then invalid_arg "Csc.of_triplets: n must be positive";
  List.iter
    (fun (i, j, _) ->
      if i < 0 || i >= n || j < 0 || j >= n then
        invalid_arg "Csc.of_triplets: index out of range")
    entries;
  (* Sum duplicates via a per-column map. *)
  let cols = Array.make n [] in
  List.iter (fun (i, j, v) -> cols.(j) <- (i, v) :: cols.(j)) entries;
  let colptr = Array.make (n + 1) 0 in
  let merged =
    Array.map
      (fun l ->
        let tbl = Hashtbl.create 8 in
        List.iter
          (fun (i, v) ->
            let cur = try Hashtbl.find tbl i with Not_found -> 0.0 in
            Hashtbl.replace tbl i (cur +. v))
          l;
        let entries = Hashtbl.fold (fun i v acc -> (i, v) :: acc) tbl [] in
        List.sort (fun (a, _) (b, _) -> compare a b) entries)
      cols
  in
  Array.iteri (fun j l -> colptr.(j + 1) <- colptr.(j) + List.length l) merged;
  let nnz = colptr.(n) in
  let rowind = Array.make (max nnz 1) 0 in
  let values = Array.make (max nnz 1) 0.0 in
  Array.iteri
    (fun j l ->
      List.iteri
        (fun k (i, v) ->
          rowind.(colptr.(j) + k) <- i;
          values.(colptr.(j) + k) <- v)
        l)
    merged;
  { n; colptr; rowind; values }

let nnz t = t.colptr.(t.n)

let get t i j =
  let rec go k =
    if k >= t.colptr.(j + 1) then 0.0
    else if t.rowind.(k) = i then t.values.(k)
    else if t.rowind.(k) > i then 0.0
    else go (k + 1)
  in
  go t.colptr.(j)

let iter_col t j f =
  for k = t.colptr.(j) to t.colptr.(j + 1) - 1 do
    f t.rowind.(k) t.values.(k)
  done

let to_dense t =
  let d = Array.make_matrix t.n t.n 0.0 in
  for j = 0 to t.n - 1 do
    iter_col t j (fun i v -> d.(i).(j) <- v)
  done;
  d

let mul_vec t x =
  if Array.length x <> t.n then invalid_arg "Csc.mul_vec: size mismatch";
  let y = Array.make t.n 0.0 in
  for j = 0 to t.n - 1 do
    iter_col t j (fun i v -> y.(i) <- y.(i) +. (v *. x.(j)))
  done;
  y

let is_symmetric ?(tol = 1e-12) t =
  let ok = ref true in
  for j = 0 to t.n - 1 do
    iter_col t j (fun i v -> if Float.abs (get t j i -. v) > tol then ok := false)
  done;
  !ok
