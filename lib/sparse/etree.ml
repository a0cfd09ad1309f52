(* Liu's elimination-tree algorithm with path compression on virtual
   ancestors. *)
let parents (a : Csc.t) =
  let n = a.Csc.n in
  let parent = Array.make n (-1) in
  let ancestor = Array.make n (-1) in
  for j = 0 to n - 1 do
    Csc.iter_col a j (fun i _ ->
        if i < j then begin
          (* Walk from i to the root of its current subtree, compressing the
             ancestor path onto j; the root's parent becomes j. *)
          let r = ref i in
          while ancestor.(!r) <> -1 && ancestor.(!r) <> j do
            let next = ancestor.(!r) in
            ancestor.(!r) <- j;
            r := next
          done;
          if ancestor.(!r) = -1 then begin
            ancestor.(!r) <- j;
            parent.(!r) <- j
          end
        end)
  done;
  parent

let postorder parent =
  let n = Array.length parent in
  (* Children lists in increasing order. *)
  let children = Array.make n [] in
  for v = n - 1 downto 0 do
    if parent.(v) >= 0 then children.(parent.(v)) <- v :: children.(parent.(v))
  done;
  let order = Array.make n 0 in
  let idx = ref 0 in
  let rec visit v =
    List.iter visit children.(v);
    order.(!idx) <- v;
    incr idx
  in
  for v = 0 to n - 1 do
    if parent.(v) = -1 then visit v
  done;
  if !idx <> n then invalid_arg "Etree.postorder: parent array is not a forest";
  order
