let memo (type k) (format : k -> string) : k -> string =
  let table : (k, string) Hashtbl.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Hashtbl.create 64)
  in
  fun k ->
    let tbl = Domain.DLS.get table in
    match Hashtbl.find tbl k with
    | s -> s
    | exception Not_found ->
        let s = format k in
        Hashtbl.add tbl k s;
        s
