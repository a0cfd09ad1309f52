type table = {
  id : string;
  title : string;
  columns : string list;
  rows : (string * float option list) list;
  unit_label : string;
}

(* Sentinel for summaries that exist only to shape a run plan and must
   never reach output. NaN-free (NaN would disappear into "-"/"nan" cells
   and poison arithmetic silently) and negative, so downstream guards on
   physically-nonnegative quantities stay finite. *)
let poison = -987654.25

let poison_int = -987654

(* Deliberately [assert], not [failwith]: Runner's planning pass treats
   [Assert_failure] as fatal (it swallows ordinary exceptions), so a table
   built from planning-pass summaries aborts loudly instead of the leak
   hiding behind the discarded planning output. *)
let assert_unpoisoned t =
  let ok v = v <> poison && v <> float_of_int poison_int in
  List.iter
    (fun ((_ : string), vs) ->
      List.iter (function Some v -> assert (ok v) | None -> ()) vs)
    t.rows

(* The primitive behind [Printf]'s [%f]: byte-identical output without
   interpreting a format per cell. *)
external format_float : string -> float -> string = "caml_format_float"

let default_fmt v =
  let a = Float.abs v in
  format_float (if a >= 1000.0 then "%.0f" else if a >= 10.0 then "%.2f" else "%.3f") v

let render ?(fmt = default_fmt) t =
  assert_unpoisoned t;
  let cell = function Some v -> fmt v | None -> "-" in
  let header = "" :: t.columns in
  let body = List.map (fun (label, vs) -> label :: List.map cell vs) t.rows in
  let all = header :: body in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i c -> if String.length c > widths.(i) then widths.(i) <- String.length c)
        row)
    all;
  let buf = Buffer.create 256 in
  (* Cells right-aligned to their column's width, two spaces apart. *)
  let line row =
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf "  ";
        for _ = String.length c + 1 to widths.(i) do Buffer.add_char buf ' ' done;
        Buffer.add_string buf c)
      row;
    Buffer.add_char buf '\n'
  in
  Printf.bprintf buf "%s: %s (%s)\n" t.id t.title t.unit_label;
  List.iter line all;
  Buffer.contents buf

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  assert_unpoisoned t;
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (String.concat "," ("" :: List.map csv_escape t.columns));
  Buffer.add_char buf '\n';
  List.iter
    (fun (label, vs) ->
      let cells =
        List.map (function Some v -> Printf.sprintf "%.17g" v | None -> "") vs
      in
      Buffer.add_string buf (String.concat "," (csv_escape label :: cells));
      Buffer.add_char buf '\n')
    t.rows;
  Buffer.contents buf

let render_comparison ~ours ~paper =
  match paper with
  | None -> render ours
  | Some p ->
      render ours ^ "\nPaper reported:\n"
      ^ render { p with id = ours.id; title = p.title }
