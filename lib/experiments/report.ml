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

(* The primitive behind [Printf]'s [%f], for what [fixed] leaves to it. *)
external format_float : string -> float -> string = "caml_format_float"

let pow5 = [| 1; 5; 25; 125 |]

let c_formats = [| "%.0f"; "%.1f"; "%.2f"; "%.3f" |]

(* [%.nf] by exact integer arithmetic. A finite double is m * 2^e with
   m < 2^53, so |v| * 10^n = m * 5^n * 2^(e+n), and m * 5^n < 2^60 fits
   an int: shifting it right by s = -(e+n) bits gives the integer part
   and the remainder, which rounds it to nearest with ties to even —
   glibc's rounding of the exact binary value. Below 1e15 the rounded
   value stays under 10^18; larger and non-finite values go to the C
   formatter. *)
let fixed n v =
  if n < 0 || n > 3 then invalid_arg "Report.fixed: precision outside 0..3";
  if not (Float.abs v < 1e15) then format_float c_formats.(n) v
  else begin
    let bits = Int64.bits_of_float v in
    let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
    let frac = Int64.to_int (Int64.logand bits 0xf_ffff_ffff_ffffL) in
    let m, e = if biased = 0 then (frac, -1074) else (frac lor (1 lsl 52), biased - 1075) in
    let t = m * pow5.(n) and s = -(e + n) in
    let k =
      if s <= 0 then t lsl (-s)
      else if s > 61 then 0 (* t < 2^60 <= 2^(s-2): under a quarter *)
      else
        let q = t asr s and r = t land ((1 lsl s) - 1) and half = 1 lsl (s - 1) in
        if r > half || (r = half && q land 1 = 1) then q + 1 else q
    in
    (* The digits of k right to left, the point n digits in, at least
       one digit before it. *)
    let buf = Bytes.create 24 in
    let pos = ref 24 and k = ref k and digits = ref 0 in
    while !digits <= n || !k > 0 do
      if !digits = n && n > 0 then begin
        decr pos;
        Bytes.unsafe_set buf !pos '.'
      end;
      decr pos;
      Bytes.unsafe_set buf !pos (Char.unsafe_chr (48 + (!k mod 10)));
      k := !k / 10;
      incr digits
    done;
    if Float.sign_bit v then begin
      decr pos;
      Bytes.unsafe_set buf !pos '-'
    end;
    Bytes.sub_string buf !pos (24 - !pos)
  end

let default_fmt v =
  let a = Float.abs v in
  fixed (if a >= 1000.0 then 0 else if a >= 10.0 then 2 else 3) v

let render t =
  assert_unpoisoned t;
  let cell = function Some v -> default_fmt v | None -> "-" in
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
