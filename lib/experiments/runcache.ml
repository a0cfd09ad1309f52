let schema_version = 10

let build_id = Jade_buildinfo.Buildinfo.source_md5

type value = Summary of Jade.Metrics.summary | Flops of float

type t = {
  cache_dir : string;
  mutable index : (string, value) Hashtbl.t Lazy.t;
      (** the records of the segments listed at {!create}, read by the
          first {!find} *)
}

let dir t = t.cache_dir

let segment_suffix = ".jrp"

let last_run_file t = Filename.concat t.cache_dir "last_run.txt"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Unix.mkdir d 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let warn fmt = Printf.eprintf ("runcache: warning: " ^^ fmt ^^ "\n%!")

(* The paths of [dir]'s files with one of [suffixes], sorted. *)
let files dir suffixes =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
      List.sort String.compare (Array.to_list files)
      |> List.filter (fun f -> List.exists (Filename.check_suffix f) suffixes)
      |> List.map (Filename.concat dir)

(* The runtime shape of each [value] constructor, taken from a real
   instance. [conforms p o]: [o] has [p]'s block structure down to the
   leaves — same tags and sizes, immediates and boxed floats in the same
   places — which is all a [value] is made of. *)
let prototypes =
  List.map Obj.repr
    [ Summary (Jade.Metrics.summary (Jade.Metrics.create ())); Flops 0.0 ]

let rec conforms p o =
  if Obj.is_int p then Obj.is_int o
  else
    Obj.is_block o
    && Obj.tag o = Obj.tag p
    && Obj.size o = Obj.size p
    && (Obj.tag p = Obj.double_tag || fields_conform p o 0)

and fields_conform p o i =
  i = Obj.size p
  || (conforms (Obj.field p i) (Obj.field o i) && fields_conform p o (i + 1))

(* [Some v] when [body] from [off] on is exactly one marshalled [value].
   [Marshal] raises on bytes it cannot parse, and a well-formed value of
   another type would crash the program once matched on, so the decoded
   shape is checked before the cast. *)
let decode body off =
  try
    let o : Obj.t = Marshal.from_string body off in
    let size = Marshal.total_size (Bytes.unsafe_of_string body) off in
    if off + size = String.length body && List.exists (fun p -> conforms p o) prototypes
    then Some (Obj.obj o : value)
    else None
  with Failure _ | Invalid_argument _ -> None

(* Segment layout: a header line "jade-runcache <schema> <build id>
   <record count>", then per record the 16 raw MD5 bytes of its body,
   the body's length (4 bytes, big-endian) and the body: the key's length
   (4 bytes, big-endian), the key, then the marshalled [value]. The count
   catches a cut that falls between records. *)

(* The record count a header announces, or why its segment is not read:
   another schema, or another build's code. *)
let header_count line =
  Scanf.sscanf line "jade-runcache %d %[^\n]" @@ fun v rest ->
  if v <> schema_version then Error "schema-stale"
  else
    Scanf.sscanf rest "%s %d%!" @@ fun build n ->
    if build <> build_id then Error "other-build" else Ok n

(* Read from the channel record by record: [(records, damage)], [damage]
   naming the first damage met. A segment whose header fails is not
   decoded at all. A record whose MD5 or shape fails is skipped; a cut,
   or a length no record can have, ends the read. *)
let read_segment file =
  In_channel.with_open_bin file @@ fun ic ->
  let size = in_channel_length ic in
  let records = ref [] and damage = ref None in
  let damaged reason = if !damage = None then damage := Some reason in
  (try
     match header_count (input_line ic) with
     | Error reason -> damaged reason
     | Ok n ->
         for _ = 1 to n do
           let sum = really_input_string ic 16 in
           let len = input_binary_int ic in
           if len > size - pos_in ic then raise End_of_file;
           if len < 4 then failwith "record length";
           let body = really_input_string ic len in
           if Digest.string body <> sum then damaged "corrupted"
           else
             let klen = Int32.to_int (String.get_int32_be body 0) in
             match if klen < 0 || klen > len - 4 then None else decode body (4 + klen) with
             | Some v -> records := (String.sub body 4 klen, v) :: !records
             | None -> damaged "undecodable"
         done;
         if pos_in ic < size then damaged "corrupted"
   with
  | End_of_file -> damaged "truncated"
  | Scanf.Scan_failure _ | Failure _ -> damaged "corrupted");
  (!records, !damage)

(* Write [records] as one segment, atomically (temp file + rename), named
   by the MD5 of the build identity and its records' MD5s: a segment with
   the same name holds the same records for the same code, so one
   replacing the other is harmless. [Some file] once written; a failure
   warns and leaves nothing behind. *)
let write_segment t records =
  let records =
    List.sort (fun (a, _) (b, _) -> String.compare a b) records
    |> List.map (fun (key, v) ->
           let klen = Bytes.create 4 in
           Bytes.set_int32_be klen 0 (Int32.of_int (String.length key));
           let body =
             String.concat "" [ Bytes.to_string klen; key; Marshal.to_string (v : value) [] ]
           in
           (Digest.string body, body))
  in
  let name =
    Digest.to_hex (Digest.string (String.concat "" (build_id :: List.map fst records)))
  in
  let file = Filename.concat t.cache_dir (name ^ segment_suffix) in
  let tmp = Printf.sprintf "%s.%d.%d.tmp" file (Unix.getpid ()) (Domain.self () :> int) in
  try
    Out_channel.with_open_bin tmp (fun oc ->
        Printf.fprintf oc "jade-runcache %d %s %d\n" schema_version build_id
          (List.length records);
        List.iter
          (fun (sum, body) ->
            output_string oc sum;
            output_binary_int oc (String.length body);
            output_string oc body)
          records;
        close_out oc);
    Sys.rename tmp file;
    Some file
  with Sys_error reason ->
    warn "cannot write segment %s: %s" file reason;
    (try Sys.remove tmp with Sys_error _ -> ());
    None

(* Read the [listed] segments into one index. A load that read more than
   one, or met damage, compacts: it writes what it read as one segment,
   then deletes the files it read — never a segment written since the
   listing, such as a concurrent run's. *)
let load t listed =
  let index = Hashtbl.create 512 in
  let read =
    List.filter_map
      (fun file ->
        match read_segment file with
        | exception Sys_error _ -> None (* taken by a concurrent compaction *)
        | records, damage ->
            Option.iter
              (fun r -> warn "dropping %s records of %s (recomputing)" r file) damage;
            List.iter (fun (k, v) -> Hashtbl.replace index k v) records;
            Some (file, damage = None))
      listed
  in
  if List.length read > 1 || List.exists (fun (_, intact) -> not intact) read then
    Option.iter
      (fun kept ->
        List.iter
          (fun (file, _) -> if file <> kept then try Sys.remove file with Sys_error _ -> ())
          read)
      (if Hashtbl.length index = 0 then Some "" (* nothing to keep *)
       else write_segment t (List.of_seq (Hashtbl.to_seq index)));
  index

let create ~dir =
  mkdir_p dir;
  let listed = files dir [ segment_suffix ] in
  let rec t = { cache_dir = dir; index = lazy (load t listed) } in
  t

let find t ~key = Hashtbl.find_opt (Lazy.force t.index) key

let store t records =
  if records <> [] then ignore (write_segment t records);
  if Lazy.is_val t.index then
    List.iter (fun (k, v) -> Hashtbl.replace (Lazy.force t.index) k v) records

type usage = { segments : int; entries : int; bytes : int; legacy : int }

let usage t =
  let legacy = List.length (files t.cache_dir [ ".jrc" ]) in
  List.fold_left
    (fun u file ->
      match ((Unix.stat file).Unix.st_size, fst (read_segment file)) with
      | size, records ->
          { u with segments = u.segments + 1; entries = u.entries + List.length records;
            bytes = u.bytes + size }
      | exception (Unix.Unix_error _ | Sys_error _) -> u)
    { segments = 0; entries = 0; bytes = 0; legacy }
    (files t.cache_dir [ segment_suffix ])

let dir_stats t = let u = usage t in (u.entries, u.bytes)

let clear t =
  let removed =
    List.filter
      (fun file -> match Sys.remove file with () -> true | exception Sys_error _ -> false)
      (files t.cache_dir [ segment_suffix; ".tmp"; ".jrc" ])
  in
  (try Sys.remove (last_run_file t) with Sys_error _ -> ());
  t.index <- Lazy.from_val (Hashtbl.create 64);
  List.length removed

let write_last_run t ~lookups ~hits =
  let tmp = last_run_file t ^ Printf.sprintf ".%d.tmp" (Unix.getpid ()) in
  try
    Out_channel.with_open_text tmp (fun oc -> Printf.fprintf oc "%d %d\n" lookups hits);
    Sys.rename tmp (last_run_file t)
  with Sys_error reason -> warn "cannot record run statistics: %s" reason

let read_last_run t =
  try
    let line = In_channel.with_open_bin (last_run_file t) input_line in
    Scanf.sscanf line " %d %d %!" (fun l h -> Some (l, h))
  with Sys_error _ | End_of_file | Scanf.Scan_failure _ | Failure _ -> None
