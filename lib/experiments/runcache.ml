let schema_version = 7

type value = Summary of Jade.Metrics.summary | Flops of float

type t = { cache_dir : string }

let dir t = t.cache_dir

let header = Printf.sprintf "jade-runcache %d\n" schema_version

let entry_suffix = ".jrc"

let last_run_file t = Filename.concat t.cache_dir "last_run.txt"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Unix.mkdir d 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ~dir =
  mkdir_p dir;
  { cache_dir = dir }

(* Length-prefix each component (some are Marshal blobs, so no byte is
   safe as a separator): adjacent fields can never alias across component
   boundaries. *)
let digest_key parts =
  let buf = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string buf (string_of_int (String.length p));
      Buffer.add_char buf ':';
      Buffer.add_string buf p)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let path t digest = Filename.concat t.cache_dir (digest ^ entry_suffix)

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let discard file reason =
  Printf.eprintf "runcache: warning: dropping %s entry %s (recomputing)\n%!"
    reason (Filename.basename file);
  try Sys.remove file with Sys_error _ -> ()

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
    && (Obj.tag p = Obj.double_tag
       || List.for_all
            (fun i -> conforms (Obj.field p i) (Obj.field o i))
            (List.init (Obj.size p) Fun.id))

(* [Some v] when [payload] is exactly one marshalled [value]. [Marshal]
   raises on bytes it cannot parse, and a well-formed value of another
   type would crash the program once matched on, so the decoded shape is
   checked before the cast. *)
let decode payload =
  try
    let o : Obj.t = Marshal.from_string payload 0 in
    let size = Marshal.total_size (Bytes.unsafe_of_string payload) 0 in
    if size = String.length payload && List.exists (fun p -> conforms p o) prototypes
    then Some (Obj.obj o : value)
    else None
  with Failure _ | Invalid_argument _ -> None

(* Entry layout: header line, 16 raw MD5 bytes of the payload, payload
   (marshalled [value]). The digest is verified before decoding, so
   accidental damage never reaches [Marshal]; {!decode} turns away what
   an intact digest cannot vouch for — bytes written by something else. *)
let find t ~digest =
  let file = path t digest in
  if not (Sys.file_exists file) then None
  else
    match read_file file with
    | exception Sys_error _ -> None
    | raw ->
        let hlen = String.length header in
        if String.length raw < hlen + 16 then begin
          discard file "truncated";
          None
        end
        else if String.sub raw 0 hlen <> header then begin
          discard file "schema-stale";
          None
        end
        else
          let sum = String.sub raw hlen 16 in
          let payload =
            String.sub raw (hlen + 16) (String.length raw - hlen - 16)
          in
          if Digest.string payload <> sum then begin
            discard file "corrupted";
            None
          end
          else
            match decode payload with
            | Some v -> Some v
            | None ->
                discard file "undecodable";
                None

let store t ~digest value =
  let payload = Marshal.to_string (value : value) [] in
  let tmp =
    Filename.concat t.cache_dir
      (Printf.sprintf ".%s.%d.tmp" digest (Unix.getpid ()))
  in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc header;
      output_string oc (Digest.string payload);
      output_string oc payload);
  Sys.rename tmp (path t digest)

let entries t =
  match Sys.readdir t.cache_dir with
  | exception Sys_error _ -> []
  | files ->
      Array.to_list files
      |> List.filter (fun f -> Filename.check_suffix f entry_suffix)
      |> List.sort String.compare
      |> List.map (Filename.concat t.cache_dir)

let dir_stats t =
  List.fold_left
    (fun (n, bytes) file ->
      match (Unix.stat file).Unix.st_size with
      | size -> (n + 1, bytes + size)
      | exception Unix.Unix_error _ -> (n, bytes))
    (0, 0) (entries t)

let clear t =
  let removed =
    List.fold_left
      (fun n file ->
        match Sys.remove file with
        | () -> n + 1
        | exception Sys_error _ -> n)
      0 (entries t)
  in
  (try Sys.remove (last_run_file t) with Sys_error _ -> ());
  removed

let write_last_run t ~lookups ~hits =
  let tmp = last_run_file t ^ Printf.sprintf ".%d.tmp" (Unix.getpid ()) in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Printf.fprintf oc "%d %d\n" lookups hits);
  Sys.rename tmp (last_run_file t)

let read_last_run t =
  match read_file (last_run_file t) with
  | exception Sys_error _ -> None
  | s -> (
      match String.split_on_char ' ' (String.trim s) with
      | [ l; h ] -> (
          match (int_of_string_opt l, int_of_string_opt h) with
          | Some l, Some h -> Some (l, h)
          | _ -> None)
      | _ -> None)
