module R = Jade.Runtime
open Jade_sparse

type params = { gridk : int; panel_width : int }

let paper_params = { gridk = 45; panel_width = 8 }

let bench_params = { gridk = 32; panel_width = 8 }

let test_params = { gridk = 7; panel_width = 3 }

type result = { l : float array array; tasks : int }

let matrix p = Spd_gen.grid_laplacian9 p.gridk

type plan = {
  a : Csc.t;
  n : int;
  panels : Panel.t;
  deps : int list array;  (** per destination panel: source panels *)
  row_pos : int array array;
      (** per panel: map from global row to position in its pattern
          (length n, -1 where the row is not in the pattern) *)
}

let plan_of_matrix a ~panel_width =
  if not (Csc.is_symmetric a) then
    invalid_arg "Cholesky: matrix must be symmetric";
  let sym = Symbolic.factor a in
  let panels = Panel.decompose sym ~width:panel_width in
  let deps = Panel.updates panels sym in
  let n = a.Csc.n in
  let row_pos =
    Array.map
      (fun rows ->
        let pos = Array.make n (-1) in
        Array.iteri (fun idx r -> pos.(r) <- idx) rows;
        pos)
      panels.Panel.rows
  in
  { a; n; panels; deps; row_pos }

(* The plan (symbolic factorization, panel decomposition, dependency
   lists, row-position maps) is a pure function of the params and is
   read-only once built, so every run of the same problem size shares one
   copy instead of re-running the symbolic phase — at bench scale that
   phase allocates ~1.6M words per run and the harness makes ~77 runs.
   The mutex makes the memo safe for pool workers on other domains (and
   publishes the immutable plan to them). *)
let plan_cache : (params, plan) Hashtbl.t = Hashtbl.create 4

let plan_lock = Mutex.create ()

let make_plan p =
  Mutex.protect plan_lock (fun () ->
      match Hashtbl.find_opt plan_cache p with
      | Some plan -> plan
      | None ->
          let plan = plan_of_matrix (matrix p) ~panel_width:p.panel_width in
          Hashtbl.add plan_cache p plan;
          plan)

(* Panel storage is pattern-restricted, as in real panel/supernodal codes:
   panel k holds a dense (|rows_k| x width) block whose row set is the
   union of the L patterns of its columns. Column c's values live at
   offset (c - first_col k) * |rows_k|, indexed by position in rows_k;
   entries for pattern rows above the column's own diagonal are
   structurally zero and stay zero. *)
let panel_height plan k = Array.length plan.panels.Panel.rows.(k)

let init_panel plan k =
  let first = plan.panels.Panel.first_col.(k)
  and last = plan.panels.Panel.last_col.(k) in
  let height = panel_height plan k in
  let pos = plan.row_pos.(k) in
  let arr = Array.make ((last - first + 1) * height) 0.0 in
  for c = first to last do
    Csc.iter_col plan.a c (fun r v ->
        if r >= c then arr.(((c - first) * height) + pos.(r)) <- v)
  done;
  arr

(* Apply factored source panel j to destination panel k:
   A(r,c) -= L(r,d) * L(c,d) for all columns d of j, destination columns c
   with L(c,d) structurally nonzero, and pattern rows r >= c. The source
   rows are scattered into the destination through k's row-position map,
   exactly the relative-index scatter of supernodal factorization. *)
let external_update plan ~j ~k ~src ~dst =
  let sf = plan.panels.Panel.first_col.(j)
  and sl = plan.panels.Panel.last_col.(j) in
  let df = plan.panels.Panel.first_col.(k)
  and dl = plan.panels.Panel.last_col.(k) in
  let src_rows = plan.panels.Panel.rows.(j) in
  let src_h = panel_height plan j in
  let dst_h = panel_height plan k in
  let src_pos = plan.row_pos.(j) in
  let dst_pos = plan.row_pos.(k) in
  for d = sf to sl do
    let doff = (d - sf) * src_h in
    for c = df to dl do
      let cpos_in_src = src_pos.(c) in
      if cpos_in_src >= 0 then begin
        let lcd = src.(doff + cpos_in_src) in
        if lcd <> 0.0 then begin
          let coff = (c - df) * dst_h in
          (* Walk source pattern rows from c downward. *)
          for sp = cpos_in_src to src_h - 1 do
            let r = src_rows.(sp) in
            let dp = dst_pos.(r) in
            if dp >= 0 then
              dst.(coff + dp) <- dst.(coff + dp) -. (src.(doff + sp) *. lcd)
          done
        end
      end
    done
  done

(* Complete the factorization of panel k: apply intra-panel updates
   left-to-right, then scale each column by its pivot. *)
let internal_update plan ~k ~arr =
  let first = plan.panels.Panel.first_col.(k)
  and last = plan.panels.Panel.last_col.(k) in
  let height = panel_height plan k in
  let pos = plan.row_pos.(k) in
  for c = first to last do
    let coff = (c - first) * height in
    let cpos = pos.(c) in
    for d = first to c - 1 do
      let doff = (d - first) * height in
      let lcd = arr.(doff + cpos) in
      if lcd <> 0.0 then
        for p = cpos to height - 1 do
          arr.(coff + p) <- arr.(coff + p) -. (arr.(doff + p) *. lcd)
        done
    done;
    let diag = arr.(coff + cpos) in
    if diag <= 0.0 then failwith "Cholesky: matrix not positive definite";
    let piv = sqrt diag in
    arr.(coff + cpos) <- piv;
    for p = cpos + 1 to height - 1 do
      arr.(coff + p) <- arr.(coff + p) /. piv
    done
  done

let panel_cols plan k =
  plan.panels.Panel.last_col.(k) - plan.panels.Panel.first_col.(k) + 1

let external_work plan ~j ~k =
  2.0
  *. float_of_int (panel_cols plan j)
  *. float_of_int (panel_cols plan k)
  *. float_of_int (panel_height plan j)

let internal_work plan ~k =
  let w = float_of_int (panel_cols plan k) in
  let h = float_of_int (panel_height plan k) in
  (w *. w *. h) +. (2.0 *. w *. h)

let extract_l plan arrs =
  let l = Array.make_matrix plan.n plan.n 0.0 in
  for k = 0 to plan.panels.Panel.npanels - 1 do
    let first = plan.panels.Panel.first_col.(k)
    and last = plan.panels.Panel.last_col.(k) in
    let height = panel_height plan k in
    let rows = plan.panels.Panel.rows.(k) in
    for c = first to last do
      let coff = (c - first) * height in
      Array.iteri
        (fun p r -> if r >= c then l.(r).(c) <- arrs.(k).(coff + p))
        rows
    done
  done;
  l

let task_count plan =
  let ext = Array.fold_left (fun acc l -> acc + List.length l) 0 plan.deps in
  ext + plan.panels.Panel.npanels

let serial_of_plan plan =
  let arrs = Array.init plan.panels.Panel.npanels (init_panel plan) in
  let flops = ref 0.0 in
  for k = 0 to plan.panels.Panel.npanels - 1 do
    List.iter
      (fun j ->
        external_update plan ~j ~k ~src:arrs.(j) ~dst:arrs.(k);
        flops := !flops +. external_work plan ~j ~k)
      plan.deps.(k);
    internal_update plan ~k ~arr:arrs.(k);
    flops := !flops +. internal_work plan ~k
  done;
  ({ l = extract_l plan arrs; tasks = task_count plan }, !flops *. 0.98)

let serial p = serial_of_plan (make_plan p)

(* [serial]'s reported flops are analytic — the same per-panel
   external/internal work accumulation as [serial_of_plan], in the same
   order, independent of the factorization's numeric values — so
   flops-only callers (the runner's serial baseline) can skip the
   factorization itself. Bit-identical to [snd (serial p)]. *)
let serial_flops p =
  let plan = make_plan p in
  let flops = ref 0.0 in
  for k = 0 to plan.panels.Panel.npanels - 1 do
    List.iter
      (fun j -> flops := !flops +. external_work plan ~j ~k)
      plan.deps.(k);
    flops := !flops +. internal_work plan ~k
  done;
  !flops *. 0.98

let total_work p ~nprocs =
  ignore nprocs;
  let plan = make_plan p in
  let flops = ref 0.0 in
  for k = 0 to plan.panels.Panel.npanels - 1 do
    List.iter (fun j -> flops := !flops +. external_work plan ~j ~k) plan.deps.(k);
    flops := !flops +. internal_work plan ~k
  done;
  !flops

let panel_name = Jade.Names.memo (Printf.sprintf "panel.%d")

let external_name =
  Jade.Names.memo (fun (j, k) -> Printf.sprintf "external.%d.%d" j k)

let internal_name = Jade.Names.memo (Printf.sprintf "internal.%d")

let make_of_plan plan ~kind ~placed ~nprocs =
  let result = ref None in
  let program rt =
    assert (R.nprocs rt = nprocs);
    let npanels = plan.panels.Panel.npanels in
    let proc_of k =
      if placed then App_common.rr_skip_main ~nprocs k
      else App_common.rr ~nprocs k
    in
    let panel_objs =
      (* Deferred: [init_panel] scatters the CSC matrix into every panel
         on every run; runs that skip kernels never read the panels. *)
      Array.init npanels (fun k ->
          R.create_object_deferred rt
            ~home:(App_common.home ~kind (proc_of k))
            ~name:(panel_name k)
            ~size:(max 8 plan.panels.Panel.row_bytes.(k))
            (fun () -> init_panel plan k))
    in
    for k = 0 to npanels - 1 do
      let placement =
        if placed then Some (App_common.rr_skip_main ~nprocs k) else None
      in
      List.iter
        (fun j ->
          R.withonly rt ?placement
            ~name:(external_name (j, k))
            ~work:(external_work plan ~j ~k)
            ~accesses:(fun s ->
              Jade.Spec.rw s panel_objs.(k);
              Jade.Spec.rd s panel_objs.(j))
            (fun env ->
              let dst = R.wr env panel_objs.(k)
              and src = R.rd env panel_objs.(j) in
              external_update plan ~j ~k ~src ~dst))
        plan.deps.(k);
      R.withonly rt ?placement
        ~name:(internal_name k)
        ~work:(internal_work plan ~k)
        ~accesses:(fun s -> Jade.Spec.rw s panel_objs.(k))
        (fun env -> internal_update plan ~k ~arr:(R.wr env panel_objs.(k)))
    done;
    R.drain rt;
    (* [extract_l] builds a dense n x n matrix — host work only the
       result getter needs (the experiment runner drops the getter), so
       it is deferred behind the lazy rather than paid per simulated
       cell. The panel data arrays are final once [drain] returns. *)
    result :=
      Some
        (lazy
          {
            l = extract_l plan (Array.map Jade.Shared.data panel_objs);
            tasks = task_count plan;
          })
  in
  (program, fun () -> Lazy.force (Option.get !result))

let make p ~kind ~placed ~nprocs =
  make_of_plan (make_plan p) ~kind ~placed ~nprocs

let factor_matrix a ~panel_width ~kind ~placed ~nprocs =
  make_of_plan (plan_of_matrix a ~panel_width) ~kind ~placed ~nprocs
