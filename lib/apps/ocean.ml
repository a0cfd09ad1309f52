module R = Jade.Runtime

type params = { n : int; iters : int; blocks : int option }

let paper_params = { n = 192; iters = 120; blocks = None }

let bench_params = { n = 96; iters = 60; blocks = None }

let test_params = { n = 24; iters = 10; blocks = None }

type result = { grid : float array array; residual : float }

(* Declared cost per cell update: the full Ocean application relaxes
   several coupled fields per sweep; the five-point kernel here is its
   skeleton, and tasks declare the full per-cell cost. *)
let stencil_flops = 120.0

type layout = { n : int; nb : int; widths : int array }

(* [nb] interior blocks separated by 2-column boundary blocks; the
   interior widths split the remaining columns as evenly as possible. *)
let make_layout p ~nprocs =
  let requested = match p.blocks with Some b -> b | None -> max 1 (nprocs - 1) in
  (* Every interior block needs >= 2 columns to be meaningful. *)
  let nb = max 1 (min requested ((p.n + 2) / 4)) in
  let interior_cols = p.n - (2 * (nb - 1)) in
  let base = interior_cols / nb and rem = interior_cols mod nb in
  let widths = Array.init nb (fun k -> base + if k < rem then 1 else 0) in
  { n = p.n; nb; widths }

type blocks = { interiors : float array array; boundaries : float array array }

let global_col_index lay k j =
  (* Global column index of local column j of interior block k. *)
  let rec acc k' sum = if k' >= k then sum else acc (k' + 1) (sum + lay.widths.(k') + 2) in
  acc 0 0 + j

let make_blocks lay =
  let interiors =
    Array.init lay.nb (fun k -> Array.make (lay.widths.(k) * lay.n) 0.0)
  in
  let boundaries = Array.init (max 0 (lay.nb - 1)) (fun _ -> Array.make (2 * lay.n) 0.0) in
  let total = lay.n in
  let init_at arr off g =
    let lin iz = 1.0 -. (float_of_int iz /. float_of_int (lay.n - 1)) in
    if g = 0 || g = total - 1 then
      for iz = 0 to lay.n - 1 do
        arr.(off + iz) <- lin iz
      done
    else begin
      arr.(off) <- 1.0;
      arr.(off + lay.n - 1) <- 0.0
    end
  in
  Array.iteri
    (fun k arr ->
      for j = 0 to lay.widths.(k) - 1 do
        init_at arr (j * lay.n) (global_col_index lay k j)
      done)
    interiors;
  Array.iteri
    (fun b arr ->
      let g0 = global_col_index lay b lay.widths.(b) in
      init_at arr 0 g0;
      init_at arr lay.n (g0 + 1))
    boundaries;
  { interiors; boundaries }

(* Unsafe accesses: every caller passes offsets of full columns — the
   touched indices lie in [off, off + n - 1] and each array's length is a
   multiple of [n] at least [off + n] by construction in [make_blocks].
   This stencil is the whole Ocean compute, so the bounds checks were a
   measurable slice of a run that executes its kernels. *)
let update_column n dst doff (left, loff) (right, roff) =
  for iz = 1 to n - 2 do
    Array.unsafe_set dst (doff + iz)
      (0.25
      *. (Array.unsafe_get left (loff + iz)
         +. Array.unsafe_get right (roff + iz)
         +. Array.unsafe_get dst (doff + iz - 1)
         +. Array.unsafe_get dst (doff + iz + 1)))
  done

(* The per-task update (§4): all columns of interior block k, the right
   column of the left boundary block and the left column of the right
   boundary block. Left-to-right Gauss-Seidel order. *)
let update_block lay k ~interior ~left ~right =
  let n = lay.n in
  let w = lay.widths.(k) in
  (match left with
  | Some lb -> update_column n lb n (lb, 0) (interior, 0)
  | None -> ());
  for j = 0 to w - 1 do
    let first_global = k = 0 && j = 0 in
    let last_global = k = lay.nb - 1 && j = w - 1 in
    if not (first_global || last_global) then begin
      let left_src =
        if j = 0 then
          match left with Some lb -> (lb, n) | None -> assert false
        else (interior, (j - 1) * n)
      in
      let right_src =
        if j = w - 1 then
          match right with Some rb -> (rb, 0) | None -> assert false
        else (interior, (j + 1) * n)
      in
      update_column n interior (j * n) left_src right_src
    end
  done;
  match right with
  | Some rb -> update_column n rb 0 (interior, (w - 1) * n) (rb, n)
  | None -> ()

let task_work lay k =
  let cols =
    lay.widths.(k)
    + (if k > 0 then 1 else 0)
    + (if k < lay.nb - 1 then 1 else 0)
    - (if k = 0 then 1 else 0)
    - if k = lay.nb - 1 then 1 else 0
  in
  float_of_int (max 0 cols) *. float_of_int (lay.n - 2) *. stencil_flops

(* Reassemble the full grid, rows first. *)
let to_grid lay blocks =
  let g = Array.make_matrix lay.n lay.n 0.0 in
  let col = ref 0 in
  let copy arr off =
    for iz = 0 to lay.n - 1 do
      g.(iz).(!col) <- arr.(off + iz)
    done;
    incr col
  in
  for k = 0 to lay.nb - 1 do
    for j = 0 to lay.widths.(k) - 1 do
      copy blocks.interiors.(k) (j * lay.n)
    done;
    if k < lay.nb - 1 then begin
      copy blocks.boundaries.(k) 0;
      copy blocks.boundaries.(k) lay.n
    end
  done;
  g

let residual_of grid =
  let n = Array.length grid in
  let acc = ref 0.0 in
  for iz = 1 to n - 2 do
    for ix = 1 to n - 2 do
      let r =
        grid.(iz).(ix)
        -. (0.25
           *. (grid.(iz - 1).(ix) +. grid.(iz + 1).(ix) +. grid.(iz).(ix - 1)
              +. grid.(iz).(ix + 1)))
      in
      acc := !acc +. (r *. r)
    done
  done;
  sqrt !acc

let serial p ~nprocs =
  let lay = make_layout p ~nprocs in
  let blocks = make_blocks lay in
  let flops = ref 0.0 in
  for _ = 1 to p.iters do
    for k = 0 to lay.nb - 1 do
      let left = if k > 0 then Some blocks.boundaries.(k - 1) else None in
      let right = if k < lay.nb - 1 then Some blocks.boundaries.(k) else None in
      update_block lay k ~interior:blocks.interiors.(k) ~left ~right;
      flops := !flops +. task_work lay k
    done
  done;
  let grid = to_grid lay blocks in
  ({ grid; residual = residual_of grid }, !flops *. 1.03)

(* [serial]'s reported flops are analytic ([task_work] per block per
   iteration, independent of the grid values), so flops-only callers can
   skip the relaxation sweeps. Same accumulation expression and order as
   [serial], hence bit-identical. *)
let serial_flops p ~nprocs =
  let lay = make_layout p ~nprocs in
  let flops = ref 0.0 in
  for _ = 1 to p.iters do
    for k = 0 to lay.nb - 1 do
      flops := !flops +. task_work lay k
    done
  done;
  !flops *. 1.03

let total_work p ~nprocs =
  let lay = make_layout p ~nprocs in
  let per_iter = ref 0.0 in
  for k = 0 to lay.nb - 1 do
    per_iter := !per_iter +. task_work lay k
  done;
  float_of_int p.iters *. !per_iter

let interior_name = Jade.Names.memo (Printf.sprintf "interior.%d")

let boundary_name = Jade.Names.memo (Printf.sprintf "boundary.%d")

let ocean_name = Jade.Names.memo (Printf.sprintf "ocean.%d")

let make p ~kind ~placed ~nprocs =
  let result = ref None in
  let program rt =
    assert (R.nprocs rt = nprocs);
    let lay = make_layout p ~nprocs in
    (* Deferred payloads: runs that skip kernels never read the block
       arrays, so the whole grid build is skipped there. In runs that
       execute kernels the first object creation forces the lazy and all
       objects share the one [blocks] record, exactly as the eager code
       did. *)
    let data = lazy (make_blocks lay) in
    let proc_of k =
      if placed then App_common.rr_skip_main ~nprocs k
      else App_common.rr ~nprocs k
    in
    let interior_objs =
      Array.init lay.nb (fun k ->
          R.create_object_deferred rt
            ~home:(App_common.home ~kind (proc_of k))
            ~name:(interior_name k)
            ~size:(8 * lay.widths.(k) * lay.n)
            (fun () -> (Lazy.force data).interiors.(k)))
    in
    let boundary_objs =
      Array.init
        (max 0 (lay.nb - 1))
        (fun b ->
          R.create_object_deferred rt
            ~home:(App_common.home ~kind (proc_of b))
            ~name:(boundary_name b)
            ~size:(8 * 2 * lay.n)
            (fun () -> (Lazy.force data).boundaries.(b)))
    in
    for _iter = 1 to p.iters do
      for k = 0 to lay.nb - 1 do
        let placement = if placed then Some (App_common.rr_skip_main ~nprocs k) else None in
        R.withonly rt ?placement
          ~name:(ocean_name k)
          ~work:(task_work lay k)
          ~accesses:(fun s ->
            Jade.Spec.rw s interior_objs.(k);
            if k > 0 then Jade.Spec.rw s boundary_objs.(k - 1);
            if k < lay.nb - 1 then Jade.Spec.rw s boundary_objs.(k))
          (fun env ->
            let interior = R.wr env interior_objs.(k) in
            let left =
              if k > 0 then Some (R.wr env boundary_objs.(k - 1)) else None
            in
            let right =
              if k < lay.nb - 1 then Some (R.wr env boundary_objs.(k))
              else None
            in
            update_block lay k ~interior ~left ~right)
      done
    done;
    R.drain rt;
    (* Assembling the full grid and its residual is O(n^2) host work that
       only the result getter needs — the experiment runner drops the
       getter and reads metrics alone, so the reassembly is deferred
       (and memoized) rather than paid by every simulated cell. *)
    result :=
      Some
        (lazy
          (let grid = to_grid lay (Lazy.force data) in
           { grid; residual = residual_of grid }))
  in
  (program, fun () -> Lazy.force (Option.get !result))
