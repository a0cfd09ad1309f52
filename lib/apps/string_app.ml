module R = Jade.Runtime

type params = { nx : int; nz : int; nrays : int; iters : int }

let paper_params = { nx = 185; nz = 450; nrays = 4096; iters = 6 }

let bench_params = { nx = 92; nz = 220; nrays = 16384; iters = 3 }

let test_params = { nx = 16; nz = 24; nrays = 64; iters = 3 }

type result = {
  model : float array;
  misfit : float;
  initial_misfit : float;
}

let cells p = p.nx * p.nz

(* Declared cost per traversed cell: the production ray tracer pays for
   traversal bookkeeping, slowness interpolation and backprojection per
   cell; tasks declare that cost even though the simplified host kernel is
   cheaper. *)
let cell_flops = 60.0

let relax = 0.7

type trace_acc =
  | Time_only
  | Cell_fn of (int -> float -> unit)

(* Grid traversal (Amanatides & Woo). Cells are unit squares; cell (ix,iz)
   is indexed ix + iz*nx. *)
let trace_ray_acc ~nx ~nz ~slowness ~x0 ~z0 ~x1 ~z1 acc =
  let dx = x1 -. x0 and dz = z1 -. z0 in
  let len = sqrt ((dx *. dx) +. (dz *. dz)) in
  if len <= 0.0 then 0.0
  else begin
    let clamp v lo hi = if v < lo then lo else if v > hi then hi else v in
    let ix = ref (clamp (int_of_float (Float.floor x0)) 0 (nx - 1)) in
    let iz = ref (clamp (int_of_float (Float.floor z0)) 0 (nz - 1)) in
    let step_x = if dx > 0.0 then 1 else -1 in
    let step_z = if dz > 0.0 then 1 else -1 in
    let t_delta_x = if dx = 0.0 then infinity else Float.abs (1.0 /. dx) in
    let t_delta_z = if dz = 0.0 then infinity else Float.abs (1.0 /. dz) in
    let t_max_x =
      if dx = 0.0 then infinity
      else
        let next = if dx > 0.0 then float_of_int (!ix + 1) else float_of_int !ix in
        (next -. x0) /. dx
    in
    let t_max_z =
      if dz = 0.0 then infinity
      else
        let next = if dz > 0.0 then float_of_int (!iz + 1) else float_of_int !iz in
        (next -. z0) /. dz
    in
    let t_max_x = ref t_max_x and t_max_z = ref t_max_z in
    let t = ref 0.0 in
    let time = ref 0.0 in
    let finished = ref false in
    while not !finished do
      (* [Float.min] expanded by hand: without flambda each call boxes
         its result, and this per-cell stepping loop is String's hottest
         path. (Neither operand is ever NaN here.) *)
      let m = if !t_max_x < !t_max_z then !t_max_x else !t_max_z in
      let t_next = if m < 1.0 then m else 1.0 in
      let seg = (t_next -. !t) *. len in
      if seg > 0.0 then begin
        let c = !ix + (!iz * nx) in
        (match acc with Time_only -> () | Cell_fn f -> f c seg);
        time := !time +. (seg *. slowness.(c))
      end;
      t := t_next;
      if t_next >= 1.0 then finished := true
      else if !t_max_x <= !t_max_z then begin
        t_max_x := !t_max_x +. t_delta_x;
        ix := !ix + step_x;
        if !ix < 0 || !ix >= nx then finished := true
      end
      else begin
        t_max_z := !t_max_z +. t_delta_z;
        iz := !iz + step_z;
        if !iz < 0 || !iz >= nz then finished := true
      end
    done;
    !time
  end

let trace_ray ~nx ~nz ~slowness ~x0 ~z0 ~x1 ~z1 ~cell =
  trace_ray_acc ~nx ~nz ~slowness ~x0 ~z0 ~x1 ~z1 (Cell_fn cell)

(* Synthetic "true" geology: depth-layered slowness with a Gaussian
   anomaly (substitutes for the proprietary West Texas data set). *)
let true_model p =
  let s = Array.make (cells p) 0.0 in
  let cx = float_of_int p.nx /. 2.0 and cz = float_of_int p.nz /. 2.0 in
  let sigma2 = (float_of_int (min p.nx p.nz) /. 5.0) ** 2.0 in
  for iz = 0 to p.nz - 1 do
    for ix = 0 to p.nx - 1 do
      let z = float_of_int iz in
      let layer =
        1.0 +. (0.15 *. sin (z /. float_of_int p.nz *. 9.42478))
      in
      let dx = float_of_int ix -. cx and dz = z -. cz in
      let anomaly =
        0.3 *. exp (-.((dx *. dx) +. (dz *. dz)) /. (2.0 *. sigma2))
      in
      s.(ix + (iz * p.nx)) <- 4.0e-4 *. (layer +. anomaly)
    done
  done;
  s

let initial_model p = Array.make (cells p) 4.0e-4

(* Source/receiver geometry: sources spread along the left well, receivers
   along the right well; ray r pairs source (r mod ns) with receiver
   (r / ns). *)
let ray_endpoints p r =
  let ns = max 1 (int_of_float (sqrt (float_of_int p.nrays))) in
  let nr = (p.nrays + ns - 1) / ns in
  let si = r mod ns and ri = r / ns mod nr in
  let z0 = (float_of_int si +. 0.5) /. float_of_int ns *. float_of_int p.nz in
  let z1 = (float_of_int ri +. 0.5) /. float_of_int nr *. float_of_int p.nz in
  (0.01, z0, float_of_int p.nx -. 0.01, z1)

let observed_times_uncached p =
  let truth = true_model p in
  Array.init p.nrays (fun r ->
      let x0, z0, x1, z1 = ray_endpoints p r in
      trace_ray_acc ~nx:p.nx ~nz:p.nz ~slowness:truth ~x0 ~z0 ~x1 ~z1 Time_only)

(* The observed travel times are a pure function of the params (the truth
   model is synthetic), and every caller only reads the array — so all
   runs of one problem size share a single copy instead of re-tracing
   every ray through the truth model per run. The mutex both guards the
   table and publishes the immutable array to pool domains. *)
let observed_cache : (params, float array) Hashtbl.t = Hashtbl.create 4

let observed_lock = Mutex.create ()

let observed_times p =
  Mutex.protect observed_lock (fun () ->
      match Hashtbl.find_opt observed_cache p with
      | Some obs -> obs
      | None ->
          let obs = observed_times_uncached p in
          Hashtbl.add observed_cache p obs;
          obs)

(* Straight-ray geometry cache. The (cell, segment) sequence of a
   straight ray is pure geometry — a function of (nx, nz, nrays) alone,
   never of the slowness model — so the grid-stepping DDA runs exactly
   once per ray per problem size and every iteration of every simulated
   run replays the recorded pairs with a linear walk. The walk performs
   the identical float additions in the identical order as re-tracing,
   so travel times and backprojections are bit-equal, and each ray's
   length (its segments summed in walk order) is stored beside it. Ray
   [r]'s pairs live at [rp_off.(r), rp_off.(r + 1)).

   The store is allocated once at its exact size: a counting pass runs
   the same DDA without stores to get every ray's pair count, then one
   allocation holds them all and a second pass fills it (no growth, no
   trimming copy). At bench size, the largest store, that is 2,708,662
   pairs: 43.3 MB, shared by all runs. *)
type ray_paths = {
  rp_off : int array;
  rp_len : float array;
  rp_cells : int array;
  rp_segs : float array;
}

(* [trace_ray_acc]'s traversal, returning the number of (cell, segment)
   pairs ray [ray] records. With [~store:true] it also writes them into
   [g] from [g.rp_off.(ray)] and their sum, in walk order, into
   [g.rp_len.(ray)]; with [~store:false] it only counts, and reads
   nothing of [g] but [rp_off.(ray)]. Both passes run this one function
   on the same endpoints, so the filled pairs are exactly the counted
   ones. *)
let record_ray g ~store ~nx ~nz ~ray ~x0 ~z0 ~x1 ~z1 =
  let at = g.rp_off.(ray) in
  let k = ref at and total = ref 0.0 in
  let dx = x1 -. x0 and dz = z1 -. z0 in
  let len = sqrt ((dx *. dx) +. (dz *. dz)) in
  if len > 0.0 then begin
    let clamp v lo hi = if v < lo then lo else if v > hi then hi else v in
    let ix = ref (clamp (int_of_float (Float.floor x0)) 0 (nx - 1)) in
    let iz = ref (clamp (int_of_float (Float.floor z0)) 0 (nz - 1)) in
    let step_x = if dx > 0.0 then 1 else -1 in
    let step_z = if dz > 0.0 then 1 else -1 in
    let t_delta_x = if dx = 0.0 then infinity else Float.abs (1.0 /. dx) in
    let t_delta_z = if dz = 0.0 then infinity else Float.abs (1.0 /. dz) in
    let t_max_x =
      if dx = 0.0 then infinity
      else
        let next = if dx > 0.0 then float_of_int (!ix + 1) else float_of_int !ix in
        (next -. x0) /. dx
    in
    let t_max_z =
      if dz = 0.0 then infinity
      else
        let next = if dz > 0.0 then float_of_int (!iz + 1) else float_of_int !iz in
        (next -. z0) /. dz
    in
    let t_max_x = ref t_max_x and t_max_z = ref t_max_z in
    let t = ref 0.0 in
    let finished = ref false in
    while not !finished do
      let m = if !t_max_x < !t_max_z then !t_max_x else !t_max_z in
      let t_next = if m < 1.0 then m else 1.0 in
      let seg = (t_next -. !t) *. len in
      if seg > 0.0 then begin
        if store then begin
          g.rp_cells.(!k) <- !ix + (!iz * nx);
          g.rp_segs.(!k) <- seg;
          total := !total +. seg
        end;
        incr k
      end;
      t := t_next;
      if t_next >= 1.0 then finished := true
      else if !t_max_x <= !t_max_z then begin
        t_max_x := !t_max_x +. t_delta_x;
        ix := !ix + step_x;
        if !ix < 0 || !ix >= nx then finished := true
      end
      else begin
        t_max_z := !t_max_z +. t_delta_z;
        iz := !iz + step_z;
        if !iz < 0 || !iz >= nz then finished := true
      end
    done
  end;
  if store then g.rp_len.(ray) <- !total;
  !k - at

let ray_paths_uncached p =
  let rp_off = Array.make (p.nrays + 1) 0 in
  let pass g ~store =
    for r = 0 to p.nrays - 1 do
      let x0, z0, x1, z1 = ray_endpoints p r in
      let n = record_ray g ~store ~nx:p.nx ~nz:p.nz ~ray:r ~x0 ~z0 ~x1 ~z1 in
      if not store then rp_off.(r + 1) <- rp_off.(r) + n
    done
  in
  pass { rp_off; rp_len = [||]; rp_cells = [||]; rp_segs = [||] } ~store:false;
  let slots = rp_off.(p.nrays) in
  let g =
    {
      rp_off;
      rp_len = Array.make p.nrays 0.0;
      rp_cells = Array.make slots 0;
      rp_segs = Array.create_float slots;
    }
  in
  pass g ~store:true;
  g

let ray_paths_cache : (params, ray_paths) Hashtbl.t = Hashtbl.create 4

let ray_paths_lock = Mutex.create ()

(* Same publication discipline as [observed_times]: the mutex guards the
   table and publishes the immutable arrays to pool domains. *)
let ray_paths p =
  Mutex.protect ray_paths_lock (fun () ->
      match Hashtbl.find_opt ray_paths_cache p with
      | Some g -> g
      | None ->
          let g = ray_paths_uncached p in
          Hashtbl.add ray_paths_cache p g;
          g)

(* Trace rays [lo, hi) against [model]; accumulate the backprojected
   residuals into [acc] (layout: num[cells] ++ den[cells] ++ [sq_misfit]).
   Backprojection is linear along the path, as in the paper. *)
let trace_block p observed model acc ~lo ~hi =
  let ncells = cells p in
  let g = ray_paths p in
  for r = lo to hi - 1 do
    let i0 = g.rp_off.(r) and i1 = g.rp_off.(r + 1) in
    (* Walk indices are in-bounds: [i0, i1) is within the recorded
       arrays by construction, and every recorded [c] came from an
       in-grid cell, so c < ncells and ncells + c < 2 * ncells < length
       acc. Travel time accumulates in recorded order — the same
       additions the traversal performed. *)
    let time = ref 0.0 in
    for i = i0 to i1 - 1 do
      time :=
        !time
        +. Array.unsafe_get g.rp_segs i
           *. Array.unsafe_get model (Array.unsafe_get g.rp_cells i)
    done;
    let len = g.rp_len.(r) in
    let delta = observed.(r) -. !time in
    if len > 0.0 then begin
      let per_len = delta /. len in
      for i = i0 to i1 - 1 do
        let c = Array.unsafe_get g.rp_cells i
        and seg = Array.unsafe_get g.rp_segs i in
        Array.unsafe_set acc c (Array.unsafe_get acc c +. (per_len *. seg));
        let nc = ncells + c in
        Array.unsafe_set acc nc (Array.unsafe_get acc nc +. seg)
      done
    end;
    acc.(2 * ncells) <- acc.(2 * ncells) +. (delta *. delta)
  done

let apply_update p model acc =
  for c = 0 to cells p - 1 do
    let den = acc.(cells p + c) in
    if den > 0.0 then begin
      let s = model.(c) +. (relax *. acc.(c) /. den) in
      model.(c) <- Float.max 1.0e-5 s
    end
  done

let misfit_of p acc =
  sqrt (acc.(2 * cells p) /. float_of_int p.nrays)

let ray_work p nrays_in_task =
  float_of_int nrays_in_task *. float_of_int (p.nx + p.nz) *. cell_flops

let serial p =
  let observed = observed_times p in
  let model = initial_model p in
  let first = ref nan and last = ref nan in
  let flops = ref 0.0 in
  for _ = 1 to p.iters do
    let acc = Array.make ((2 * cells p) + 1) 0.0 in
    trace_block p observed model acc ~lo:0 ~hi:p.nrays;
    let m = misfit_of p acc in
    if Float.is_nan !first then first := m;
    last := m;
    apply_update p model acc;
    flops := !flops +. ray_work p p.nrays +. (float_of_int (cells p) *. 3.0)
  done;
  ( { model; misfit = !last; initial_misfit = !first },
    !flops *. 1.05 )

(* [serial]'s reported flops are analytic ([ray_work] plus the model
   update cost per iteration, independent of the traced travel times), so
   flops-only callers can skip the ray tracing. Same accumulation
   expression and order as [serial], hence bit-identical. *)
let serial_flops p =
  let flops = ref 0.0 in
  for _ = 1 to p.iters do
    flops := !flops +. ray_work p p.nrays +. (float_of_int (cells p) *. 3.0)
  done;
  !flops *. 1.05

let total_work p ~nprocs =
  ignore nprocs;
  float_of_int p.iters
  *. (ray_work p p.nrays +. (float_of_int (cells p) *. 3.0))

let trace_name = Jade.Names.memo (Printf.sprintf "trace.%d")

let make p ~kind:_ ~placed:_ ~nprocs =
  let result = ref None in
  let program rt =
    assert (R.nprocs rt = nprocs);
    (* Deferred payloads: runs that skip kernels never read them. *)
    let model_obj =
      R.create_object_deferred rt ~name:"velocity-model"
        ~size:(8 * cells p)
        (fun () -> initial_model p)
    in
    let diffs =
      App_common.replicate rt ~name:"difference" ~copies:nprocs
        ~len:((2 * cells p) + 1)
    in
    let stats =
      R.create_object_deferred rt ~name:"stats" ~size:16 (fun () ->
          Array.make 2 nan)
    in
    for _iter = 1 to p.iters do
      for t = 0 to nprocs - 1 do
        let lo = t * p.nrays / nprocs and hi = (t + 1) * p.nrays / nprocs in
        let copy = diffs.App_common.copies.(t) in
        R.withonly rt
          ~name:(trace_name t)
          ~work:(ray_work p (hi - lo))
          ~accesses:(fun s ->
            Jade.Spec.rw s copy;
            Jade.Spec.rd s model_obj)
          (fun env ->
            let acc = R.wr env copy and model = R.rd env model_obj in
            Array.fill acc 0 (Array.length acc) 0.0;
            (* Memoized: a run that skips kernels never traces the truth. *)
            trace_block p (observed_times p) model acc ~lo ~hi)
      done;
      App_common.tree_reduce rt diffs ~name:"difference";
      R.withonly rt ~name:"update-model" ~placement:0
        ~work:(float_of_int (cells p) *. 3.0)
        ~accesses:(fun s ->
          Jade.Spec.rw s model_obj;
          Jade.Spec.rd s (App_common.comprehensive diffs);
          Jade.Spec.rw s stats)
        (fun env ->
          let model = R.wr env model_obj
          and acc = R.rd env (App_common.comprehensive diffs)
          and st = R.wr env stats in
          let m = misfit_of p acc in
          if Float.is_nan st.(0) then st.(0) <- m;
          st.(1) <- m;
          apply_update p model acc)
    done;
    R.drain rt;
    result :=
      Some
        {
          model = Jade.Shared.data model_obj;
          misfit = (Jade.Shared.data stats).(1);
          initial_misfit = (Jade.Shared.data stats).(0);
        }
  in
  (program, fun () -> Option.get !result)

let ray_walk g r f =
  for i = g.rp_off.(r) to g.rp_off.(r + 1) - 1 do
    f g.rp_cells.(i) g.rp_segs.(i)
  done;
  g.rp_len.(r)
