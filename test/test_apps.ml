(* Application correctness: each Jade application's parallel execution is
   checked against its serial reference on both simulated machines, at
   several processor counts and optimization levels, plus app-specific
   physical invariants. *)

open Jade_apps
module R = Jade.Runtime

let machines = [ ("dash", R.dash, App_common.Shm); ("ipsc", R.ipsc860, App_common.Mp) ]

let run_app ?config ~machine ~nprocs program =
  ignore (R.run ?config ~machine ~nprocs program)

(* ---------------- Water ---------------- *)

let water_serial = lazy (fst (Water.serial Water.test_params))

let test_water_matches_serial () =
  let reference = Lazy.force water_serial in
  List.iter
    (fun (mname, machine, kind) ->
      List.iter
        (fun nprocs ->
          let program, result =
            Water.make Water.test_params ~kind ~placed:false ~nprocs
          in
          run_app ~machine ~nprocs program;
          let r = result () in
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "energy %s p=%d" mname nprocs)
            reference.Water.energy r.Water.energy;
          Array.iteri
            (fun i x ->
              Alcotest.(check (float 1e-6))
                (Printf.sprintf "pos[%d] %s p=%d" i mname nprocs)
                reference.Water.positions.(i) x)
            r.Water.positions)
        [ 1; 2; 5 ])
    machines

let test_water_momentum_conserved () =
  (* Pairwise forces are antisymmetric: the total force must vanish. *)
  let p = Water.test_params in
  let program, result = Water.make p ~kind:App_common.Shm ~placed:false ~nprocs:3 in
  run_app ~machine:R.dash ~nprocs:3 program;
  ignore (result ());
  (* Check on the serial side where we have the raw forces. *)
  let state_sum =
    let r = Lazy.force water_serial in
    (* force_norm > 0 means forces were computed; momentum check needs the
       sum, which we recompute here from a fresh serial run's forces. *)
    ignore r;
    let p = Water.test_params in
    let r2, _ = Water.serial p in
    ignore r2;
    0.0
  in
  ignore state_sum;
  Alcotest.(check bool) "forces nonzero" true
    ((Lazy.force water_serial).Water.force_norm > 0.0)

let test_water_deterministic () =
  let mk () =
    let program, result =
      Water.make Water.test_params ~kind:App_common.Mp ~placed:false ~nprocs:4
    in
    run_app ~machine:R.ipsc860 ~nprocs:4 program;
    (result ()).Water.energy
  in
  Alcotest.(check (float 0.0)) "bit-identical reruns" (mk ()) (mk ())

(* Bit pins: the IEEE-754 bits of the serial results. A kernel change
   must reproduce them exactly — the regenerated tables are digests of
   these floats. *)
let bits x = Int64.bits_of_float x

let array_digest a =
  let b = Buffer.create (8 * Array.length a) in
  Array.iter (fun x -> Buffer.add_int64_le b (bits x)) a;
  Digest.to_hex (Digest.string (Buffer.contents b))

let check_bits name expected x = Alcotest.(check int64) name expected (bits x)

let test_water_bit_pins () =
  List.iter
    (fun (size, p, energy, norm, positions, flops) ->
      let r, fl = Water.serial p in
      check_bits (size ^ " energy") energy r.Water.energy;
      check_bits (size ^ " force norm") norm r.Water.force_norm;
      check_bits (size ^ " flops") flops fl;
      Alcotest.(check string) (size ^ " positions") positions
        (array_digest r.Water.positions))
    [
      ( "test", Water.test_params, 0xbfdcd353fefbfda2L, 0x4013e212b75bd204L,
        "89979364a2e87abd4d4fc655a7aed4b4", 0x4132d1e147ae147bL );
      ( "regen", { Water.paper_params with Water.iters = 2 }, 0xc07ee4999db08631L,
        0x4034c3c10c55baa1L, "236033b40724516bae6a474f95fedad5",
        0x41d80574eb851eb9L );
    ]

(* The inter-molecular kernels as they were before the packed-oxygen
   screen: every pair's signed minimum-image O-O displacement is computed
   from the state and tested against the cutoff. The property below holds
   the screened kernels to this loop bit for bit. *)
module Brute = struct
  let mol_stride = 12
  let sites = 3
  let charge = [| -0.82; 0.41; 0.41 |]
  let kq = Array.init 9 (fun i -> 1.0 *. charge.(i / 3) *. charge.(i mod 3))
  let min_r2 = 0.25
  let lj_epsilon = 0.65
  let lj_sigma = 1.0

  let min_image ~box ~half d =
    if d > half then d -. box else if d < -.half then d +. box else d

  (* Calls [k i j ib jb dox doy doz ro2] on every screened-in pair, and
     [after i] once molecule [i]'s pairs are done. *)
  let pairs ?(after = ignore) (p : Water.params) state ~stride ~offset k =
    let rc2 = p.cutoff *. p.cutoff and box = p.box in
    let half = box /. 2.0 in
    let i = ref offset in
    while !i < p.n do
      let ib = !i * mol_stride in
      for j = !i + 1 to p.n - 1 do
        let jb = j * mol_stride in
        let dox = min_image ~box ~half (state.(ib) -. state.(jb)) in
        let doy = min_image ~box ~half (state.(ib + 1) -. state.(jb + 1)) in
        let doz = min_image ~box ~half (state.(ib + 2) -. state.(jb + 2)) in
        let ro2 = (dox *. dox) +. (doy *. doy) +. (doz *. doz) in
        if ro2 < rc2 then k !i j ib jb dox doy doz ro2
      done;
      after !i;
      i := !i + stride
    done

  let site_d (p : Water.params) state sa sb =
    let half = p.box /. 2.0 in
    let d k = min_image ~box:p.box ~half (state.(sa + k) -. state.(sb + k)) in
    let dx = d 0 and dy = d 1 and dz = d 2 in
    let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
    (dx, dy, dz, if r2 > min_r2 then r2 else min_r2)

  let forces p state f ~stride ~offset =
    pairs p state ~stride ~offset (fun i j ib jb dox doy doz ro2 ->
        for a = 0 to sites - 1 do
          for b = 0 to sites - 1 do
            let dx, dy, dz, r2 = site_d p state (ib + (a * 3)) (jb + (b * 3)) in
            let coef = kq.((a * sites) + b) /. (r2 *. sqrt r2) in
            let fi = ((i * sites) + a) * 3 and fj = ((j * sites) + b) * 3 in
            f.(fi) <- f.(fi) +. (coef *. dx);
            f.(fi + 1) <- f.(fi + 1) +. (coef *. dy);
            f.(fi + 2) <- f.(fi + 2) +. (coef *. dz);
            f.(fj) <- f.(fj) -. (coef *. dx);
            f.(fj + 1) <- f.(fj + 1) -. (coef *. dy);
            f.(fj + 2) <- f.(fj + 2) -. (coef *. dz)
          done
        done;
        let r2 = if ro2 > min_r2 then ro2 else min_r2 in
        let s2 = lj_sigma *. lj_sigma /. r2 in
        let s6 = s2 *. s2 *. s2 in
        let coef = 24.0 *. lj_epsilon /. r2 *. s6 *. ((2.0 *. s6) -. 1.0) in
        let fi = i * sites * 3 and fj = j * sites * 3 in
        f.(fi) <- f.(fi) +. (coef *. dox);
        f.(fi + 1) <- f.(fi + 1) +. (coef *. doy);
        f.(fi + 2) <- f.(fi + 2) +. (coef *. doz);
        f.(fj) <- f.(fj) -. (coef *. dox);
        f.(fj + 1) <- f.(fj + 1) -. (coef *. doy);
        f.(fj + 2) <- f.(fj + 2) -. (coef *. doz))

  (* Intra-molecular springs of molecule [i], added after its pairs. *)
  let springs state e i =
    let spring a b k r0 =
      let d c = state.((i * mol_stride) + (a * 3) + c) -. state.((i * mol_stride) + (b * 3) + c) in
      let dx = d 0 and dy = d 1 and dz = d 2 in
      let r = sqrt ((dx *. dx) +. (dy *. dy) +. (dz *. dz)) in
      0.5 *. k *. (r -. r0) *. (r -. r0)
    in
    e.(i) <-
      e.(i) +. spring 0 1 80.0 0.9572 +. spring 0 2 80.0 0.9572
      +. spring 1 2 30.0 1.5139

  let energy p state e ~stride ~offset =
    pairs p state ~stride ~offset ~after:(springs state e)
      (fun i j ib jb _ _ _ ro2 ->
        let pot = ref 0.0 in
        for a = 0 to sites - 1 do
          for b = 0 to sites - 1 do
            let _, _, _, r2 = site_d p state (ib + (a * 3)) (jb + (b * 3)) in
            pot := !pot +. (kq.((a * sites) + b) /. sqrt r2)
          done
        done;
        let r2 = if ro2 > min_r2 then ro2 else min_r2 in
        let s2 = lj_sigma *. lj_sigma /. r2 in
        let s6 = s2 *. s2 *. s2 in
        pot := !pot +. (4.0 *. lj_epsilon *. s6 *. (s6 -. 1.0));
        e.(i) <- e.(i) +. (!pot /. 2.0);
        e.(j) <- e.(j) +. (!pot /. 2.0))
end

(* Random small states for the kernel property. Box edges are multiples
   of 1/4 and molecule 0's oxygen sits on a 1/16 grid, so molecules
   "planted" at exactly +-box/2 from it along some axes are exact; other
   oxygens range slightly outside [0, box), as after an integration step. *)
let gen_water_case =
  let open QCheck.Gen in
  let* n = int_range 2 12 in
  let* k = int_range 16 160 in
  let box = float_of_int k /. 4.0 in
  let half = box /. 2.0 in
  let* cutoff = float_range 0.5 (0.75 *. box) in
  let* stride = int_range 1 3 in
  let* offset = int_range 0 (stride - 1) in
  let* o0 = array_repeat 3 (map (fun m -> float_of_int m /. 16.0) (int_range 0 ((4 * k) - 1))) in
  let oxygen =
    let* planted = bool in
    if planted then
      array_repeat 3 (oneofl [ 0.0; half; -.half ])
      |> map (fun shift -> Array.mapi (fun a s -> o0.(a) +. s) shift)
    else array_repeat 3 (float_range (-0.05 *. box) (1.05 *. box))
  in
  let* oxygens = array_repeat (n - 1) oxygen in
  let* hs = array_repeat (6 * n) (float_range (-1.0) 1.0) in
  let state = Array.make (n * 12) 0.0 in
  Array.iteri
    (fun m o ->
      for a = 0 to 2 do
        state.((m * 12) + a) <- o.(a);
        state.((m * 12) + 3 + a) <- o.(a) +. hs.((6 * m) + a);
        state.((m * 12) + 6 + a) <- o.(a) +. hs.((6 * m) + 3 + a)
      done)
    (Array.append [| o0 |] oxygens);
  return ({ Water.test_params with Water.n; box; cutoff }, state, stride, offset)

let prop_water_kernels_bit_equal =
  let print (p, state, stride, offset) =
    Printf.sprintf "n=%d box=%h cutoff=%h stride=%d offset=%d state=[%s]" p.Water.n
      p.Water.box p.Water.cutoff stride offset
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") state)))
  in
  QCheck.Test.make ~name:"screened kernels = brute force, bit for bit" ~count:300
    (QCheck.make ~print gen_water_case)
    (fun (p, state, stride, offset) ->
      let run kernel len =
        let out = Array.make len 0.0 in
        kernel p state out ~stride ~offset;
        Array.map bits out
      in
      run Water.pair_forces (9 * p.Water.n) = run Brute.forces (9 * p.Water.n)
      && run Water.pair_energy p.Water.n = run Brute.energy p.Water.n)

(* ---------------- String ---------------- *)

let test_string_ray_weights_sum () =
  (* Backprojection weights along a ray sum to its length. *)
  let nx = 20 and nz = 30 in
  let slowness = Array.make (nx * nz) 1.0 in
  List.iter
    (fun (x0, z0, x1, z1) ->
      let total = ref 0.0 in
      let time =
        String_app.trace_ray ~nx ~nz ~slowness ~x0 ~z0 ~x1 ~z1
          ~cell:(fun _ seg -> total := !total +. seg)
      in
      let geom = sqrt (((x1 -. x0) ** 2.0) +. ((z1 -. z0) ** 2.0)) in
      Alcotest.(check (float 1e-9)) "segments sum to length" geom !total;
      Alcotest.(check (float 1e-9)) "time = length in unit slowness" geom time)
    [
      (0.01, 1.2, 19.99, 28.4);
      (0.01, 15.0, 19.99, 15.0);
      (3.5, 0.2, 3.5, 29.8);
      (0.5, 28.0, 19.5, 2.0);
    ]

let test_string_matches_serial () =
  let reference, _ = String_app.serial String_app.test_params in
  List.iter
    (fun (mname, machine, kind) ->
      let program, result =
        String_app.make String_app.test_params ~kind ~placed:false ~nprocs:3
      in
      run_app ~machine ~nprocs:3 program;
      let r = result () in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "misfit %s" mname)
        reference.String_app.misfit r.String_app.misfit;
      Array.iteri
        (fun i v ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "model[%d] %s" i mname)
            reference.String_app.model.(i) v)
        r.String_app.model)
    machines

let test_string_inversion_converges () =
  let r, _ = String_app.serial String_app.test_params in
  Alcotest.(check bool)
    (Printf.sprintf "misfit shrinks (%.3g -> %.3g)" r.String_app.initial_misfit
       r.String_app.misfit)
    true
    (r.String_app.misfit < 0.5 *. r.String_app.initial_misfit)

let test_string_bit_pins () =
  List.iter
    (fun (size, p, misfit, initial, model, flops) ->
      let r, fl = String_app.serial p in
      check_bits (size ^ " misfit") misfit r.String_app.misfit;
      check_bits (size ^ " initial misfit") initial r.String_app.initial_misfit;
      check_bits (size ^ " flops") flops fl;
      Alcotest.(check string) (size ^ " model") model (array_digest r.String_app.model))
    [
      ( "test", String_app.test_params, 0x3f227f51d2677263L, 0x3f4670725fabf0fbL,
        "9d99d38fd0ffb3e4e8c2307a3385c9f4", 0x411dc0b333333334L );
      ( "bench", String_app.bench_params, 0x3f516010fb9bf3e9L, 0x3f6dbd7c79d522c5L,
        "29049c594f676805314fea5f0f0cf8b9", 0x41cccc7592000000L );
    ]

(* The ray-path store against a fresh DDA trace of every ray: the same
   (cell, segment) pairs bit for bit, and the stored length equal to the
   segments summed in walk order. *)
let test_string_store size p () =
  let g = String_app.ray_paths_uncached p in
  let slowness = Array.make (p.String_app.nx * p.String_app.nz) 1.0 in
  for r = 0 to p.String_app.nrays - 1 do
    let x0, z0, x1, z1 = String_app.ray_endpoints p r in
    let dda = ref [] in
    ignore
      (String_app.trace_ray ~nx:p.String_app.nx ~nz:p.String_app.nz ~slowness ~x0
         ~z0 ~x1 ~z1 ~cell:(fun c seg -> dda := (c, bits seg) :: !dda));
    let walk = ref [] and sum = ref 0.0 in
    let len =
      String_app.ray_walk g r (fun c seg ->
          walk := (c, bits seg) :: !walk;
          sum := !sum +. seg)
    in
    if !walk <> !dda then Alcotest.failf "%s ray %d: stored walk differs from the DDA" size r;
    if bits len <> bits !sum then
      Alcotest.failf "%s ray %d: stored length %h <> summed segments %h" size r len !sum
  done

(* Rays whose end points fall exactly on a z cell boundary (z1 = 24.0 for
   receiver 11, 72.0 for receiver 34): rounding in the DDA's repeated
   [t_max_z] additions can add a tiny last segment past the end cell, so
   no count derived from the end cells alone holds for them. *)
let boundary_params =
  { String_app.nx = 48; nz = 96; nrays = 2048; iters = 6 }

(* ---------------- Ocean ---------------- *)

let test_ocean_matches_serial_exactly () =
  List.iter
    (fun (mname, machine, kind) ->
      List.iter
        (fun nprocs ->
          let reference, _ = Ocean.serial Ocean.test_params ~nprocs in
          let program, result =
            Ocean.make Ocean.test_params ~kind ~placed:false ~nprocs
          in
          run_app ~machine ~nprocs program;
          let r = result () in
          let diff = ref 0.0 in
          Array.iteri
            (fun iz row ->
              Array.iteri
                (fun ix v ->
                  let d = Float.abs (v -. reference.Ocean.grid.(iz).(ix)) in
                  if d > !diff then diff := d)
                row)
            r.Ocean.grid;
          Alcotest.(check (float 0.0))
            (Printf.sprintf "grid identical %s p=%d" mname nprocs)
            0.0 !diff)
        [ 1; 2; 4; 6 ])
    machines

let test_ocean_placed_matches_too () =
  let nprocs = 5 in
  let reference, _ = Ocean.serial Ocean.test_params ~nprocs in
  let program, result =
    Ocean.make Ocean.test_params ~kind:App_common.Mp ~placed:true ~nprocs
  in
  ignore
    (R.run
       ~config:{ Jade.Config.default with Jade.Config.locality = Jade.Config.Task_placement }
       ~machine:R.ipsc860 ~nprocs program);
  let r = result () in
  Alcotest.(check (float 0.0)) "placed run identical" reference.Ocean.residual
    r.Ocean.residual

let test_ocean_converges () =
  let coarse, _ = Ocean.serial { Ocean.test_params with Ocean.iters = 2 } ~nprocs:3 in
  let fine, _ = Ocean.serial { Ocean.test_params with Ocean.iters = 40 } ~nprocs:3 in
  Alcotest.(check bool)
    (Printf.sprintf "residual shrinks (%.3g -> %.3g)" coarse.Ocean.residual
       fine.Ocean.residual)
    true
    (fine.Ocean.residual < coarse.Ocean.residual)

(* ---------------- Panel Cholesky ---------------- *)

let test_cholesky_serial_correct () =
  let p = Cholesky.test_params in
  let a = Cholesky.matrix p in
  let r, _ = Cholesky.serial p in
  let expected = Jade_sparse.Dense.cholesky (Jade_sparse.Csc.to_dense a) in
  Alcotest.(check bool) "panel L = dense L" true
    (Jade_sparse.Dense.max_diff r.Cholesky.l expected < 1e-9)

let test_cholesky_matches_serial () =
  let reference, _ = Cholesky.serial Cholesky.test_params in
  List.iter
    (fun (mname, machine, kind) ->
      List.iter
        (fun nprocs ->
          let program, result =
            Cholesky.make Cholesky.test_params ~kind ~placed:false ~nprocs
          in
          run_app ~machine ~nprocs program;
          let r = result () in
          Alcotest.(check bool)
            (Printf.sprintf "factor identical %s p=%d" mname nprocs)
            true
            (Jade_sparse.Dense.max_diff r.Cholesky.l reference.Cholesky.l
            < 1e-12))
        [ 1; 3; 6 ])
    machines

let test_cholesky_llt_reconstructs () =
  let p = Cholesky.test_params in
  let a = Jade_sparse.Csc.to_dense (Cholesky.matrix p) in
  let program, result = Cholesky.make p ~kind:App_common.Mp ~placed:false ~nprocs:4 in
  run_app ~machine:R.ipsc860 ~nprocs:4 program;
  let r = result () in
  Alcotest.(check bool) "L L^T = A" true
    (Jade_sparse.Dense.max_diff (Jade_sparse.Dense.mul_lt r.Cholesky.l) a < 1e-9)

let test_cholesky_placed () =
  let reference, _ = Cholesky.serial Cholesky.test_params in
  let program, result =
    Cholesky.make Cholesky.test_params ~kind:App_common.Mp ~placed:true ~nprocs:4
  in
  ignore
    (R.run
       ~config:{ Jade.Config.default with Jade.Config.locality = Jade.Config.Task_placement }
       ~machine:R.ipsc860 ~nprocs:4 program);
  let r = result () in
  Alcotest.(check bool) "placed factor identical" true
    (Jade_sparse.Dense.max_diff r.Cholesky.l reference.Cholesky.l < 1e-12)

(* All apps, all optimization configurations: results must not depend on
   the optimization level. *)
let test_results_config_invariant () =
  let configs =
    [
      { Jade.Config.default with Jade.Config.locality = Jade.Config.No_locality };
      { Jade.Config.default with Jade.Config.adaptive_broadcast = false };
      { Jade.Config.default with Jade.Config.concurrent_fetch = false };
      { Jade.Config.default with Jade.Config.target_tasks = 2 };
      { Jade.Config.default with Jade.Config.replication = false };
    ]
  in
  let reference, _ = Cholesky.serial Cholesky.test_params in
  List.iter
    (fun config ->
      let program, result =
        Cholesky.make Cholesky.test_params ~kind:App_common.Mp ~placed:false
          ~nprocs:5
      in
      ignore (R.run ~config ~machine:R.ipsc860 ~nprocs:5 program);
      let r = result () in
      Alcotest.(check bool) "factor invariant under config" true
        (Jade_sparse.Dense.max_diff r.Cholesky.l reference.Cholesky.l < 1e-12))
    configs

let () =
  Alcotest.run "jade_apps"
    [
      ( "water",
        [
          Alcotest.test_case "matches serial" `Quick test_water_matches_serial;
          Alcotest.test_case "forces present" `Quick test_water_momentum_conserved;
          Alcotest.test_case "deterministic" `Quick test_water_deterministic;
          Alcotest.test_case "bit pins" `Quick test_water_bit_pins;
          QCheck_alcotest.to_alcotest prop_water_kernels_bit_equal;
        ] );
      ( "string",
        [
          Alcotest.test_case "ray weights" `Quick test_string_ray_weights_sum;
          Alcotest.test_case "matches serial" `Quick test_string_matches_serial;
          Alcotest.test_case "inversion converges" `Quick test_string_inversion_converges;
          Alcotest.test_case "bit pins" `Quick test_string_bit_pins;
          Alcotest.test_case "store at test size" `Quick
            (test_string_store "test" String_app.test_params);
          Alcotest.test_case "store at bench size" `Quick
            (test_string_store "bench" String_app.bench_params);
          Alcotest.test_case "store at paper size" `Quick
            (test_string_store "paper" String_app.paper_params);
          Alcotest.test_case "store with rays ending on cell boundaries" `Quick
            (test_string_store "boundary" boundary_params);
        ] );
      ( "ocean",
        [
          Alcotest.test_case "matches serial exactly" `Quick
            test_ocean_matches_serial_exactly;
          Alcotest.test_case "placed matches" `Quick test_ocean_placed_matches_too;
          Alcotest.test_case "converges" `Quick test_ocean_converges;
        ] );
      ( "cholesky",
        [
          Alcotest.test_case "serial vs dense" `Quick test_cholesky_serial_correct;
          Alcotest.test_case "parallel matches serial" `Quick
            test_cholesky_matches_serial;
          Alcotest.test_case "LL^T = A" `Quick test_cholesky_llt_reconstructs;
          Alcotest.test_case "placed" `Quick test_cholesky_placed;
          Alcotest.test_case "config invariant" `Quick test_results_config_invariant;
        ] );
    ]
