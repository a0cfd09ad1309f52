(* Cross-well tomography (the paper's String application) as a library
   user would drive it: invert a synthetic velocity model, watch the
   misfit fall, and compare the adaptive-broadcast optimization on the
   message-passing machine.

   Run with:  dune exec examples/tomography_demo.exe *)

module R = Jade.Runtime

let params =
  { Jade_apps.String_app.nx = 48; nz = 96; nrays = 2048; iters = 6 }

let run ?(broadcast = true) nprocs =
  let program, result =
    Jade_apps.String_app.make params ~kind:Jade_apps.App_common.Mp ~placed:false
      ~nprocs
  in
  let config = { Jade.Config.default with Jade.Config.adaptive_broadcast = broadcast } in
  let s = R.run ~config ~machine:R.ipsc860 ~nprocs program in
  (result (), s)

let () =
  print_endline "String: cross-well travel-time tomography on the iPSC/860 model";
  Format.printf "grid %dx%d, %d rays, %d iterations@." params.Jade_apps.String_app.nx
    params.Jade_apps.String_app.nz params.Jade_apps.String_app.nrays
    params.Jade_apps.String_app.iters;
  let serial, _ = Jade_apps.String_app.serial params in
  Format.printf "serial reference: misfit %.3g -> %.3g@."
    serial.Jade_apps.String_app.initial_misfit serial.Jade_apps.String_app.misfit;
  List.iter
    (fun nprocs ->
      let r, s = run nprocs in
      Format.printf
        "  %2d procs: misfit %.3g -> %.3g, elapsed %.3fs, comm %.2f MB, %d \
         broadcasts@."
        nprocs r.Jade_apps.String_app.initial_misfit r.Jade_apps.String_app.misfit
        s.Jade.Metrics.elapsed_s s.Jade.Metrics.comm_mbytes
        s.Jade.Metrics.broadcast_count)
    [ 1; 2; 4; 8; 16 ];
  (* The model object is read by every processor each iteration and
     rewritten by the serial phase: exactly the pattern the adaptive
     broadcast optimization targets. *)
  let _, with_b = run ~broadcast:true 16 in
  let _, without_b = run ~broadcast:false 16 in
  Format.printf "adaptive broadcast at 16 procs: %.3fs with, %.3fs without@."
    with_b.Jade.Metrics.elapsed_s without_b.Jade.Metrics.elapsed_s;
  (* Reconstruction should recover the anomaly: compare centre vs corner
     slowness of the final model. *)
  let r, _ = run 8 in
  let nx = params.Jade_apps.String_app.nx in
  let centre =
    r.Jade_apps.String_app.model.((nx / 2) + (params.Jade_apps.String_app.nz / 2 * nx))
  in
  let corner = r.Jade_apps.String_app.model.(nx + 1) in
  Format.printf "recovered anomaly: centre slowness %.3g vs edge %.3g@." centre
    corner
