(* The advanced access-specification statements (§2): a running task can
   declare that it will no longer access an object, committing its write
   and unblocking successors while it keeps computing.

   A three-stage software pipeline over a stream of frames: each stage
   writes its output object, releases it as soon as the data is ready,
   then spends the rest of its budget on stage-local post-processing. With
   [release] the stages overlap; without it every frame flows strictly
   stage by stage. The two stages that release are [withonly_staged]
   tasks: only a staged body may charge work or release objects.

   Run with:  dune exec examples/pipeline_demo.exe *)

module R = Jade.Runtime

let frames = 6

let stage_flops = 8.0e6 (* 1 virtual second per stage on the iPSC model *)

let frame_cells = 256

let program ~use_release results rt =
  let nprocs = R.nprocs rt in
  (* One handoff object per frame per stage boundary. *)
  let handoff stage frame =
    R.create_object rt
      ~home:((stage + 1) mod nprocs)
      ~name:(Printf.sprintf "frame.%d.stage%d" frame stage)
      ~size:(8 * frame_cells)
      (Array.make frame_cells 0.0)
  in
  let h1 = Array.init frames (handoff 0) in
  let h2 = Array.init frames (handoff 1) in
  let out = Array.init frames (handoff 2) in
  for f = 0 to frames - 1 do
    (* Stage 1: produce the frame. *)
    R.withonly_staged rt ~placement:(1 mod nprocs)
      ~name:(Printf.sprintf "produce.%d" f)
      ~work:stage_flops
      ~accesses:(fun s -> Jade.Spec.wr s h1.(f))
      (fun env ->
        let a = R.wr env h1.(f) in
        Array.iteri (fun i _ -> a.(i) <- float_of_int ((f * 17) + i)) a;
        if use_release then begin
          R.work env (0.4 *. stage_flops);
          (* Data is ready: let stage 2 start while we do bookkeeping. *)
          R.release env h1.(f)
        end);
    (* Stage 2: transform. *)
    R.withonly_staged rt ~placement:(2 mod nprocs)
      ~name:(Printf.sprintf "transform.%d" f)
      ~work:stage_flops
      ~accesses:(fun s ->
        Jade.Spec.wr s h2.(f);
        Jade.Spec.rd s h1.(f))
      (fun env ->
        let src = R.rd env h1.(f) and dst = R.wr env h2.(f) in
        Array.iteri (fun i v -> dst.(i) <- (2.0 *. v) +. 1.0) src;
        if use_release then begin
          R.work env (0.4 *. stage_flops);
          R.release env h2.(f)
        end);
    (* Stage 3: reduce the frame to a checksum. *)
    R.withonly rt ~placement:(3 mod nprocs)
      ~name:(Printf.sprintf "reduce.%d" f)
      ~work:(0.5 *. stage_flops)
      ~accesses:(fun s ->
        Jade.Spec.rw s out.(f);
        Jade.Spec.rd s h2.(f))
      (fun env ->
        let src = R.rd env h2.(f) and dst = R.wr env out.(f) in
        dst.(0) <- Array.fold_left ( +. ) 0.0 src)
  done;
  R.drain rt;
  results := Array.map (fun o -> (Jade.Shared.data o).(0)) out

let () =
  Format.printf "pipeline over %d frames, 3 stages, simulated iPSC/860@." frames;
  let run use_release =
    let results = ref [||] in
    let s = R.run ~machine:R.ipsc860 ~nprocs:4 (program ~use_release results) in
    (!results, s.Jade.Metrics.elapsed_s)
  in
  let r_without, t_without = run false in
  let r_with, t_with = run true in
  assert (r_without = r_with);
  Format.printf "  without release: %.3f virtual seconds@." t_without;
  Format.printf "  with release:    %.3f virtual seconds (%.0f%% faster, same \
                 results)@."
    t_with
    (100.0 *. (t_without -. t_with) /. t_without)
