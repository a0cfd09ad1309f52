open Runner

let procs_cols = List.map string_of_int Runner.procs

let replication_seq r ~app =
  let base = config_of_level Loc in
  let row label config =
    ( label,
      List.map
        (fun nprocs ->
          Some
            (run r ~app ~machine:Ipsc ~nprocs ~config ~placed:false)
              .Jade.Metrics.elapsed_s)
        Runner.procs )
  in
  {
    Report.id = "Analysis 5.1";
    title =
      Printf.sprintf "Replication on/off for %s on the iPSC/860" (app_name app);
    columns = procs_cols;
    rows =
      [
        row "Replication" base;
        row "No Replication (serialized readers)"
          { base with Jade.Config.replication = false };
      ];
    unit_label = "seconds";
  }

let broadcast_breakdown r =
  ignore r;
  let c = Jade_machines.Costs.ipsc860 in
  let send size = Jade_machines.Costs.mp_send_occupancy c ~size in
  let water_obj = 8 * 12 * Jade_apps.Water.paper_params.Jade_apps.Water.n in
  let string_p = Jade_apps.String_app.paper_params in
  let string_obj = 8 * string_p.Jade_apps.String_app.nx * string_p.Jade_apps.String_app.nz in
  let rounds = 5.0 (* ceil log2 32 *) in
  let row name size =
    ( name,
      [
        Some (float_of_int size);
        Some (send size);
        Some (31.0 *. send size);
        Some (rounds *. send size);
      ] )
  in
  {
    Report.id = "Analysis 5.3";
    title =
      "Updated-object distribution at 32 processors: serial sends vs broadcast";
    columns = [ "bytes"; "one send (s)"; "31 serial sends (s)"; "broadcast (s)" ];
    rows = [ row "Water state" water_obj; row "String model" string_obj ];
    unit_label = "paper-scale object sizes, iPSC/860 link parameters";
  }

let latency_hiding_seq r =
  let base = config_of_level Tp in
  let row label config =
    ( label,
      List.map
        (fun nprocs ->
          Some
            (run r ~app:Cholesky ~machine:Ipsc ~nprocs ~config ~placed:true)
              .Jade.Metrics.elapsed_s)
        Runner.procs )
  in
  {
    Report.id = "Analysis 5.4";
    title = "Latency hiding for Panel Cholesky on the iPSC/860";
    columns = procs_cols;
    rows =
      [
        row "Target 1 task/processor (off)" base;
        row "Target 2 tasks/processor (on)"
          { base with Jade.Config.target_tasks = 2 };
      ];
    unit_label = "seconds";
  }

let concurrent_fetch_seq r =
  {
    Report.id = "Analysis 5.5";
    title =
      "Object latency / task latency on the iPSC/860 (1.0 = nothing to \
       parallelize)";
    columns = procs_cols;
    rows =
      List.map
        (fun app ->
          ( app_name app,
            List.map
              (fun nprocs ->
                let level =
                  match app with Water | String_ -> Loc | Ocean | Cholesky -> Tp
                in
                Some
                  (run_level r ~app ~machine:Ipsc ~nprocs ~level)
                    .Jade.Metrics.latency_ratio)
              Runner.procs ))
        all_apps;
    unit_label = "ratio";
  }

(* §6: the update-protocol implementation the paper reports trying — it
   "worked well for applications such as Water and String with regular,
   repetitive communication patterns, but degraded the performance of
   other applications by generating an excessive amount of
   communication". *)
let eager_transfer_seq r =
  let rows =
    List.concat_map
      (fun app ->
        let level = match app with Water | String_ -> Loc | Ocean | Cholesky -> Tp in
        let base = config_of_level level in
        let placed = level = Tp in
        let row label config =
          ( Printf.sprintf "%s, %s" (app_name app) label,
            List.map
              (fun nprocs ->
                Some
                  (run r ~app ~machine:Ipsc ~nprocs ~config ~placed)
                    .Jade.Metrics.elapsed_s)
              Runner.procs )
        in
        [
          row "demand" base;
          row "eager" { base with Jade.Config.eager_transfer = true };
        ])
      all_apps
  in
  {
    Report.id = "Analysis 6 (update protocol)";
    title = "Eager producer-to-consumer transfers vs demand fetching, iPSC/860";
    columns = procs_cols;
    rows;
    unit_label = "seconds";
  }

(* Ablation of a reproduction design choice: the shared-memory balancer's
   steal patience (how long an idle processor waits before taking a task
   off its target processor). Longer patience widens the window in which
   an idle processor misses wake-ups and then steals on its own, so task
   locality *degrades* as patience grows — the locality comes from giving
   the target processor the first wake-up, not from waiting.

   These runs use modified machine-cost records, so they bypass the
   runner's (app x machine x config) grid; each cell is a
   {!Runner.run_custom} work unit instead — planned, fanned out and
   disk-cached like any simulation — that runs through {!Runner.simulate}.
   Rows are assembled in fixed grid order. The cell keys carry the fixed
   paper-scale parameters, not the runner's size, because the computation
   does not depend on it. *)
let ablation_steal_patience_seq r =
  let patience_values = [ 0.0; 100e-6; 400e-6; 2e-3 ] in
  let cols = [ 4; 8; 16; 32 ] in
  let params = { Jade_apps.Ocean.paper_params with Jade_apps.Ocean.iters = 30 } in
  let cell patience nprocs =
    Runner.run_custom r
      ~key:
        (Printf.sprintf "ablation-steal-patience ocean-paper-iters30 p=%g n=%d"
           patience nprocs)
      (fun () ->
        let machine =
          Jade.Runtime.Dash
            { Jade_machines.Costs.dash with Jade_machines.Costs.steal_patience = patience }
        in
        let program, _ =
          Jade_apps.Ocean.make params ~kind:Jade_apps.App_common.Shm
            ~placed:false ~nprocs
        in
        let s = Runner.simulate r ~machine ~nprocs program in
        s.Jade.Metrics.locality_pct)
  in
  let rows =
    List.map
      (fun patience ->
        ( Printf.sprintf "patience %.0f us" (patience *. 1e6),
          List.map (fun nprocs -> Some (cell patience nprocs)) cols ))
      patience_values
  in
  {
    Report.id = "Ablation (steal patience)";
    title =
      "Ocean on DASH at the Locality level: task locality % vs steal patience";
    columns = [ "4"; "8"; "16"; "32" ];
    rows;
    unit_label = "% of tasks on target processor";
  }

(* Portability (§1: Jade programs port unmodified between shared-memory
   machines, message-passing machines and workstation networks). Beyond
   the paper's measured platforms: the same four applications on a
   simulated Ethernet-class LAN of workstations. *)
let portability_seq r =
  let machines =
    [ ("DASH", Jade.Runtime.dash); ("iPSC/860", Jade.Runtime.ipsc860);
      ("LAN", Jade.Runtime.lan) ]
  in
  let apps =
    [
      ( "Water",
        fun nprocs ->
          fst
            (Jade_apps.Water.make Jade_apps.Water.bench_params
               ~kind:Jade_apps.App_common.Mp ~placed:false ~nprocs) );
      ( "String",
        fun nprocs ->
          fst
            (Jade_apps.String_app.make Jade_apps.String_app.test_params
               ~kind:Jade_apps.App_common.Mp ~placed:false ~nprocs) );
      ( "Ocean",
        fun nprocs ->
          fst
            (Jade_apps.Ocean.make Jade_apps.Ocean.bench_params
               ~kind:Jade_apps.App_common.Mp ~placed:false ~nprocs) );
      ( "Panel Cholesky",
        fun nprocs ->
          fst
            (Jade_apps.Cholesky.make Jade_apps.Cholesky.bench_params
               ~kind:Jade_apps.App_common.Mp ~placed:false ~nprocs) );
    ]
  in
  let nprocs = 8 in
  (* Direct runs on a bespoke machine list (the LAN has no runner memo
     entry): each (app, machine) cell is a {!Runner.run_custom} unit. The
     keys carry the apps' fixed bench/test parameter sets, independent of
     the runner's size. *)
  let cell (app_label, make) (machine_label, machine) =
    Runner.run_custom r
      ~key:
        (Printf.sprintf "portability fixed-params app=%s machine=%s n=%d"
           app_label machine_label nprocs)
      (fun () ->
        let s = Runner.simulate r ~machine ~nprocs (make nprocs) in
        s.Jade.Metrics.elapsed_s)
  in
  let rows =
    List.map
      (fun ((app_label, _) as app) ->
        (app_label, List.map (fun m -> Some (cell app m)) machines))
      apps
  in
  {
    Report.id = "Portability";
    title =
      "The same Jade programs on all three platforms (8 processors,        locality level)";
    columns = List.map fst machines;
    rows;
    unit_label = "seconds";
  }

(* Every analysis fans its simulations out via {!Runner.parallel} — the
   two bespoke-machine analyses ride along as custom work units. *)
let replication r ~app = Runner.parallel r (fun () -> replication_seq r ~app)

let latency_hiding r = Runner.parallel r (fun () -> latency_hiding_seq r)

let concurrent_fetch r = Runner.parallel r (fun () -> concurrent_fetch_seq r)

let eager_transfer r = Runner.parallel r (fun () -> eager_transfer_seq r)

let ablation_steal_patience r =
  Runner.parallel r (fun () -> ablation_steal_patience_seq r)

let portability r = Runner.parallel r (fun () -> portability_seq r)

let all r =
  Runner.parallel r (fun () ->
      [
        replication_seq r ~app:Water;
        broadcast_breakdown r;
        latency_hiding_seq r;
        concurrent_fetch_seq r;
        eager_transfer_seq r;
        ablation_steal_patience_seq r;
        portability_seq r;
      ])
