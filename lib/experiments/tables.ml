open Runner

let procs_cols = List.map string_of_int Runner.procs

let elapsed_row r ~app ~machine ~level label =
  ( label,
    List.map
      (fun nprocs ->
        Some (run_level r ~app ~machine ~nprocs ~level).Jade.Metrics.elapsed_s)
      Runner.procs )

let serial_stripped r ~machine ~id ~title =
  {
    Report.id;
    title;
    columns = List.map app_name all_apps;
    rows =
      [
        ( "Serial",
          List.map (fun app -> Some (serial_time r ~app ~machine)) all_apps );
        ( "Stripped",
          List.map (fun app -> Some (stripped_time r ~app ~machine)) all_apps );
      ];
    unit_label = "seconds";
  }

let locality_table r ~app ~machine ~id =
  {
    Report.id;
    title =
      Printf.sprintf "Execution Times for %s on %s" (app_name app)
        (machine_name machine);
    columns = procs_cols;
    rows =
      List.map
        (fun level -> elapsed_row r ~app ~machine ~level (level_name level))
        (levels_for app);
    unit_label = "seconds";
  }

(* §5.3 runs: locality, replication, concurrent fetch on; latency hiding
   off; broadcast toggled. Ocean and Panel Cholesky use their best
   (placed) versions, matching the tables' Task Placement rows. *)
let broadcast_table r ~app ~id =
  let best_level = match app with Water | String_ -> Loc | Ocean | Cholesky -> Tp in
  let base = config_of_level best_level in
  let placed = best_level = Tp in
  let row label config =
    ( label,
      List.map
        (fun nprocs ->
          Some
            (run r ~app ~machine:Ipsc ~nprocs ~config ~placed)
              .Jade.Metrics.elapsed_s)
        Runner.procs )
  in
  {
    Report.id;
    title =
      Printf.sprintf "Adaptive Broadcast for %s on the iPSC/860" (app_name app);
    columns = procs_cols;
    rows =
      [
        row "Adaptive Broadcast" base;
        row "No Adaptive Broadcast"
          { base with Jade.Config.adaptive_broadcast = false };
      ];
    unit_label = "seconds";
  }

let table_seq r n =
  match n with
  | 1 ->
      serial_stripped r ~machine:Dash ~id:"Table 1"
        ~title:"Serial and Stripped Execution Times on DASH"
  | 2 -> locality_table r ~app:Water ~machine:Dash ~id:"Table 2"
  | 3 -> locality_table r ~app:String_ ~machine:Dash ~id:"Table 3"
  | 4 -> locality_table r ~app:Ocean ~machine:Dash ~id:"Table 4"
  | 5 -> locality_table r ~app:Cholesky ~machine:Dash ~id:"Table 5"
  | 6 ->
      serial_stripped r ~machine:Ipsc ~id:"Table 6"
        ~title:"Serial and Stripped Execution Times on the iPSC/860"
  | 7 -> locality_table r ~app:Water ~machine:Ipsc ~id:"Table 7"
  | 8 -> locality_table r ~app:String_ ~machine:Ipsc ~id:"Table 8"
  | 9 -> locality_table r ~app:Ocean ~machine:Ipsc ~id:"Table 9"
  | 10 -> locality_table r ~app:Cholesky ~machine:Ipsc ~id:"Table 10"
  | 11 -> broadcast_table r ~app:Water ~id:"Table 11"
  | 12 -> broadcast_table r ~app:String_ ~id:"Table 12"
  | 13 -> broadcast_table r ~app:Ocean ~id:"Table 13"
  | 14 -> broadcast_table r ~app:Cholesky ~id:"Table 14"
  | _ -> invalid_arg "Tables.table: the paper has tables 1-14"

(* Fan the table's uncached simulations out across the runner's domains,
   then render sequentially from the cache (byte-identical at any jobs
   count). *)
let table r n = Runner.parallel r (fun () -> table_seq r n)
