open Jade_sim

type spec = {
  seed : int;
  drop_rate : float;
  dup_rate : float;
  jitter : float;
  retry_timeout : float;
  max_retries : int;
  drop_tagged : (Tag.t * int) list;
  crash_seed : int;
  crash_rate : float;
  crash_horizon : float;
  crash_at : (int * float) list;
  crash_restart : float;
}

let default_spec =
  {
    seed = 1;
    drop_rate = 0.0;
    dup_rate = 0.0;
    jitter = 0.0;
    retry_timeout = 0.05;
    max_retries = 10;
    drop_tagged = [];
    crash_seed = 1;
    crash_rate = 0.0;
    crash_horizon = 0.01;
    crash_at = [];
    crash_restart = 0.0;
  }

let spec ?(seed = 1) ?(drop_rate = 0.0) ?(dup_rate = 0.0) ?(jitter = 0.0)
    ?(retry_timeout = default_spec.retry_timeout)
    ?(max_retries = default_spec.max_retries) ?(drop_tagged = [])
    ?(crash_seed = 1) ?(crash_rate = 0.0)
    ?(crash_horizon = default_spec.crash_horizon) ?(crash_at = [])
    ?(crash_restart = 0.0) () =
  if drop_rate < 0.0 || drop_rate > 1.0 then
    invalid_arg "Fault.spec: drop_rate outside [0,1]";
  if dup_rate < 0.0 || dup_rate > 1.0 then
    invalid_arg "Fault.spec: dup_rate outside [0,1]";
  if jitter < 0.0 then invalid_arg "Fault.spec: negative jitter";
  if crash_rate < 0.0 || crash_rate > 1.0 then
    invalid_arg "Fault.spec: crash_rate outside [0,1]";
  if crash_horizon <= 0.0 then
    invalid_arg "Fault.spec: crash_horizon must be positive";
  if crash_restart < 0.0 then invalid_arg "Fault.spec: negative crash_restart";
  List.iter
    (fun (p, at) ->
      if p < 0 then invalid_arg "Fault.spec: negative crash_at processor";
      if at < 0.0 then invalid_arg "Fault.spec: negative crash_at time")
    crash_at;
  { seed; drop_rate; dup_rate; jitter; retry_timeout; max_retries;
    drop_tagged; crash_seed; crash_rate; crash_horizon; crash_at;
    crash_restart }

let active s =
  s.drop_rate > 0.0 || s.dup_rate > 0.0 || s.jitter > 0.0 || s.drop_tagged <> []

let crash_active s = s.crash_rate > 0.0 || s.crash_at <> []

let reliable s =
  (active s || crash_active s) && s.max_retries > 0 && s.retry_timeout > 0.0

(* The (entry, processor count) pairs already warned about: a command
   running many cells under one scripted plan says each thing once per
   process. Cells may run on several domains, hence the lock. *)
let warned = Hashtbl.create 8

let warned_lock = Mutex.create ()

let warn_dropped (p, at) nprocs =
  Mutex.protect warned_lock (fun () ->
      if not (Hashtbl.mem warned (p, at, nprocs)) then begin
        Hashtbl.add warned (p, at, nprocs) ();
        Printf.eprintf
          "warning: --crash-at %d@%g dropped: processor %d out of range for \
           %d-processor machine\n%!"
          p at p nprocs
      end)

(* The crash plan is a pure function of (spec, nprocs): scripted entries
   (dropping any processor outside [0, nprocs)) plus, in rate mode, one
   independent per-processor draw seeded by (crash_seed, proc). Rate mode
   never crashes processor 0 — root failure is whole-machine failure and
   only makes sense as a scripted scenario. Each processor crashes at most
   once; the earliest time wins. Sorted by (time, proc). *)
let crash_plan s ~nprocs =
  if not (crash_active s) then []
  else begin
    let scripted =
      List.filter
        (fun ((p, _) as entry) ->
          let ok = p >= 0 && p < nprocs in
          (* Out-of-range entries are unusable on this machine size; say so
             instead of silently weakening the scenario (a --crash-at typo
             would otherwise pass as a clean run). Warning only — the plan
             itself stays a pure function of (spec, nprocs). *)
          if not ok then warn_dropped entry nprocs;
          ok)
        s.crash_at
    in
    let drawn =
      if s.crash_rate <= 0.0 then []
      else begin
        let acc = ref [] in
        for p = nprocs - 1 downto 1 do
          let g =
            Srandom.create ((s.crash_seed * 2_147_483_629) lxor (p * 1_000_003))
          in
          let u = Srandom.float g 1.0 in
          let frac = Srandom.float g 1.0 in
          if u < s.crash_rate then acc := (p, frac *. s.crash_horizon) :: !acc
        done;
        !acc
      end
    in
    let all =
      List.sort
        (fun (p1, t1) (p2, t2) ->
          let c = compare t1 t2 in
          if c <> 0 then c else compare p1 p2)
        (scripted @ drawn)
    in
    let seen = Array.make nprocs false in
    List.filter
      (fun (p, _) ->
        if seen.(p) then false
        else begin
          seen.(p) <- true;
          true
        end)
      all
  end

let pp_spec ppf s =
  Format.fprintf ppf
    "fault(seed=%d drop=%g dup=%g jitter=%g timeout=%g retries=%d%s%s)"
    s.seed s.drop_rate s.dup_rate s.jitter s.retry_timeout
    s.max_retries
    (if s.drop_tagged = [] then ""
     else
       " scripted="
       ^ String.concat ","
           (List.map
              (fun (tag, i) -> Printf.sprintf "%s#%d" (Tag.to_string tag) i)
              s.drop_tagged))
    (if not (crash_active s) then ""
     else
       Printf.sprintf " crash(seed=%d rate=%g horizon=%g restart=%g%s)"
         s.crash_seed s.crash_rate s.crash_horizon s.crash_restart
         (if s.crash_at = [] then ""
          else
            " at="
            ^ String.concat ","
                (List.map
                   (fun (p, at) -> Printf.sprintf "%d@%g" p at)
                   s.crash_at)))

type decision = {
  drop : bool;
  duplicate : bool;
  delay : float;  (** extra delivery latency, seconds *)
  dup_delay : float;  (** extra latency of the duplicate copy *)
}

let pass = { drop = false; duplicate = false; delay = 0.0; dup_delay = 0.0 }

let dropped_decision = { pass with drop = true }

(* The decision for global message [index] is a pure function of
   (spec, index): replaying the same plan over the same message sequence
   reproduces the same faults exactly. *)
let decision_at s ~index =
  if not (active s) then pass
  else begin
    let g = Srandom.create ((s.seed * 1_000_003) lxor (index * 8191)) in
    let u_drop = Srandom.float g 1.0 in
    let u_dup = Srandom.float g 1.0 in
    let u_delay = Srandom.float g 1.0 in
    let u_dup_delay = Srandom.float g 1.0 in
    if s.drop_rate > 0.0 && u_drop < s.drop_rate then dropped_decision
    else begin
      let delay = if s.jitter > 0.0 then s.jitter *. u_delay else 0.0 in
      let duplicate = s.dup_rate > 0.0 && u_dup < s.dup_rate in
      let dup_delay =
        if duplicate && s.jitter > 0.0 then s.jitter *. u_dup_delay else delay
      in
      { drop = false; duplicate; delay; dup_delay }
    end
  end

(* Per-tag ledgers are flat arrays indexed by [Tag.index]: the tag space
   is closed, so the per-message accounting is two array reads instead of
   a string-keyed hashtable probe. *)
type t = {
  fspec : spec;
  mutable index : int;  (** global message index, pre-incremented per draw *)
  seen_by_tag : int array;
  drops_by_tag : int array;
  mutable dropped : int;
  mutable duplicated : int;
}

let create fspec =
  {
    fspec;
    index = 0;
    seen_by_tag = Array.make Tag.count 0;
    drops_by_tag = Array.make Tag.count 0;
    dropped = 0;
    duplicated = 0;
  }

let next_decision t ~tag =
  let index = t.index in
  t.index <- index + 1;
  let ti = Tag.index tag in
  let nth = t.seen_by_tag.(ti) in
  t.seen_by_tag.(ti) <- nth + 1;
  let d = decision_at t.fspec ~index in
  let scripted =
    t.fspec.drop_tagged <> []
    && List.exists (fun (tg, i) -> tg = tag && i = nth) t.fspec.drop_tagged
  in
  let d = if scripted then dropped_decision else d in
  if d.drop then begin
    t.dropped <- t.dropped + 1;
    t.drops_by_tag.(ti) <- t.drops_by_tag.(ti) + 1
  end
  else if d.duplicate then t.duplicated <- t.duplicated + 1;
  d

let messages_seen t = t.index

let dropped t = t.dropped

let duplicated t = t.duplicated

let dropped_with_tag t tag = t.drops_by_tag.(Tag.index tag)
