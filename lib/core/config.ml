type locality_level = No_locality | Locality | Task_placement

type t = {
  locality : locality_level;
  adaptive_broadcast : bool;
  concurrent_fetch : bool;
  target_tasks : int;
  replication : bool;
  work_free : bool;
  eager_transfer : bool;
  fault : Jade_net.Fault.spec option;
}

let default =
  {
    locality = Locality;
    adaptive_broadcast = true;
    concurrent_fetch = true;
    target_tasks = 1;
    replication = true;
    work_free = false;
    eager_transfer = false;
    fault = None;
  }

let locality_to_string = function
  | No_locality -> "no-locality"
  | Locality -> "locality"
  | Task_placement -> "task-placement"

let pp fmt t =
  Format.fprintf fmt
    "{locality=%s; broadcast=%b; concurrent-fetch=%b; target-tasks=%d; \
     replication=%b; work-free=%b; eager=%b%a}"
    (locality_to_string t.locality)
    t.adaptive_broadcast t.concurrent_fetch t.target_tasks t.replication
    t.work_free t.eager_transfer
    (fun fmt -> function
      | None -> ()
      | Some f -> Format.fprintf fmt "; %a" Jade_net.Fault.pp_spec f)
    t.fault
