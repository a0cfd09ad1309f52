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
