type 'a outcome = Value of 'a | Raised of exn * Printexc.raw_backtrace

let default_jobs () = Domain.recommended_domain_count ()

(* OCaml 5.1 runs at most 128 domains at once on 64-bit hosts
   ([Max_domains] in caml/domain.h), the calling domain included. *)
let max_jobs = 128

let workers ~jobs n = max 1 (min (min jobs max_jobs) n)

let run (type a) ~jobs (thunks : (unit -> a) list) : a list =
  let tasks = Array.of_list thunks in
  let n = Array.length tasks in
  if n = 0 then []
  else begin
    let jobs = workers ~jobs n in
    let results : a outcome option array = Array.make n None in
    let next = Atomic.make 0 in
    (* Workers claim indices from a shared counter; every claimed task runs
       to completion (exceptions are captured, not propagated mid-flight),
       so the result set — and therefore everything downstream — is
       independent of how tasks interleave across domains. *)
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else
          let r =
            try Value (tasks.(i) ())
            with e -> Raised (e, Printexc.get_raw_backtrace ())
          in
          results.(i) <- Some r
      done
    in
    if jobs = 1 then worker ()
    else begin
      let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      Array.iter Domain.join domains
    end;
    (* Deliver results in submission order; re-raise the lowest-index
       failure so the surfaced exception does not depend on scheduling. *)
    Array.to_list results
    |> List.map (function
         | Some (Value v) -> v
         | Some (Raised (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
  end

let map ~jobs f xs = run ~jobs (List.map (fun x () -> f x) xs)
