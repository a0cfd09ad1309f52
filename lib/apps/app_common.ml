type kind = Shm | Mp

let rr ~nprocs i = i mod nprocs

let rr_skip_main ~nprocs i = if nprocs <= 1 then 0 else 1 + (i mod (nprocs - 1))

let home ~kind mapped = match kind with Shm -> mapped | Mp -> 0

let copy_name = Jade.Names.memo (fun (name, i) -> Printf.sprintf "%s.%d" name i)

let reduce_name =
  Jade.Names.memo (fun (name, i, g) -> Printf.sprintf "%s.reduce.%d+%d" name i g)

type replicated = { copies : float array Jade.Shared.t array; len : int }

let replicate rt ~name ~copies ~len =
  let nprocs = Jade.Runtime.nprocs rt in
  let make i =
    (* Deferred: zero-filling every copy on every run is a measurable
       slice of runs that skip kernels, which never read the data. *)
    Jade.Runtime.create_object_deferred rt
      ~home:(rr ~nprocs i)
      ~name:(copy_name (name, i))
      ~size:(8 * len)
      (fun () -> Array.make len 0.0)
  in
  { copies = Array.init copies make; len }

let tree_reduce rt r ~name =
  let ncopies = Array.length r.copies in
  let gap = ref 1 in
  while !gap < ncopies do
    let g = !gap in
    let i = ref 0 in
    while !i + g < ncopies do
      let dst = r.copies.(!i) and src = r.copies.(!i + g) in
      Jade.Runtime.withonly rt
        ~name:(reduce_name (name, !i, g))
        ~work:(float_of_int r.len)
        ~accesses:(fun s ->
          Jade.Spec.rw s dst;
          Jade.Spec.rd s src)
        (fun env ->
          let d = Jade.Runtime.wr env dst and s = Jade.Runtime.rd env src in
          (* In-bounds: every copy is a fresh [Array.make len 0.0] and
             [r.len] is that same [len]; this combine loop runs for every
             reduction round of every iteration, so the checks matter. *)
          for k = 0 to r.len - 1 do
            Array.unsafe_set d k (Array.unsafe_get d k +. Array.unsafe_get s k)
          done);
      i := !i + (2 * g)
    done;
    gap := 2 * g
  done

let comprehensive r = r.copies.(0)
