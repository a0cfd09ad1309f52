type 'a state = Empty | Full of 'a

type 'a t = {
  name : unit -> string;
  mutable state : 'a state;
  waiters : ('a -> unit) Deque.t;
  wtr : 'a Engine.waiter;
      (** prebuilt suspension point: every blocking read performs it
          instead of building an effect value per call *)
}

let default_name () = "ivar"

let create ?name ?name_fn () =
  let name =
    match (name_fn, name) with
    | Some f, _ -> f
    | None, Some s -> fun () -> s
    | None, None -> default_name
  in
  let waiters = Deque.create () in
  let wtr =
    Engine.waiter ~on:name (fun resume -> Deque.push_back waiters resume)
  in
  { name; state = Empty; waiters; wtr }

let name t = t.name ()

let fill eng t v =
  match t.state with
  | Full _ -> invalid_arg ("Ivar.fill: already filled: " ^ t.name ())
  | Empty ->
      t.state <- Full v;
      (* Waiters resume in registration order, each as its own event. *)
      while not (Deque.is_empty t.waiters) do
        let resume = Deque.pop_front_exn t.waiters in
        Engine.schedule_now eng (fun () -> resume v)
      done

let read eng t =
  match t.state with Full v -> v | Empty -> Engine.wait eng t.wtr

let is_full t = match t.state with Full _ -> true | Empty -> false
