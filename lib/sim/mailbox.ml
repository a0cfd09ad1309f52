type 'a t = {
  name : string;
  items : 'a Deque.t;
  waiters : ('a -> unit) Deque.t;
  wtr : 'a Engine.waiter;
      (** prebuilt suspension point, shared by every blocking receive *)
}

let create ?(name = "mailbox") () =
  let waiters = Deque.create () in
  {
    name;
    items = Deque.create ();
    waiters;
    wtr =
      Engine.waiter
        ~on:(fun () -> name)
        (fun resume -> Deque.push_back waiters resume);
  }

let name t = t.name

let send eng t v =
  if Deque.is_empty t.waiters then Deque.push_back t.items v
  else begin
    let resume = Deque.pop_front_exn t.waiters in
    Engine.schedule_now eng (fun () -> resume v)
  end

let recv eng t =
  if Deque.is_empty t.items then Engine.wait eng t.wtr
  else Deque.pop_front_exn t.items

let try_recv t = Deque.pop_front t.items

let length t = Deque.length t.items
