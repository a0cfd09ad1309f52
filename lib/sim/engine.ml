open Effect
open Effect.Deep

(* Process names are lazy: anonymous processes carry only their spawn
   index and render "process-<n>" on demand (deadlock reports, error
   paths), so the common case pays no [Printf.sprintf]. *)
type pname = Anon of int | Named of string

let pname_string = function
  | Anon i -> "process-" ^ string_of_int i
  | Named s -> s

(* All-float record: the fields are stored flat, so advancing the clock
   (or stashing a pending delay) never allocates a float box — unlike a
   [mutable clock : float] field in the mixed record below. *)
type fl = { mutable clock : float; mutable pending : float }

(* Blocked-waiter registry, keyed by each wait's token (unique, in
   the order the waits began). *)
module Tokens = Hashtbl.Make (Int)

type t = {
  events : Heap.t;  (** the far lane: slab slots keyed by (time, seq) *)
  mutable far_hwm : int;  (** peak far-lane population *)
  fl : fl;
  mutable seq : int;
  (* The slab: every far-lane event is a closure parked here, and the
     heap carries its slot. Slots recycle through a free stack, and a
     slot is cleared the moment its event fires, so a consumed event pins
     no environment. *)
  mutable slab : (unit -> unit) array;
  mutable free : int array;
  mutable free_n : int;
  (* Now lane: FIFO ring of thunks scheduled at exactly the current
     clock. They fire before any later far-lane entry, interleaved with
     same-time far-lane entries by seq, so delivery order is identical to
     a single queue — but the dominant zero-delay wakeup skips the
     far lane entirely. Capacity is always a power of two. Invariant:
     every entry's implied time is [fl.clock] (the lane is drained before
     the clock advances). *)
  mutable now_seqs : int array;
  mutable now_fns : (unit -> unit) array;
  mutable now_head : int;
  mutable now_len : int;
  mutable live : int;
  mutable processed : int;
  mutable spawned : int;
  mutable block_seq : int;
  blocked : (pname * (unit -> string)) Tokens.t;
  (* [delay]'s two suspensions — resume now, resume after [fl.pending] —
     as preallocated effect values carrying their own preallocated
     handler, so [delay] performs without building an effect box and the
     process's [effc] returns the handler without building one either. *)
  mutable eff_now : unit Effect.t;
  mutable eff_after : unit Effect.t;
  (* Waits that decided nothing and skipped the far lane: poll ticks
     taken in place ({!poll}), lane timers fired and dropped ({!arm}). *)
  mutable ticks_in_place : int;
  mutable timers_fired : int;
  mutable timers_dropped : int;
  mutable ops : (int -> unit) array;  (** {!register_op}'s handlers *)
}

type _ Effect.t +=
  | Await : (('a -> unit) -> unit) -> 'a Effect.t
  | Await_on : (('a -> unit) -> unit) * (unit -> string) -> 'a Effect.t
  | Sleep : ((unit, unit) continuation -> unit) option -> unit Effect.t

(* A waiter is a prebuilt effect value: suspension points that fire many
   times (ivar reads, mailbox receives) build it once and [wait] performs
   it with no per-call constructor allocation. *)
type 'a waiter = 'a Effect.t

let waiter ?on register =
  match on with
  | None -> Await register
  | Some what -> Await_on (register, what)

let nop () = ()

let grow_now t =
  let cap = Array.length t.now_fns in
  let seqs = Array.make (2 * cap) 0 and fns = Array.make (2 * cap) nop in
  for i = 0 to t.now_len - 1 do
    let j = (t.now_head + i) land (cap - 1) in
    seqs.(i) <- t.now_seqs.(j);
    fns.(i) <- t.now_fns.(j)
  done;
  t.now_seqs <- seqs;
  t.now_fns <- fns;
  t.now_head <- 0

let push_now t f =
  if t.now_len = Array.length t.now_fns then grow_now t;
  t.seq <- t.seq + 1;
  let i = (t.now_head + t.now_len) land (Array.length t.now_fns - 1) in
  t.now_seqs.(i) <- t.seq;
  t.now_fns.(i) <- f;
  t.now_len <- t.now_len + 1

(* --- the slab --- *)

(* Called with every slot taken: double the slab, the new slots free. *)
let grow_slab t =
  let cap = Array.length t.slab in
  let slab = Array.make (2 * cap) nop in
  Array.blit t.slab 0 slab 0 cap;
  t.slab <- slab;
  t.free <- Array.init (2 * cap) (fun i -> (2 * cap) - 1 - i);
  t.free_n <- cap

(* Far-lane push of [f] under the key [(time, seq)]: [f] takes a free
   slot, and the heap carries the slot. *)
let push_keyed t time seq f =
  if t.free_n = 0 then grow_slab t;
  t.free_n <- t.free_n - 1;
  let slot = t.free.(t.free_n) in
  t.slab.(slot) <- f;
  Heap.push t.events ~time ~seq slot;
  let n = Heap.length t.events in
  if n > t.far_hwm then t.far_hwm <- n

(* Fire the event parked at [slot], recycling the slot first so the
   closure can re-arm itself (timers) and a consumed slot pins no
   environment. *)
let fire_slot t slot =
  let f = t.slab.(slot) in
  t.slab.(slot) <- nop;
  t.free.(t.free_n) <- slot;
  t.free_n <- t.free_n + 1;
  f ()

(* Far-lane push at a time strictly after now. A non-finite time (an
   infinite delay, or a sum of delays that overflowed) would move the
   clock to +inf or NaN, where no later time is meaningful; refuse it
   here. *)
let push_far t time f =
  if not (Float.is_finite time) then
    invalid_arg "Engine: non-finite event time";
  t.seq <- t.seq + 1;
  push_keyed t time t.seq f

let create () =
  let t =
    {
      events = Heap.create ();
      far_hwm = 0;
      fl = { clock = 0.0; pending = 0.0 };
      seq = 0;
      slab = Array.make 16 nop;
      free = Array.init 16 (fun i -> 15 - i);
      free_n = 16;
      now_seqs = Array.make 64 0;
      now_fns = Array.make 64 nop;
      now_head = 0;
      now_len = 0;
      live = 0;
      processed = 0;
      spawned = 0;
      block_seq = 0;
      blocked = Tokens.create 16;
      eff_now = Sleep None;
      eff_after = Sleep None;
      ticks_in_place = 0;
      timers_fired = 0;
      timers_dropped = 0;
      ops = [||];
    }
  in
  t.eff_now <- Sleep (Some (fun k -> push_now t (fun () -> continue k ())));
  t.eff_after <-
    Sleep
      (Some
         (fun k ->
           push_far t (t.fl.clock +. t.fl.pending) (fun () -> continue k ())));
  t

let now t = t.fl.clock

let schedule_now t f = push_now t f

let schedule_after t delay f =
  if not (delay >= 0.0) then
    invalid_arg "Engine.schedule_after: negative or NaN delay";
  let time = t.fl.clock +. delay in
  if time = t.fl.clock then push_now t f else push_far t time f

let count_events t n = t.processed <- t.processed + n

(* Absolute-time scheduling for clients that computed a target instant
   (the fabric's delivery times). The arithmetic deliberately goes
   through a delay — [clock +. (time -. clock)] is not [time] in float —
   because that is the arithmetic the fabric has always performed;
   keeping it bit-for-bit preserves regeneration digests. *)
let schedule_at t time f =
  let clock = t.fl.clock in
  let d = if time > clock then time -. clock else 0.0 in
  let tt = clock +. d in
  if tt = clock then push_now t f else push_far t tt f

(* A handler table over [schedule_at], kept only because the benchmark
   probe ([perfbench/suite.ml]) calls it. Registration is rare, so the
   table grows by one. *)
let register_op t f =
  t.ops <- Array.append t.ops [| f |];
  Array.length t.ops - 1

let schedule_op_at t ~op ~arg time =
  if op < 0 || op >= Array.length t.ops then
    invalid_arg "Engine.schedule_op_at: unregistered op";
  let f = t.ops.(op) in
  schedule_at t time (fun () -> f arg)

(* --- waits that decide nothing ------------------------------------------

   A tick whose condition is false only schedules the next tick. When
   that next tick is provably the next event — the now lane is empty and
   its time is strictly below the far-lane minimum, which bounds every
   pending event (lane entries included) — the heap round trip would pop
   it straight back. So take it here: advance the clock, the seq and the
   event count exactly as the push and the pop would, and evaluate it.
   A tie with the far-lane minimum is not taken: the pending event has
   the lower seq and fires first. *)
let poll t period cond k =
  let rec tick () =
    if cond () then k ()
    else begin
      let clock = t.fl.clock in
      let next = clock +. period in
      if
        t.now_len = 0 && next > clock
        && (if Heap.is_empty t.events then Float.is_finite next
            else next < Heap.min_time t.events)
      then begin
        t.seq <- t.seq + 1;
        t.fl.clock <- next;
        t.processed <- t.processed + 1;
        t.ticks_in_place <- t.ticks_in_place + 1;
        tick ()
      end
      else schedule_after t period tick
    end
  in
  schedule_after t period tick

(* A fixed-delay lane: timers that all wait [l_after], in arming order.
   Each entry takes its time (clock at arming + [l_after]) and its seq
   when it is armed; float addition is monotone and the clock never goes
   back, so arming order is (time, seq) order and only the head needs a
   far-lane slot. Every other entry is later than its head, so the
   far-lane minimum still bounds every pending event. *)
type 'a entry = { e_at : float; e_seq : int; e_item : 'a }

type 'a lane = {
  l_eng : t;
  l_after : float;
  l_live : 'a -> bool;
  l_fire : 'a -> unit;
  l_entries : 'a entry Deque.t;
  l_head_ev : unit -> unit;
}

(* The head's far-lane event, under the key it reserved when armed. *)
let push_head l =
  let e = Deque.first l.l_entries in
  push_keyed l.l_eng e.e_at e.e_seq l.l_head_ev

(* The head fired. Entries behind it that are already dead would each
   fire later as an event that does nothing: liveness is monotone, so
   they are dead then too. Drop them now, counted as the events they
   would have been, then give the next live entry its slot. *)
let fire_head l =
  let t = l.l_eng and q = l.l_entries in
  let x = (Deque.pop_front_exn q).e_item in
  t.timers_fired <- t.timers_fired + 1;
  let n = Deque.length q in
  while (not (Deque.is_empty q)) && not (l.l_live (Deque.first q).e_item) do
    ignore (Deque.pop_front_exn q)
  done;
  let dropped = n - Deque.length q in
  t.processed <- t.processed + dropped;
  t.timers_dropped <- t.timers_dropped + dropped;
  if not (Deque.is_empty q) then push_head l;
  if l.l_live x then l.l_fire x

let lane t after ~live ~fire =
  if not (after >= 0.0) then invalid_arg "Engine.lane: negative or NaN delay";
  let rec l =
    {
      l_eng = t;
      l_after = after;
      l_live = live;
      l_fire = fire;
      l_entries = Deque.create ();
      l_head_ev = (fun () -> fire_head l);
    }
  in
  l

(* An entry due now (a zero or sub-ulp delay) also waits in the lane:
   a far-lane event at the current time fires in the same (time, seq)
   place as the now-lane event [schedule_after] would push, since [run]
   interleaves the two by seq. *)
let arm l x =
  let t = l.l_eng in
  let time = t.fl.clock +. l.l_after in
  if not (Float.is_finite time) then
    invalid_arg "Engine: non-finite event time";
  t.seq <- t.seq + 1;
  Deque.push_back l.l_entries { e_at = time; e_seq = t.seq; e_item = x };
  if Deque.length l.l_entries = 1 then push_head l

let blocked_report t =
  Tokens.fold (fun tok entry acc -> (tok, entry) :: acc) t.blocked []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map (fun (_, (who, what)) -> (pname_string who, what ()))

(* --- processes --- *)

(* Each suspension's handler captures its own continuation in the resume
   function it registers, so a resume called a second time — even after
   the process has suspended again — raises [Continuation_already_resumed]
   from [continue] instead of reaching a newer wait. A labelled wait also
   holds its own registry token, so such a resume cannot clear another
   wait's entry either. *)
let run_process t ~name f =
  match_with f ()
    {
      retc = (fun () -> t.live <- t.live - 1);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with
          | Sleep handler -> handler
          | Await register ->
              Some (fun (k : (a, unit) continuation) -> register (continue k))
          | Await_on (register, what) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let tok = t.block_seq in
                  t.block_seq <- tok + 1;
                  Tokens.add t.blocked tok (name, what);
                  register (fun v ->
                      Tokens.remove t.blocked tok;
                      continue k v))
          | _ -> None);
    }

let spawn ?name t f =
  t.live <- t.live + 1;
  t.spawned <- t.spawned + 1;
  let pn = match name with Some n -> Named n | None -> Anon t.spawned in
  push_now t (fun () -> run_process t ~name:pn f)

let await ?on (_ : t) register =
  match on with
  | None -> perform (Await register)
  | Some what -> perform (Await_on (register, what))

let wait (_ : t) (w : 'a waiter) : 'a = perform w

let delay t d =
  if not (d >= 0.0) then invalid_arg "Engine.delay: negative or NaN delay";
  (* Even a zero delay goes through the queue so that same-time
     activities interleave deterministically in scheduling order. *)
  if d = 0.0 then perform t.eff_now
  else begin
    t.fl.pending <- d;
    perform t.eff_after
  end

(* --- run loop --- *)

let run t =
  let n0 = t.processed in
  let continue_run = ref true in
  while !continue_run do
    if t.now_len > 0 then begin
      (* Same-time far-lane entries (scheduled before the clock reached
         this instant, or via sub-ulp positive delays) interleave with
         the now lane by seq. *)
      let take_far =
        (not (Heap.is_empty t.events))
        && Heap.min_time t.events = t.fl.clock
        && Heap.min_seq t.events < t.now_seqs.(t.now_head)
      in
      t.processed <- t.processed + 1;
      if take_far then fire_slot t (Heap.pop_min_value t.events)
      else begin
        let i = t.now_head in
        let f = t.now_fns.(i) in
        t.now_fns.(i) <- nop;
        t.now_head <- (i + 1) land (Array.length t.now_fns - 1);
        t.now_len <- t.now_len - 1;
        f ()
      end
    end
    else if not (Heap.is_empty t.events) then begin
      let time = Heap.min_time t.events in
      if time < t.fl.clock then invalid_arg "Engine.run: time went backwards";
      t.fl.clock <- time;
      let slot = Heap.pop_min_value t.events in
      t.processed <- t.processed + 1;
      fire_slot t slot
    end
    else continue_run := false
  done;
  t.processed - n0

let live_processes t = t.live

let events_processed t = t.processed

(* --- occupancy counters (observability) --- *)

let far_lane_high_water t = t.far_hwm

let now_lane_capacity t = Array.length t.now_fns

let ticks_in_place t = t.ticks_in_place

let timers_fired t = t.timers_fired

let timers_dropped t = t.timers_dropped
