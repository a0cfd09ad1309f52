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

(* --- flat event descriptors ---------------------------------------------

   A far-lane event is one immediate int word: [(arg lsl op_bits) lor op].
   [op] indexes the per-engine handler table [ops] (the fabric registers
   its delivery handler once at construction); [arg] is the handler's
   operand — for the fabric, a pooled-cell index. Committing an event is
   two array reads and an indirect call: nothing was allocated to carry
   the event.

   Opcode 0 carries closure-shaped events (every [delay] resume, timers,
   watchdog scans, recovery pings): the closure parks in the [esc_fns]
   slab and the word carries its slot. This is a busy path — over half
   of a regeneration's events — but a small population: the slab
   recycles slots through a free stack and clears a slot the moment its
   event fires, so a consumed escape event pins no environment. *)

let op_bits = 6

let op_mask = (1 lsl op_bits) - 1

let max_ops = 1 lsl op_bits

(* Blocked-waiter registry, keyed by each wait's token (unique, in
   the order the waits began). *)
module Tokens = Hashtbl.Make (Int)

type t = {
  events : Heap.t;  (** the far lane, keyed by (time, seq) *)
  mutable far_hwm : int;  (** peak far-lane population *)
  fl : fl;
  mutable seq : int;
  (* Flat-dispatch handler table, indexed by opcode. Slot 0 is the escape
     handler; the rest are claimed by [register_op] at construction time.
     Handlers live for the engine's lifetime, so a descriptor word never
     dangles. *)
  ops : (int -> unit) array;
  mutable ops_n : int;
  (* Escape slab: closures indexed by the slot carried in an opcode-0
     word. A slot is cleared (and recycled) the moment its event fires. *)
  mutable esc_fns : (unit -> unit) array;
  mutable esc_free : int array;
  mutable esc_free_n : int;
  mutable esc_live : int;
  mutable esc_hwm : int;
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
     as preallocated effect values, so [delay] performs without building
     an [Await] box. *)
  mutable eff_now : unit Effect.t;
  mutable eff_after : unit Effect.t;
}

type _ Effect.t +=
  | Await : (('a -> unit) -> unit) -> 'a Effect.t
  | Await_on : (('a -> unit) -> unit) * (unit -> string) -> 'a Effect.t

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

(* Far-lane push of a descriptor word at a time strictly after now. A
   non-finite time (an infinite delay, or a sum of delays that overflowed)
   would move the clock to +inf or NaN, where no later time is
   meaningful; refuse it here. *)
let push_far t time w =
  if not (Float.is_finite time) then
    invalid_arg "Engine: non-finite event time";
  t.seq <- t.seq + 1;
  Heap.push t.events ~time ~seq:t.seq w;
  let n = Heap.length t.events in
  if n > t.far_hwm then t.far_hwm <- n

(* --- escape slab --- *)

let grow_esc t =
  let cap = Array.length t.esc_fns in
  let cap' = 2 * cap in
  let fns = Array.make cap' nop in
  Array.blit t.esc_fns 0 fns 0 cap;
  t.esc_fns <- fns;
  let free = Array.make cap' 0 in
  Array.blit t.esc_free 0 free 0 t.esc_free_n;
  for i = 0 to cap - 1 do
    free.(t.esc_free_n + i) <- cap' - 1 - i
  done;
  t.esc_free <- free;
  t.esc_free_n <- t.esc_free_n + cap

let esc_put t f =
  if t.esc_free_n = 0 then grow_esc t;
  t.esc_free_n <- t.esc_free_n - 1;
  let slot = t.esc_free.(t.esc_free_n) in
  t.esc_fns.(slot) <- f;
  t.esc_live <- t.esc_live + 1;
  if t.esc_live > t.esc_hwm then t.esc_hwm <- t.esc_live;
  slot

(* Descriptor word for a closure-shaped event: opcode 0, operand the
   slab slot. [esc_put] touches no engine ordering state, so building the
   word before the seq increment of the push that carries it is safe. *)
let far_word t f = esc_put t f lsl op_bits

(* Commit one flat descriptor: decode and dispatch. [op] is always a
   registered opcode by construction (words are only built from
   [register_op] results or the escape path), so the reads are unsafe. *)
let exec_word t w = (Array.unsafe_get t.ops (w land op_mask)) (w asr op_bits)

let create () =
  let esc_cap = 16 in
  let t =
    {
      events = Heap.create ();
      far_hwm = 0;
      fl = { clock = 0.0; pending = 0.0 };
      seq = 0;
      ops = Array.make max_ops (fun (_ : int) -> ());
      ops_n = 1;
      esc_fns = Array.make esc_cap nop;
      esc_free = Array.init esc_cap (fun i -> esc_cap - 1 - i);
      esc_free_n = esc_cap;
      esc_live = 0;
      esc_hwm = 0;
      now_seqs = Array.make 64 0;
      now_fns = Array.make 64 nop;
      now_head = 0;
      now_len = 0;
      live = 0;
      processed = 0;
      spawned = 0;
      block_seq = 0;
      blocked = Tokens.create 16;
      eff_now = Await ignore;
      eff_after = Await ignore;
    }
  in
  (* Opcode 0: fire a parked closure, recycling its slot first so the
     closure can re-arm itself (timers) and a consumed slot pins no
     environment. *)
  t.ops.(0) <-
    (fun slot ->
      let f = t.esc_fns.(slot) in
      t.esc_fns.(slot) <- nop;
      t.esc_free.(t.esc_free_n) <- slot;
      t.esc_free_n <- t.esc_free_n + 1;
      t.esc_live <- t.esc_live - 1;
      f ());
  t.eff_now <- Await (fun resume -> push_now t resume);
  t.eff_after <-
    Await
      (fun resume ->
        let w = far_word t resume in
        push_far t (t.fl.clock +. t.fl.pending) w);
  t

let now t = t.fl.clock

let register_op t f =
  if t.ops_n >= max_ops then
    invalid_arg "Engine.register_op: opcode table full";
  let op = t.ops_n in
  t.ops_n <- t.ops_n + 1;
  t.ops.(op) <- f;
  op

let schedule_now t f = push_now t f

let schedule_after t delay f =
  if not (delay >= 0.0) then
    invalid_arg "Engine.schedule_after: negative or NaN delay";
  let time = t.fl.clock +. delay in
  if time = t.fl.clock then push_now t f else push_far t time (far_word t f)

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
  if tt = clock then push_now t f else push_far t tt (far_word t f)

(* The counterpart of {!schedule_at} for events registered as opcodes:
   same float arithmetic, same seq assignment, same lane choice — only
   the far-lane payload is a packed word, not a closure, so a timed flat
   event allocates nothing. *)
let schedule_op_at t ~op ~arg time =
  let clock = t.fl.clock in
  let d = if time > clock then time -. clock else 0.0 in
  let tt = clock +. d in
  if tt = clock then begin
    let handler = Array.unsafe_get t.ops op in
    push_now t (fun () -> handler arg)
  end
  else push_far t tt ((arg lsl op_bits) lor op)

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
        (fun (type a) (eff : a Effect.t) ->
          match eff with
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
      if take_far then exec_word t (Heap.pop_min_value t.events)
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
      let w = Heap.pop_min_value t.events in
      t.processed <- t.processed + 1;
      exec_word t w
    end
    else continue_run := false
  done;
  t.processed - n0

let live_processes t = t.live

let events_processed t = t.processed

(* --- occupancy counters (observability) --- *)

let far_lane_high_water t = t.far_hwm

let now_lane_capacity t = Array.length t.now_fns

let escape_high_water t = t.esc_hwm
