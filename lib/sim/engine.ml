open Effect
open Effect.Deep

(* Process names are lazy: anonymous processes carry only their spawn
   index and render "process-<n>" on demand (deadlock reports, error
   paths), so the common case pays no [Printf.sprintf]. *)
type pname = Anon of int | Named of string

let pname_string = function
  | Anon i -> "process-" ^ string_of_int i
  | Named s -> s

let no_process = Named ""

(* All-float record: the fields are stored flat, so advancing the clock
   (or stashing a pending delay) never allocates a float box — unlike a
   [mutable clock : float] field in the mixed record below. *)
type fl = { mutable clock : float; mutable pending : float }

(* --- flat event descriptors ---------------------------------------------

   A far-lane event is one immediate int word: [(arg lsl op_bits) lor op].
   [op] indexes the per-engine handler table [ops] (registered once at
   construction by the fabric/backends); [arg] is the handler's operand —
   a pooled-cell index, a processor number, whatever the handler's
   registration decided. Committing an event is two array reads and an
   indirect call: no closure environment is chased and nothing was
   allocated to carry the event.

   Opcode 0 is the escape hatch for genuinely closure-shaped events
   (timers, watchdog scans, recovery pings, the [delay] resume path): the
   closure parks in the [esc_fns] slab and the word carries its slot. The
   slab recycles slots through a free stack and clears a slot the moment
   its event fires, so a consumed escape event pins no environment. *)

let op_bits = 6

let op_mask = (1 lsl op_bits) - 1

let max_ops = 1 lsl op_bits

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
  (* Escape slab: closures for rare-path events, indexed by the slot
     carried in an opcode-0 word. A slot is cleared (and recycled) the
     moment its event fires. *)
  mutable esc_fns : (unit -> unit) array;
  mutable esc_free : int array;
  mutable esc_free_n : int;
  mutable esc_live : int;
  mutable esc_hwm : int;
  (* Now lane: FIFO ring of events scheduled at exactly the current
     clock. They fire before any later far-lane entry, interleaved with
     same-time far-lane entries by seq, so delivery order is identical to
     a single queue — but the dominant zero-delay wakeup skips the
     far lane entirely. Capacity is always a power of two. Invariant:
     every entry's implied time is [fl.clock] (the lane is drained before
     the clock advances).

     An entry is an (fn, arg) pair, both stored as [Obj.t]: firing it
     applies [fn] to [arg]. A plain thunk rides with [arg = ()] — the
     application [f ()] and [f x] have the same calling convention, so
     one lane carries both — which lets wakeups that deliver a value
     (ivar fills, mailbox sends) schedule the waiter's resume function
     directly instead of allocating a [fun () -> resume v] wrapper per
     wakeup. Zero-delay flat events ride the same way: the handler from
     [ops] is the fn and the immediate int operand the arg. *)
  mutable now_seqs : int array;
  mutable now_fns : Obj.t array;
  mutable now_args : Obj.t array;
  mutable now_head : int;
  mutable now_len : int;
  mutable live : int;
  mutable processed : int;
  mutable spawned : int;
  mutable block_seq : int;
  (* Blocked-waiter slab: parallel arrays indexed by slot, plus a
     free-slot stack. Registering/clearing a wait is a few stores into
     preallocated arrays instead of a hashtable insert/remove; the
     report (cold: deadlock only) orders live slots by token. A slot is
     free iff its token is -1. *)
  mutable bl_who : pname array;
  mutable bl_what : (unit -> string) array;
  mutable bl_tok : int array;
  mutable bl_free : int array;
  mutable bl_free_n : int;
  (* Preallocated registration closures for [delay]: the zero-delay
     resume and the [fl.pending]-delay resume. One closure each per
     engine, not per event — and one preallocated effect value wrapping
     each, so [delay] performs without building an [Await] box. *)
  mutable reg_now : (unit -> unit) -> unit;
  mutable reg_after : (unit -> unit) -> unit;
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

let no_what () = ""

let nowhere : (unit -> unit) -> unit = fun _ -> ()

let nop_fn = Obj.repr nop

let unit_arg = Obj.repr ()

let grow_now t =
  let cap = Array.length t.now_fns in
  let cap' = 2 * cap in
  let seqs = Array.make cap' 0 in
  let fns = Array.make cap' nop_fn and args = Array.make cap' unit_arg in
  for i = 0 to t.now_len - 1 do
    let j = (t.now_head + i) land (cap - 1) in
    seqs.(i) <- t.now_seqs.(j);
    fns.(i) <- t.now_fns.(j);
    args.(i) <- t.now_args.(j)
  done;
  t.now_seqs <- seqs;
  t.now_fns <- fns;
  t.now_args <- args;
  t.now_head <- 0

(* [push_call t f x] enqueues the application [f x]; [push_now t f] is
   the thunk case, [push_call t f ()]. *)
let push_call : 'a. t -> ('a -> unit) -> 'a -> unit =
 fun t f x ->
  let cap = Array.length t.now_fns in
  if t.now_len = cap then grow_now t;
  let cap = Array.length t.now_fns in
  t.seq <- t.seq + 1;
  let i = (t.now_head + t.now_len) land (cap - 1) in
  t.now_seqs.(i) <- t.seq;
  t.now_fns.(i) <- Obj.repr f;
  t.now_args.(i) <- Obj.repr x;
  t.now_len <- t.now_len + 1

let push_now t (f : unit -> unit) = push_call t f ()

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
  let bl_cap = 16 in
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
      now_fns = Array.make 64 nop_fn;
      now_args = Array.make 64 unit_arg;
      now_head = 0;
      now_len = 0;
      live = 0;
      processed = 0;
      spawned = 0;
      block_seq = 0;
      bl_who = Array.make bl_cap no_process;
      bl_what = Array.make bl_cap no_what;
      bl_tok = Array.make bl_cap (-1);
      bl_free = Array.init bl_cap (fun i -> bl_cap - 1 - i);
      bl_free_n = bl_cap;
      reg_now = nowhere;
      reg_after = nowhere;
      eff_now = Await nowhere;
      eff_after = Await nowhere;
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
  t.reg_now <- (fun resume -> push_now t resume);
  t.reg_after <-
    (fun resume ->
      let w = far_word t resume in
      push_far t (t.fl.clock +. t.fl.pending) w);
  t.eff_now <- Await t.reg_now;
  t.eff_after <- Await t.reg_after;
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

let schedule_call t f x = push_call t f x

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

(* The allocation-free counterpart of {!schedule_at} for events
   registered as opcodes: same float arithmetic, same seq assignment,
   same lane choice — only the payload is a packed word, not a closure. *)
let schedule_op_at t ~op ~arg time =
  let clock = t.fl.clock in
  let d = if time > clock then time -. clock else 0.0 in
  let tt = clock +. d in
  if tt = clock then push_call t (Array.unsafe_get t.ops op) arg
  else push_far t tt ((arg lsl op_bits) lor op)

(* --- blocked-waiter slab --- *)

let grow_blocked t =
  let cap = Array.length t.bl_tok in
  let cap' = 2 * cap in
  let who = Array.make cap' no_process in
  let what = Array.make cap' no_what in
  let tok = Array.make cap' (-1) in
  Array.blit t.bl_who 0 who 0 cap;
  Array.blit t.bl_what 0 what 0 cap;
  Array.blit t.bl_tok 0 tok 0 cap;
  t.bl_who <- who;
  t.bl_what <- what;
  t.bl_tok <- tok;
  let free = Array.make cap' 0 in
  Array.blit t.bl_free 0 free 0 t.bl_free_n;
  for i = 0 to cap - 1 do
    free.(t.bl_free_n + i) <- cap' - 1 - i
  done;
  t.bl_free <- free;
  t.bl_free_n <- t.bl_free_n + cap

let block_slot t who what =
  if t.bl_free_n = 0 then grow_blocked t;
  t.bl_free_n <- t.bl_free_n - 1;
  let slot = t.bl_free.(t.bl_free_n) in
  t.bl_who.(slot) <- who;
  t.bl_what.(slot) <- what;
  t.bl_tok.(slot) <- t.block_seq;
  t.block_seq <- t.block_seq + 1;
  slot

let unblock t slot =
  t.bl_tok.(slot) <- -1;
  t.bl_who.(slot) <- no_process;
  t.bl_what.(slot) <- no_what;
  t.bl_free.(t.bl_free_n) <- slot;
  t.bl_free_n <- t.bl_free_n + 1

let blocked_report t =
  let acc = ref [] in
  Array.iteri
    (fun slot tok -> if tok >= 0 then acc := (tok, slot) :: !acc)
    t.bl_tok;
  List.sort compare !acc
  |> List.map (fun (_, slot) ->
         (pname_string t.bl_who.(slot), t.bl_what.(slot) ()))

(* --- processes --- *)

(* Per-process suspension cell. A process has at most one pending await
   (it is suspended from the perform until its resume runs), so one cell
   — allocated once at spawn, together with one resume closure and one
   preallocated [Some handler] per await flavor — serves every
   suspension of the process's lifetime. The old per-perform closures
   (the [Some (fun k -> ...)] and its inner resume) were the engine's
   dominant allocation; awaiting is now store-and-perform. *)
type pcell = {
  mutable pc_k : Obj.t;  (** the suspended continuation *)
  mutable pc_reg : Obj.t;  (** the pending await's registration function *)
  mutable pc_what : unit -> string;  (** blocked-report label (Await_on) *)
  mutable pc_slot : int;  (** blocked-waiter slot (Await_on) *)
}

let run_process t ~name f =
  let cell =
    { pc_k = unit_arg; pc_reg = unit_arg; pc_what = no_what; pc_slot = -1 }
  in
  let resume (v : Obj.t) =
    (* A second resume raises [Continuation_already_resumed] from
       [continue] itself. *)
    continue (Obj.magic cell.pc_k : (Obj.t, unit) continuation) v
  in
  let resume_on (v : Obj.t) =
    unblock t cell.pc_slot;
    resume v
  in
  let handle (k : (Obj.t, unit) continuation) =
    cell.pc_k <- Obj.repr k;
    (Obj.obj cell.pc_reg : (Obj.t -> unit) -> unit) resume
  in
  let handle_on (k : (Obj.t, unit) continuation) =
    cell.pc_k <- Obj.repr k;
    cell.pc_slot <- block_slot t name cell.pc_what;
    (Obj.obj cell.pc_reg : (Obj.t -> unit) -> unit) resume_on
  in
  let some_handle = Obj.repr (Some handle) in
  let some_handle_on = Obj.repr (Some handle_on) in
  match_with f ()
    {
      retc = (fun () -> t.live <- t.live - 1);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          (* The returned handler is preallocated: values have a uniform
             representation, so the [Some handle] built at ['a = Obj.t]
             serves every instantiation. The effect's registration
             function is passed through the cell. *)
          match eff with
          | Await register ->
              cell.pc_reg <- Obj.repr register;
              (Obj.magic some_handle : ((a, unit) continuation -> unit) option)
          | Await_on (register, what) ->
              cell.pc_reg <- Obj.repr register;
              cell.pc_what <- what;
              (Obj.magic some_handle_on
                : ((a, unit) continuation -> unit) option)
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
        let fn = t.now_fns.(i) and arg = t.now_args.(i) in
        t.now_fns.(i) <- nop_fn;
        t.now_args.(i) <- unit_arg;
        t.now_head <- (i + 1) land (Array.length t.now_fns - 1);
        t.now_len <- t.now_len - 1;
        (Obj.obj fn : Obj.t -> unit) arg
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
