(** Write-once synchronization cells for simulation processes.

    An ivar starts empty; {!fill} sets its value exactly once and wakes all
    blocked readers (at the fill's virtual time, in blocking order). *)

type 'a t

(** [create ?name ?name_fn ()] makes an empty ivar. The name (default
    ["ivar"]) identifies it in "already filled" errors and in the
    engine's blocked-waiter registry while a process is blocked reading
    it. [name_fn] supplies the name lazily — it is forced only when a
    report or error actually needs the string, so hot allocation sites
    (e.g. one ivar per remote fetch) skip the [sprintf]. When both are
    given, [name_fn] wins. *)
val create : ?name:string -> ?name_fn:(unit -> string) -> unit -> 'a t

val name : 'a t -> string

(** Raises [Invalid_argument] (naming the ivar) if already filled. *)
val fill : Engine.t -> 'a t -> 'a -> unit

(** Blocks the calling process until the ivar is filled. Returns
    immediately if it already is. While blocked, the wait is visible in
    {!Engine.blocked_report} under this ivar's name. *)
val read : Engine.t -> 'a t -> 'a

val is_full : 'a t -> bool
