(** Message tags, as a closed type.

    Tags used to be free-form strings threaded through the fabric, the
    fault injector and the protocol. Every per-tag ledger then had to be a
    string-keyed hashtable consulted on the per-message hot path, and every
    send site could invent (or typo) a tag the rest of the system had never
    heard of. The protocol has exactly ten message kinds, so the tag is a
    closed enumeration: ledgers become flat arrays indexed by {!index}, tag
    equality is a constant-constructor compare, and {!to_string} renders
    the wire name only at the report/metrics edge. *)

type t =
  | Assign  (** main -> executor: task assignment *)
  | Request  (** executor -> owner: object fetch request *)
  | Obj  (** owner -> executor: object data reply *)
  | Bcast  (** owner -> everyone: adaptive broadcast *)
  | Eager  (** owner -> prior consumers: update-protocol push *)
  | Done  (** executor -> main: task completion *)
  | Ack  (** receiver -> owner: pushed-copy acknowledgement *)
  | Ping  (** supervisor -> worker: heartbeat probe (crash detection) *)
  | Pong  (** worker -> supervisor: heartbeat reply *)
  | Reassign  (** supervisor -> survivors: ownership transfer notice *)

(** Number of tags; the length of every per-tag ledger array. *)
let count = 10

(** Dense index in [0, count): constant constructors are already small
    ints, so this is a bounds-free array subscript for the ledgers. *)
let index = function
  | Assign -> 0
  | Request -> 1
  | Obj -> 2
  | Bcast -> 3
  | Eager -> 4
  | Done -> 5
  | Ack -> 6
  | Ping -> 7
  | Pong -> 8
  | Reassign -> 9

(** Wire name, matching the historical string tags (reports, error
    messages, scripted-drop rendering). *)
let to_string = function
  | Assign -> "assign"
  | Request -> "request"
  | Obj -> "object"
  | Bcast -> "bcast"
  | Eager -> "eager"
  | Done -> "done"
  | Ack -> "ack"
  | Ping -> "ping"
  | Pong -> "pong"
  | Reassign -> "reassign"

(** Every tag, in {!index} order. *)
let all = [| Assign; Request; Obj; Bcast; Eager; Done; Ack; Ping; Pong; Reassign |]
