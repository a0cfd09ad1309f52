(** Wire protocol of the message-passing implementation: one constructor
    per message kind ({!Jade_net.Tag}), each carrying only the fields that
    kind uses. Messages are immutable, so a body may be shared — by a
    fault-duplicated copy, or by the owner keeping a push for
    retransmission — and kept by a handler beyond its delivery. *)

type t =
  | Assign of Taskrec.t  (** the task to run *)
  | Request of {
      meta : Meta.t;
      version : int;
      requester : int;
      sent_at : float;
    }
  | Obj of { meta : Meta.t; version : int; sent_at : float }
      (** fetch reply; [sent_at] is the request's, so the recorded latency
          spans the whole round trip *)
  | Bcast of { meta : Meta.t; version : int; sent_at : float }
  | Eager of { meta : Meta.t; version : int; sent_at : float }
  | Done of { task : Taskrec.t; proc : int }  (** [proc] ran [task] *)
  | Ack of { id : int; version : int; from : int }
      (** object [id] at [version] landed on [from] *)
  | Ping of int  (** the probed node *)
  | Pong of int  (** the replying node *)
  | Reassign of { meta : Meta.t; version : int; owner : int }
      (** [owner] is the new owner *)
