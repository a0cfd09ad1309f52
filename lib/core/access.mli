(** Access declarations: how a task will use a shared object.

    These correspond to Jade's access specification statements: [rd(o)]
    declares that the task will read [o], [wr(o)] that it will write it,
    and [rd(o); wr(o)] (our [Read_write]) that it will do both. *)

type mode = Read | Write | Read_write

val is_read : mode -> bool

val is_write : mode -> bool

(** [conflicts a b] is true unless both are reads. Conflicting declared
    accesses to the same object order the two tasks by their serial
    creation order. *)
val conflicts : mode -> mode -> bool
