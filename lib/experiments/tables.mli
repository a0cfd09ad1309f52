(** Regeneration of the paper's fourteen tables. Each function runs the
    required simulations (memoized in the {!Runner.t}) and returns a
    rendered-ready table. *)

(** [table r n] regenerates paper table [n] (1..14). Raises
    [Invalid_argument] for other numbers. *)
val table : Runner.t -> int -> Report.table
