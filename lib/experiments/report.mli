(** Table/series rendering for the experiment harness: aligned ASCII
    tables, one per paper table or figure. *)

type table = {
  id : string;  (** "Table 7", "Figure 12", ... *)
  title : string;
  columns : string list;  (** column headers after the row label *)
  rows : (string * float option list) list;
      (** row label and one value per column; [None] renders as "-" (the
          paper has a few missing cells) *)
  unit_label : string;  (** e.g. "seconds", "%", "Mbytes/s" *)
}

(** Sentinel value marking a summary fabricated during [Runner.parallel]'s
    planning pass. NaN-free so it cannot propagate silently through
    arithmetic into a plausible-looking cell, and negative so guards on
    nonnegative quantities stay well-defined. {!render}, {!to_csv} and
    {!render_comparison} assert that no cell carries it: planning-pass
    summaries must never be rendered — collect tables inside
    [Runner.parallel], render outside. *)
val poison : float

(** Integer companion of {!poison}, for the count fields of a poisoned
    summary; cells equal to [float_of_int poison_int] trip the same
    assertion. *)
val poison_int : int

(** [fixed n v] is [Printf.sprintf "%.*f" n v], byte for byte, for [n]
    in 0..3 ([Invalid_argument] otherwise). Finite values below 1e15 in
    magnitude are formatted with exact integer arithmetic on the
    double's significand, rounding ties to even as glibc does; larger
    and non-finite ones by the C formatter. *)
val fixed : int -> float -> string

(** Aligned text: a title line, the column headers, then one row per
    series, cells right-aligned two spaces apart. A value prints as
    [fixed 0] from 1000 up, [fixed 2] from 10 and [fixed 3] below, by
    magnitude; a missing one as "-". *)
val render : table -> string

(** Render the run-vs-paper comparison side by side (same shape tables). *)
val render_comparison : ours:table -> paper:table option -> string

(** Comma-separated values: header row of column labels, then one row per
    series (empty cells for missing values). For feeding plots. *)
val to_csv : table -> string
