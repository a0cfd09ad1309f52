(** Sparse matrices in compressed sparse column form. Only what the Panel
    Cholesky application and its verification need: construction from
    triplets, symmetric structure queries, dense conversion, matvec. *)

type t = {
  n : int;  (** square dimension *)
  colptr : int array;  (** length n+1 *)
  rowind : int array;  (** row indices, sorted within each column *)
  values : float array;
}

(** [of_triplets n entries] builds a matrix from [(row, col, value)]
    triplets; duplicate entries are summed. *)
val of_triplets : int -> (int * int * float) list -> t

val nnz : t -> int

(** [get t i j] is the (i,j) entry (0.0 when structurally absent). *)
val get : t -> int -> int -> float

(** Iterate over column [j]: [f row value]. *)
val iter_col : t -> int -> (int -> float -> unit) -> unit

val to_dense : t -> float array array

val mul_vec : t -> float array -> float array

val is_symmetric : ?tol:float -> t -> bool
