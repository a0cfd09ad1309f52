(** Elimination tree of a symmetric matrix (Liu's algorithm) and a
    postordering. The elimination tree drives the symbolic factorization:
    the structure of L's column j feeds into its parent's column. *)

(** [parents a] is the elimination-tree parent of each column
    (-1 for roots). [a] must be symmetric. *)
val parents : Csc.t -> int array

(** [postorder parents] is a permutation of [0..n-1] in which every node
    appears after all of its descendants. *)
val postorder : int array -> int array
