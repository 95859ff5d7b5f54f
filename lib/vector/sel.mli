(** Selection vectors (paper §5.1, citing MonetDB/X100).

    A selection vector lists the qualifying row indices of a chunk in
    ascending order. Filters produce selection vectors instead of copying
    data; downstream operators either honour them (aggregation kernels) or
    materialize them ({!Kernels.gather}). In RAW they additionally feed late
    (shredded) scan operators: the indices select which raw-file positions
    are ever read at all. *)

type t

val of_array : int array -> t
(** Takes ownership of the array. Indices must be ascending; this is checked
    (raises [Invalid_argument]) since downstream raw-file navigation relies
    on monotone positions. *)

val of_array_unchecked : int array -> t
val all : int -> t
(** Identity selection [0..n-1]. *)

val range : int -> int -> int array
(** [range start len] is [[|start; start+1; ...; start+len-1|]]: the row
    ids of a contiguous run, filled by one loop. Raises [Invalid_argument]
    when [len < 0]. *)

val empty : t

val length : t -> int
val get : t -> int -> int
val to_array : t -> int array
(** Returns the underlying array; do not mutate. *)

val iter : (int -> unit) -> t -> unit
val compose : t -> t -> t
(** [compose outer inner]: if [inner] selects rows of a chunk and [outer]
    selects rows of the *selected* view, the result selects rows of the
    original chunk: [result.(k) = inner.(outer.(k))]. *)

val of_bool_mask : bool array -> t
val complement : t -> int -> t
(** [complement s n] selects the indices in [0..n-1] not in [s]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
