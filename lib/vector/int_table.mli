(** A flat open-addressing map from [int] keys to non-negative [int]
    values: interleaved key/value slots in one [int array], linear
    probing, Fibonacci hashing. No key is boxed and a lookup allocates
    nothing. The hash join's build table and the grouping table of Int
    GROUP BY keys. *)

type t

val create : int -> t
(** [create n] holds [n] keys without growing. *)

val find : t -> int -> int
(** The value stored under the key, or [-1] when it is absent. *)

val replace : t -> int -> int -> unit
(** Stores the value under the key, growing the table as needed. Raises
    [Invalid_argument] on a negative value. *)
