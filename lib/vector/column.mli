(** Typed columns: the unit of data the engine operates on.

    A column is a monomorphic array plus an optional validity bitmap that
    marks SQL NULLs. (Which rows of a cached column shred were ever
    loaded from the raw file is the shred pool's business — see
    {!Raw_core.Shred_pool} — not the bitmap's.) *)

type data =
  | Int_data of int array
  | Float_data of float array
  | Bool_data of bool array
  | String_data of string array

type t

val make : ?valid:Bytes.t -> data -> t
(** [valid] holds one byte per row, [1] = valid. If omitted, all rows are
    valid. Raises [Invalid_argument] if the bitmap length mismatches. *)

val data : t -> data
val length : t -> int
val dtype : t -> Dtype.t

val byte_size : t -> int
(** Estimated heap footprint in bytes (8 bytes per numeric element, payload
    bytes per string, plus the validity bitmap) — the currency of
    {!Raw_storage.Mem_budget} accounting. *)

(** {1 Constructors} *)

val of_int_array : int array -> t
val of_float_array : float array -> t
val of_bool_array : bool array -> t
val of_string_array : string array -> t
val of_values : Dtype.t -> Value.t list -> t
val const : Dtype.t -> Value.t -> int -> t
(** [const dt v n]: [n] copies of [v] (an Int [v] widens to a Float
    column); all NULL when [v] is [Null]. *)

(** {1 Access} *)

val get : t -> int -> Value.t
(** Dynamically-typed access; [Null] when the row is invalid. Bounds-checked.
    For hot paths use the typed arrays via {!data} instead. *)

val validity : t -> Bytes.t option
(** The bitmap itself, [None] when the column has none (every row valid).
    A bitmap may still mark every row valid. *)

val is_valid : t -> int -> bool
val all_valid : t -> bool
val valid_count : t -> int

val int_array : t -> int array
(** Raises [Invalid_argument] if the column is not [Int]. Likewise below. *)

val float_array : t -> float array
val bool_array : t -> bool array
val string_array : t -> string array

(** {1 Mutation}

    Columns are mostly write-once, but the shred pool
    ({!Raw_core.Shred_pool}) fills previously-unloaded rows of a cached
    column in place when a later query needs them. *)

val set : t -> int -> Value.t -> unit
(** Writes the value and marks the row valid. Raises on type mismatch.
    Raises [Invalid_argument] if the column has no validity bitmap and the
    value is [Null]. *)

val invalidate_all : t -> t
(** Returns a column sharing the data but with a fresh all-NULL bitmap. *)

val to_values : t -> Value.t list
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val slice : t -> int -> int -> t
(** [slice c pos len] copies rows [pos..pos+len-1]. *)

val concat : t list -> t
(** Vertical concatenation by typed blits. Raises [Invalid_argument] on an
    empty list or mismatched types. *)

val gather : t -> int array -> t
(** [gather c idx] builds the packed column [ [|c.(idx.(0)); ...|] ]. *)

val scatter : t -> int array -> t -> unit
(** [scatter dst idx src] writes [src.(k)] into [dst.(idx.(k))], and its
    validity into [dst]'s bitmap when [dst] has one — the typed bulk form
    of {!set} used to fill pooled shreds. Raises [Invalid_argument] on
    type mismatch or if [length src <> Array.length idx]. *)
