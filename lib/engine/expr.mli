(** Expressions over chunk columns, with a vectorized evaluator.

    Predicates evaluate to selection vectors through the typed filter
    kernels — a comparison dispatches on the column type once per chunk, not
    per row. General evaluation (projections, arithmetic) produces
    columns. *)

open Raw_vector

type t =
  | Col of int  (** positional column reference within the input chunk *)
  | Const of Value.t
  | Cmp of Kernels.cmp * t * t
  | Arith of Kernels.arith * t * t
  | And of t * t
  | Or of t * t
  | Not of t

val col : int -> t
val int : int -> t
val float : float -> t
val string : string -> t
val bool : bool -> t

val ( < ) : t -> t -> t
val ( <= ) : t -> t -> t
val ( > ) : t -> t -> t
val ( >= ) : t -> t -> t
val ( = ) : t -> t -> t
val ( <> ) : t -> t -> t
val ( && ) : t -> t -> t
val ( || ) : t -> t -> t
val not_ : t -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t

val columns_used : t -> int list
(** Ascending, deduplicated. *)

val remap : (int -> int) -> t -> t
(** Rewrite column indices (planner use: when a chunk is projected or
    extended, expressions must follow). *)

val eval : t -> Chunk.t -> Column.t
(** Full-column evaluation. Boolean operators require Bool operands. A
    comparison is NULL where either side is NULL and otherwise TRUE
    exactly on the rows {!eval_filter} selects: the typed kernels decide
    both, so floats compare as IEEE does (NaN is unordered: only [<>]
    holds for it) whether a comparison is projected or filtered. *)

val eval_filter : t -> Chunk.t -> Sel.t option -> Sel.t
(** Evaluate as a predicate, returning qualifying row indices in original
    chunk coordinates. Comparisons hit the typed kernels; [And] chains
    selections (short-circuit across the vector); [Or] merges. *)

val infer : (int -> Dtype.t) -> t -> Dtype.t
(** Result type given the input column types. Raises [Invalid_argument] on
    ill-typed expressions. *)

val pp : Format.formatter -> t -> unit
