(** Vectorized kernels.

    Each kernel dispatches on the column type {e once} and then runs a tight
    monomorphic loop — the columnar analogue of the paper's observation that
    per-value type dispatch belongs outside the critical path. All kernels
    accept an optional selection vector and skip invalid (NULL / not-loaded)
    rows; comparisons involving NULL are false, aggregates ignore NULLs. *)

type cmp = Lt | Le | Gt | Ge | Eq | Ne
type arith = Add | Sub | Mul | Div | Mod
type agg =
  | Max
  | Min
  | Sum
  | Count
  | Count_distinct  (** COUNT(DISTINCT x): distinct non-NULL values *)
  | Avg

val cmp_to_string : cmp -> string
val arith_to_string : arith -> string
val agg_to_string : agg -> string

val filter_const : cmp -> Column.t -> Value.t -> Sel.t option -> Sel.t
(** Indices (in original chunk coordinates) of rows where
    [col.(i) <cmp> const]. Numeric constants coerce between Int and Float. *)

val filter_col : cmp -> Column.t -> Column.t -> Sel.t option -> Sel.t
(** Row-wise column/column comparison. *)

val arith_const : arith -> Column.t -> Value.t -> Column.t
val arith_col : arith -> Column.t -> Column.t -> Column.t
(** Numeric arithmetic; Int/Float operands promote to Float. Integer [Div]
    and [Mod] raise [Division_by_zero] like the stdlib. Results are computed
    for every row; validity propagates (NULL in → NULL out). *)

val aggregate : agg -> Column.t -> Sel.t option -> Value.t
(** [Null] when no valid rows qualify (except [Count], which yields
    [Int 0]). [Sum]/[Avg]/[Max]/[Min] require a numeric column ([Max]/[Min]
    also accept strings and bools, ordered as in {!Value.compare}). *)
