(** Vectorized kernels.

    Each filter and aggregate kernel picks the column type, the operator,
    the NULL handling and the selection {e once} per chunk and then runs a
    tight monomorphic loop, with no closure call per row — the columnar
    analogue of the paper's observation that per-value type dispatch
    belongs outside the critical path. Filters and aggregates accept an
    optional selection vector and skip invalid (NULL) rows; comparisons
    involving NULL are false, aggregates ignore NULLs, and arithmetic
    leaves NULL rows NULL. *)

type cmp = Lt | Le | Gt | Ge | Eq | Ne
type arith = Add | Sub | Mul | Div | Mod
type agg =
  | Max
  | Min
  | Sum
  | Count
  | Count_distinct  (** COUNT(DISTINCT x): distinct non-NULL values *)
  | Avg

exception Overflow of string
(** Raised for the answer of [SUM] over Int when the exact sum leaves the
    integer range; the query fails rather than answer a wrapped sum. A sum
    that only passes out of range on the way is answered exactly. *)

exception Zero_divisor of arith
(** Raised by an integer [Div] or [Mod] whose divisor is a (non-NULL)
    zero: the query fails as on malformed data. *)

val cmp_to_string : cmp -> string

val flip_cmp : cmp -> cmp
(** The comparison with its operands swapped: [a op b] iff
    [b (flip_cmp op) a]. *)

val arith_to_string : arith -> string
val agg_to_string : agg -> string

val filter_const : ?negate:bool -> cmp -> Column.t -> Value.t -> Sel.t option -> Sel.t
(** Indices (in original chunk coordinates) of rows where
    [col.(i) <cmp> const], sized exactly. Numeric constants coerce between
    Int and Float as [float_of_int] does; floats compare as IEEE does (NaN
    is unordered, [-0.0 = 0.0]); strings as [String.compare]; [false <
    true]. A NULL constant selects nothing. With [~negate:true], the rows
    where the comparison is FALSE — SQL's [NOT]: never a NULL row, but a
    NaN row whenever NaN makes the comparison FALSE. *)

val filter_col : ?negate:bool -> cmp -> Column.t -> Column.t -> Sel.t option -> Sel.t
(** Row-wise column/column comparison, with {!filter_const}'s coercions
    and [negate]. *)

val arith_const : arith -> Column.t -> Value.t -> Column.t
val arith_col : arith -> Column.t -> Column.t -> Column.t
(** Numeric arithmetic; Int/Float operands promote to Float. Results are
    computed only on the rows valid in both operands: a row NULL in either
    is NULL in the result, and nothing is computed under it. Int
    arithmetic wraps as OCaml's does ([min_int / -1 = min_int],
    [min_int mod -1 = 0]); an integer [Div] or [Mod] by a zero raises
    {!Zero_divisor}. Float arithmetic is IEEE's, [Mod] being
    [Float.rem]. *)

val aggregate : agg -> Column.t -> Sel.t option -> Value.t
(** [Null] when no valid rows qualify (except [Count] and
    [Count_distinct], which yield [Int 0]). [Sum]/[Avg] require a numeric
    column and raise [Invalid_argument] on a non-numeric one with a valid
    row; [Max]/[Min] also accept strings and bools, ordered as in
    {!Value.compare}. [Sum] over Int is exact or raises {!Overflow}; [Avg]
    and [Sum] over Float add in row order. [Count_distinct] counts values
    apart as [compare] does: one NaN, and [-0.0] is [0.0]. *)

(** {1 Accumulators}

    The running state of one aggregate, one slot per group id: {!aggregate}
    is one slot updated once. The scalar and grouped updates of the
    operators feed the same state. *)

type acc

val acc_create : agg -> int -> acc
(** [acc_create op n] has slots for groups [0 .. n-1]. *)

val acc_reserve : acc -> int -> unit
(** Grows the state to at least [n] slots; new slots start empty. *)

val acc_update : acc -> Column.t -> Sel.t option -> unit
(** Folds the selected non-NULL values into slot 0. *)

val acc_count_rows : acc -> int -> unit
(** Adds [n] rows to slot 0's count: [COUNT] over a never-NULL value,
    without a column. *)

val acc_update_groups : acc -> Column.t -> int array -> int -> unit
(** [acc_update_groups a col gids n] folds row [i < n] into slot
    [gids.(i)]. Rows NULL in [col] go to slot 0, which grouped callers
    reserve for them and never read back: groups are [1 ..]. *)

val acc_count_groups : acc -> int array -> int -> unit
(** Counts row [i < n] in slot [gids.(i)]: the grouped {!acc_count_rows}. *)

val acc_result : acc -> int -> Value.t
(** The slot's answer, as {!aggregate} gives it. *)
