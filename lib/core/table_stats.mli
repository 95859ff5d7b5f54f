(** Column statistics gathered as a side effect of scans.

    RAW never has a loading step where a DBMS would collect statistics, so
    it does what it does for data: accumulate them adaptively. Whenever an
    access path materializes a {e complete} column, its min/max/row-count
    are recorded here; the cost model ({!Cost_model}) turns them into
    selectivity estimates under a uniformity assumption. *)

open Raw_vector

type col_stats = {
  min_v : float;
  max_v : float;
  n_rows : int;
  n_valid : int;  (** non-NULL values observed *)
}

type t

val create : unit -> t

val observe : t -> table:string -> col:int -> Column.t -> unit
(** Record stats from a complete column (numeric columns only; others are
    ignored). Replaces previous stats for the (table, column). *)

val get : t -> table:string -> col:int -> col_stats option

val selectivity : col_stats -> Kernels.cmp -> float -> float
(** Estimated fraction of rows satisfying [col <cmp> constant], assuming a
    uniform distribution over [min_v, max_v]; clamped to [0, 1]. Equality
    uses [1 / (max - min + 1)]. *)

val clear : t -> unit
(** Drops all column stats. *)

val size : t -> int
(** Number of (table, column) stats entries. *)
