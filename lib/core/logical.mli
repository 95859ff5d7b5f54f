(** Logical query plans (paper §3: "the logical plan of an incoming query
    is file-agnostic and consists of traditional relational operators").

    Expressions are positional with respect to the child's output columns;
    {!output_schema} gives that shape at every node. The planner
    ({!Planner}) decides everything file-specific: access paths, where each
    column is actually read, and which scans are pushed up the plan. *)

open Raw_vector
open Raw_engine

type agg_spec = { op : Kernels.agg; expr : Expr.t; name : string }

type t =
  | Scan of { table : string; columns : int list (** schema indexes *) }
  | Filter of Expr.t * t
  | Project of (Expr.t * string) list * t
  | Join of { left : t; right : t; left_key : int; right_key : int }
      (** inner equi-join; output = left columns then right columns. The
          left side is the pipelined (probe) side, the right side builds the
          hash table — the paper's convention in §5.3.2. *)
  | Aggregate of { keys : int list; aggs : agg_spec list; input : t }
      (** grouped ([keys] non-empty) or scalar aggregation; output = key
          columns then one column per aggregate *)
  | Order_by of (int * [ `Asc | `Desc ]) list * t
  | Limit of int * t

val output_schema : Catalog.t -> t -> Schema.t
(** Names and types of the node's output. Name collisions (e.g. a self-join)
    are disambiguated with [#2], [#3]... suffixes. Raises [Not_found] for an
    unknown table and [Invalid_argument] for out-of-range column indexes or
    ill-typed expressions. *)

val width : t -> int
(** Number of output columns (the arity of {!output_schema}, without the
    catalog). *)

val split_and : Expr.t -> Expr.t list
(** The conjuncts of a predicate, left to right. *)

val push_filters : t -> t
(** Selection pushdown. A [Filter] over an inner [Join] is split into
    conjuncts; each conjunct whose columns all come from one side moves
    onto that side's input (right-side column positions shifted down by
    the left width), recursively through nested joins. Conjuncts that
    span both sides, or use no column, stay above the join. The output
    is equivalent to the input: same rows, same columns, same order. *)

val tables : t -> string list
(** Tables scanned anywhere in the plan (deduplicated). *)

val fingerprint : t -> string
(** A stable query-shape key: plan structure, tables, column positions and
    operators, with constants wildcarded to [?]. Parameter variants of the
    same query share a fingerprint; structurally different plans do not.
    This keys the workload-history store ({!Raw_obs.History}). *)

val exact_key : t -> string
(** Like {!fingerprint} but constant-preserving: literals and the LIMIT
    count are printed verbatim (strings escaped), so two plans share an
    exact key iff they compute the same result over the same file
    contents. This — joined with per-table {!Raw_storage.File_id}
    stamps — keys the result cache; the wildcarded {!fingerprint} must
    never be used there ([WHERE c < 10] and [WHERE c < 20] would alias). *)

val pp : Format.formatter -> t -> unit
