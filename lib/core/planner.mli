(** Physical planning (paper §3 "Physical Plan Creation", §5).

    The planner turns a file-agnostic logical plan into an operator tree:
    it picks the access-path strategy, splits each table's field reads among
    multiple scan operators, and decides {e where in the plan} each column
    is actually read — at the bottom (full columns), as late as possible
    (column shreds), or grouped (multi-column shreds); around joins it
    implements the early / intermediate / late materialization points of
    §5.3.2.

    Internally every raw-file scan starts as a row-id stream; columns are
    attached by generated scan operators ({!Access.late_scan}) exactly when
    a physical operator first needs them, and remaining ("pending") columns
    ride along as bookkeeping until then. *)

open Raw_vector
open Raw_engine

type shred_strategy = Cost_model.strategy =
  | Full_columns
  | Shreds
  | Multi_shreds
  | Adaptive
(** Where columns are read; see {!Cost_model.strategy}. [Adaptive] is
    resolved per query to one of the other three. *)

type join_policy =
  | Early  (** project-only columns created at scan time (full columns) *)
  | Intermediate
      (** created after that table's selections, right before the join *)
  | Late  (** created after the join (pure column shreds) *)

type options = {
  access : Access.mode;
  shreds : shred_strategy;
  join_policy : join_policy;
  tracked : [ `Every of int | `Cols of int list ];
      (** positional-map heuristic for CSV tables *)
  use_indexes : bool;
      (** exploit indexes embedded in the file format (IBX B+-trees):
          a leading range predicate on the indexed column becomes an
          index-driven row-id scan instead of a filter (paper §4.1) *)
}

val default : options
(** RAW defaults: JIT access paths, column shreds, late join
    materialization, positional map every 10th column. *)

val join_policy_to_string : join_policy -> string

val tracked_for : options -> Catalog.entry -> int list
(** The CSV columns a positional map built for [entry] tracks under
    [options.tracked]. *)

val has_join : Logical.t -> bool
(** Whether the plan joins two inputs anywhere. *)

val plan : Catalog.t -> options -> Logical.t -> Operator.t * Schema.t
(** The executable operator tree and its output schema. The operator is
    single-use (drain it once). Selections are first pushed below joins
    ({!Logical.push_filters}); the schema is that of the plan as given. *)

type planned = {
  op : Operator.t;  (** single-use: drain it once *)
  schema : Schema.t;  (** of the plan as given *)
  trace : string list;
      (** the planning decisions in order (the chosen strategy, eager vs
          deferred scans, index resolutions, late-scan attachment points,
          filters, joins) — an EXPLAIN for adaptive access paths *)
  prediction : Cost_model.prediction option;
      (** the [Adaptive] resolution; [None] under a fixed strategy or when
          no filter sits on a scan *)
}

val plan_with_trace : Catalog.t -> options -> Logical.t -> planned
(** {!plan} with its decisions and the adaptive prediction. Under
    [Adaptive], either call bumps [planner.adaptive_chose_<strategy>]. In
    eager modes (DBMS/External/full columns) planning itself performs the
    bottom reads. *)
