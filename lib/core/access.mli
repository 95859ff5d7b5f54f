(** Access-path selection and execution (paper §2, §3, §4).

    One function, {!fetch_columns}, hides the full decision tree the paper
    describes for turning "give me these columns for these rows" into raw
    file accesses: DBMS-loaded columns, cached column shreds, positional-map
    navigation, or a full sequential scan — chosen per query from catalog
    state, exactly the adaptive behaviour under study. The four competing
    strategies of the evaluation are the [mode] values. *)

open Raw_vector
open Raw_engine

type mode =
  | Dbms
      (** load everything up front into engine columns; queries touch only
          loaded data *)
  | External
      (** external tables: re-convert the whole file on every query, no
          auxiliary structures *)
  | In_situ
      (** NoDB: general-purpose interpreted scan operators + positional
          maps + result caching *)
  | Jit  (** RAW: generated access paths + positional maps + shred pool *)

val mode_to_string : mode -> string
val scan_mode : mode -> Scan_csv.mode

val base_scan : Catalog.t -> Catalog.entry -> Operator.t
(** The bottom of every physical plan over a raw file: streams a single
    row-id column (0..n-1) in chunks, touching nothing but table
    cardinality metadata. Real data reads happen in the scan operators
    attached above by the planner. *)

type rows = All | Ids of int array

val read :
  Catalog.t ->
  mode:mode ->
  entry:Catalog.entry ->
  tracked:int list ->
  cols:int list ->
  rows ->
  Column.t array
(** [cols] of every row ([All], morsel-parallel kernels) or of [Ids
    rowids] (point fetch, sequential kernels), straight from the raw file.
    One [scan.kernel] decision and, in [Jit] mode, one template charge.
    A CSV [All] read builds a positional map over [tracked] if the entry
    has none; a CSV fetch needs one, a JSONL fetch the row starts
    ([Failure] otherwise). *)

val fetch_columns :
  Catalog.t ->
  mode:mode ->
  entry:Catalog.entry ->
  tracked:int list ->
  cols:int list ->
  rowids:int array ->
  Column.t array
(** Values of [cols] (schema indexes) at [rowids], in request order — packed
    columns of length [Array.length rowids].

    Strategy per mode (paper §3 "Physical Plan Creation" step: "based on the
    fields required, we specify how each field will be retrieved"):
    - [Dbms]: gather from loaded columns (loading first if needed).
    - [External]: full interpreted re-scan of {e all} schema columns, then
      gather; nothing is cached.
    - [In_situ]/[Jit]: per column — use a subsuming pooled shred if one
      exists; otherwise fetch the missing rows via the positional map
      (building it, tracked at [tracked], through a full scan when absent)
      and fill the pooled shred in place. [Jit] composes generated kernels
      (charging the template cache on first use); [In_situ] runs the
      general-purpose interpreted kernels. Each [access.path] decision
      sits inside the span that does its work: [point_fetch] and [stream]
      under [scan.fetch], [full_scan_pool] under its [scan.full]. *)

val needs_pass : Catalog.t -> mode:mode -> Catalog.entry -> int list -> bool
(** Whether reading [cols] must pass over the whole file: in [In_situ] or
    [Jit] mode, a CSV column that the shred pool does not hold complete
    and no positional map reaches (a first touch, an evicted map, or no
    tracked columns). *)

val read_table :
  Catalog.t ->
  mode:mode ->
  entry:Catalog.entry ->
  tracked:int list ->
  cols:int list ->
  Column.t array * int array
(** Every row of [cols], and the row ids [0 .. n-1]. When {!needs_pass}, one full
    read (building the positional map over [tracked]) converts every
    column not pooled complete, pools what the budget can hold, sets the
    table's row count and records an [access.path]/[one_pass] decision
    inside its [scan.full] span; the columns reach the caller even if the
    pool refuses them. Otherwise
    {!fetch_columns} over row ids [0 .. n-1]; with [cols = []] that only
    sizes the table. *)

val held : Catalog.t -> mode:mode -> Catalog.entry -> int -> bool
(** Whether {!fetch_columns} serves column [col] of the entry from memory
    for the rows it already holds: a pooled shred ([In_situ]/[Jit]) or
    the loaded columns ([Dbms]); never in [External] mode. *)

val index_range :
  Catalog.t ->
  mode:mode ->
  Catalog.entry ->
  col:int ->
  lo:int ->
  hi:int ->
  int array option
(** Row ids whose value in schema column [col] lies in [lo, hi] (inclusive),
    via an index embedded in the file — [None] when the format has no index
    on that column. Ascending; index node reads are page-accounted and
    counted under [ibx.index_nodes]. *)

val rowid_scan : Catalog.t -> int array -> Raw_engine.Operator.t
(** Stream an explicit row-id set in chunks (the bottom of an index-driven
    plan). *)

val late_scan :
  Catalog.t ->
  mode:mode ->
  entry:Catalog.entry ->
  tracked:int list ->
  cols:int list ->
  rowid_pos:int ->
  Operator.t ->
  Operator.t
(** Wraps an operator with a generated scan pushed up the plan (column
    shreds, §5): for each chunk, reads row ids from column [rowid_pos],
    fetches [cols] for exactly those rows, and appends the new columns. *)
