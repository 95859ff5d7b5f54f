(** Statement and result caches for the long-lived server (PR 6).

    The statement cache maps SQL text to its bound {!Logical} plan, so a
    repeated query skips parse + bind entirely. The result cache maps
    {!Logical.exact_key} {e joined with the per-table file identity}
    ({!Raw_storage.File_id}) to the materialized result chunk: a hit is
    only possible when both the query (constants included) and every
    underlying file version match, which is the dms-notes staleness rule —
    a cache entry never outlives the bytes it was computed from.

    Results are budgeted through the unified {!Raw_storage.Mem_budget} as
    the [results] consumer at priority 0 (first to drop: results are
    pure derived data, the cheapest state to lose). Insertion reserves
    through {!Catalog.reserve_bytes}; if the budget cannot make room the
    result is simply not cached ([gov.fallbacks.streaming]).

    All operations are serialized by an internal mutex and safe to call
    from concurrent server sessions. Cached chunks are returned without
    copying and must be treated as immutable. *)

type t

val create : unit -> t

val register_budget : t -> Raw_storage.Mem_budget.t -> unit
(** Register the result cache as the budget's [results] consumer
    (priority 0). Its items are the cached results, least recently put or
    hit first. *)

(** {1 Statement cache} *)

val find_stmt : t -> string -> Logical.t option
(** Lookup by exact SQL text; counts [cache.stmt.hits]/[.misses]. *)

val put_stmt : t -> string -> Logical.t -> unit

(** {1 Result cache} *)

val result_key : Catalog.t -> Logical.t -> string option
(** The cache key of [plan] {e right now}: its constant-preserving
    {!Logical.exact_key} plus each scanned table's current file identity
    (the catalog's open-file stamp, or a fresh [stat] for files not yet
    opened). [None] when any table is unknown or its file cannot be
    stat'ed — such a query is not cacheable. *)

val find_result : t -> string -> (Raw_vector.Chunk.t * Raw_vector.Schema.t) option
(** Counts [cache.result.hits]/[.misses] and marks the entry recently
    used. *)

val put_result :
  t ->
  Catalog.t ->
  key:string ->
  tables:string list ->
  Raw_vector.Chunk.t ->
  Raw_vector.Schema.t ->
  unit
(** Cache a result under [key], charging its byte footprint to the memory
    budget first; on reservation failure the result is not cached.
    [tables] (the plan's {!Logical.tables}) supports
    {!invalidate_table}. *)

val invalidate_table : t -> string -> unit
(** Drop every cached statement and result that mentions [table] — called
    when the table's underlying file identity changes. *)

val clear : t -> unit

(** {1 Introspection} *)

val byte_usage : t -> int
(** Current result-cache footprint: the sum of its budget items. *)

val n_results : t -> int
