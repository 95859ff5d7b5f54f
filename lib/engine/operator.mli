(** Vectorized Volcano-style operators (paper §2.1, §3).

    Operators exchange {!Raw_vector.Chunk.t} batches through [next]; a
    [None] signals exhaustion. The set mirrors what RAW needs from
    Supersonic: filter, project, aggregate (scalar and grouped), hash join
    with a pipelined probe side, and {!map_chunks}, through which the
    planner splices generated scan operators anywhere in a plan. *)

open Raw_vector

type t

val next : t -> Chunk.t option
val close : t -> unit

(** {1 Sources} *)

val of_chunks : Chunk.t list -> t
val of_fn : next:(unit -> Chunk.t option) -> ?close:(unit -> unit) -> unit -> t
val of_chunk : chunk_rows:int -> Chunk.t -> t
(** Emits [chunk] in consecutive slices of at most [chunk_rows] rows; an
    empty chunk is emitted once, as is, so its columns still reach the
    consumer. *)

val defer : (unit -> t) -> t
(** Builds the operator on the first [next], so planning a source that
    reads its data up front costs nothing until the plan runs; closing an
    operator never started builds nothing. *)

val empty : t

(** {1 Transformations} *)

val filter : Expr.t -> t -> t
(** Evaluates the predicate per chunk and materializes qualifying rows. *)

val count_into : string -> t -> t
(** Passes chunks through unchanged, adding each chunk's row count to the
    named {!Raw_storage.Io_stats} counter — one bump per chunk, so the
    planner can meter row flow (observed selectivity) at negligible cost. *)

val project : Expr.t list -> t -> t

val map_chunks : (Chunk.t -> Chunk.t) -> t -> t
(** Applies a chunk transformation; this is how generated late-scan
    operators (column shreds) are spliced into a plan. *)

val limit : int -> t -> t

(** {1 Aggregation} *)

val aggregate : (Kernels.agg * Expr.t) list -> t -> t
(** Scalar aggregation: consumes the input, emits a single 1-row chunk.
    With an empty input, [COUNT] yields 0 and other aggregates NULL.
    Aggregates are {!Kernels.aggregate}'s over all the input's rows; a
    [COUNT] of a non-NULL constant counts rows without evaluating it. *)

val group_by : keys:Expr.t list -> aggs:(Kernels.agg * Expr.t) list -> t -> t
(** Hash group-by; output columns are keys then aggregates. Groups come
    out in the order their first row arrived; NULL keys form one group.
    Keys compare as [compare] does (every NaN one key, [-0.0] is [0.0]).
    Raises {!Kernels.Overflow} when the exact Int [SUM] of a group leaves
    the Int range. *)

(** {1 Join} *)

val hash_join :
  build:t -> probe:t -> build_key:Expr.t -> probe_key:Expr.t -> t
(** Inner equi-join. The build side is consumed and hashed [open]-time; the
    probe side streams, preserving probe-side row order in the output — the
    property the paper's "pipelined vs pipeline-breaking" experiment (§5.3.2)
    depends on. Each probe row's matches come in ascending build-row order.
    Output columns: probe columns then build columns. NULL keys never match.
    Keys compare as [Expr]'s [=] does: an Int key equals a Float key of the
    same numeric value. Int keys go through a flat open-addressing table;
    other key types through a hash table of boxed values. *)

(** {1 Sort} *)

val sort : ?limit:int -> by:(int * [ `Asc | `Desc ]) list -> t -> t
(** Materializing stable sort by column indices, comparing each key
    column's typed array directly. With [~limit:k] it returns exactly what
    [limit k] over the full sort would — the first [k] rows of the stable
    sort — through a bounded top-k heap; for [k <= 0] the input is never
    pulled. *)

(** {1 Consumers} *)

val collect : t -> Chunk.t list
val to_chunk : t -> Chunk.t
(** Concatenation of all output; the empty chunk for an empty operator. *)

val row_count : t -> int
val iter : (Chunk.t -> unit) -> t -> unit

val default_chunk_rows : int
(** Batch granularity used by scan operators (4096). *)
