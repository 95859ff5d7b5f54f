(** Typed metrics registry.

    Declares the engine's metric vocabulary — counters, gauges and
    fixed-bucket latency histograms — over the domain-local
    {!Raw_storage.Io_stats} shards. A metric handle is a declared id plus
    kind and help text; bumping one writes the calling domain's shard, so
    morsel workers never contend, and the PR-1 deterministic
    {!Raw_storage.Io_stats.merge} covers every metric kind (histograms are
    stored as derived [.bucket.*]/[.sum]/[.count] series).

    Declaration is idempotent by id ([Invalid_argument] only if the kind
    changes), so handles are safely created at module-init time anywhere. *)

type kind = Counter | Gauge | Histogram

type t
(** A declared metric. *)

val counter : ?family:bool -> help:string -> string -> t
(** [family:true] declares a prefix owning every ["id<suffix>"] series
    (e.g. [par.domain] owns [par.domain3.seconds]). *)

val gauge : ?family:bool -> help:string -> string -> t

val histogram : buckets:float list -> help:string -> string -> t
(** Fixed ascending bucket upper bounds; an implicit [+Inf] bucket is
    always present. *)

val id : t -> string
val kind : t -> kind
val help : t -> string
val buckets : t -> float list

(** {1 Bumping} *)

val incr : t -> unit
val add : t -> int -> unit
val add_float : t -> float -> unit
val set : t -> float -> unit  (** gauges: overwrite the current value *)

val observe : t -> float -> unit
(** Histograms: count the observation in its bucket and accumulate
    [.sum]/[.count]. *)

val value : t -> float
(** Current value in this domain's shard (0 if never bumped here). *)

val count : t -> int
(** {!value} rounded to the nearest integer (see
    {!Raw_storage.Io_stats.get}). *)

(** {1 Quantile estimation}

    Prometheus-style estimation over the fixed buckets: locate the bucket
    containing the [q]-th observation and interpolate linearly inside it
    (the lower edge of the first bucket is 0). Documented edge cases —
    these return values, never NaN or an exception:

    - empty histogram (count 0), a non-histogram metric, or [q] outside
      [[0, 1]]: [None];
    - all observations in a single bucket: a value inside that bucket
      (linear interpolation between its edges);
    - the target falls in the implicit [+Inf] overflow bucket: the largest
      {e finite} bucket bound — there is no finite upper edge to
      interpolate toward, so the estimate clamps (a histogram declared
      with no finite buckets reports 0). *)

val quantile : t -> q:float -> float option
(** Over this domain's shard. *)

val quantile_of_snapshot : (string * float) list -> t -> q:float -> float option
(** Same, over an explicit (e.g. merged post-query) snapshot. *)

(** {1 Introspection} *)

val find : string -> t option
val all : unit -> t list  (** sorted by id *)

val owner : string -> t option
(** Resolve a raw {!Raw_storage.Io_stats} key to the metric that owns it:
    exact id, histogram-derived series, or family prefix. [None] means the
    key is undeclared. *)

val sum_key : t -> string
val count_key : t -> string
val bucket_key : t -> float -> string
val inf_bucket_key : t -> string

(** {1 Builtin vocabulary}

    Every id the engine bumps, declared once. Layers below this library
    ({!Raw_storage.Cancel}, {!Raw_storage.Mem_budget}) write their ids as
    raw strings; these declarations cover them too. *)

val scan_rows_scanned : t
val scan_values_built : t
val scan_rows_skipped : t
val csv_fields_tokenized : t
val csv_values_converted : t
val jsonl_values_extracted : t
val fwb_values_read : t
val hep_fields_read : t
val dbms_columns_loaded : t
val dbms_values_gathered : t
val pool_values_gathered : t
val pool_hits : t
val pool_misses : t
val tmpl_hits : t
val tmpl_misses : t
val tmpl_compile_seconds : t
val posmap_entries : t
val posmap_segments_merged : t
val ibx_index_nodes : t
val gov_evictions : t
val gov_evicted_bytes : t
val gov_reservation_failures : t
val gov_rejections : t
val gov_fallback_streaming : t
val gov_fallback_shred_pool : t
val gov_fallback_posmap : t
val gov_budget_capacity_bytes : t
val planner_adaptive : t

val planner_mispredict : t
(** Family: [planner.mispredict.<strategy>] counts adaptive resolutions
    whose choice the cost model would reverse at the {e observed}
    selectivity (keyed by the strategy that was chosen). Counted for every
    measured adaptive query, whether or not observe or the workload
    history is on. *)

val filter_rows_in : t
val filter_rows_out : t
(** Rows entering/surviving planner-emitted filter chains; their per-query
    delta ratio is the observed selectivity the executor joins against the
    adaptive prediction's estimate. *)

val history_records_written : t
val history_write_errors : t
val history_rotations : t
val history_write_retries : t

(** {2 Server and cache vocabulary (PR 6)} *)

val server_connections : t
val server_requests : t
val server_errors : t

val server_batches : t
(** Shared-scan batches: one raw-file traversal that fed [>= 2] queries. *)

val server_batched_queries : t

(** {2 Serving-tier armor vocabulary (PR 8)} *)

val server_session_end : t
(** Family: one bump per session teardown, by cause —
    [server.session_end.clean] (EOF at a request boundary or shutdown),
    [.eof_mid_request] (connection dropped with a partial line buffered),
    [.timeout_idle], [.timeout_request] (reaped by the respective limit),
    [.write_error] (client vanished mid-response), [.error] (unexpected
    session exception). *)

val server_too_large : t
val server_shed_sessions : t
val server_shed_requests : t

val server_accept_retries : t
(** [accept] failures (fd exhaustion and kin) absorbed by exponential
    backoff in the accept loop; the server never crashes on [EMFILE]. *)

val server_shared_fallbacks : t
(** Shared-scan groups that raised and were replayed member-by-member so
    only the poisoned request fails. *)

val server_batcher_restarts : t

val server_client_send_errors : t
val server_client_retries : t

val cache_stmt_hits : t
val cache_stmt_misses : t
val cache_result_hits : t
val cache_result_misses : t

(** {2 Online aggregation vocabulary (PR 7)} *)

val approx_queries : t
val approx_early_stops : t
val approx_exhausted : t
val approx_ineligible : t
val approx_morsels_sampled : t
val approx_rows_sampled : t

val cache_invalidations : t
(** File-identity changes (dev/ino/mtime/size) that dropped cached
    statements/results; the catalog then extended or dropped the
    per-file adaptive state ({!catalog_extends},
    {!catalog_invalidations}). *)

val catalog_extends : t
(** File changes the catalog verified as appends and extended its
    per-file state over (one per refreshed path). *)

val catalog_invalidations : t
(** File changes the catalog answered by dropping the per-file state. *)

val par_domain : t
val obs_decisions_dropped : t
(** {!Trace.decision} events dropped because their trace handle already
    held its cap of 4096 (the first ones are kept). *)

val io_simulated_seconds : t

(** {2 Resource-profiler vocabulary (PR 10)}

    Bumped only while the {!Raw_storage.Prof_gate} is up (a profiled
    query); all zero otherwise. The [alloc.*]/[gc.*] counters come from
    {!Trace.gc_stat} deltas around the query on every participating
    domain, merged at morsel join; they are {e not} deterministic across
    parallelism levels (domain spawn itself allocates). The
    [bytes.copied.<site>] family counts bytes duplicated into
    intermediate buffers; value-proportional sites (e.g.
    [bytes.copied.csv.field]) are par==seq deterministic, capacity
    sites (e.g. [bytes.copied.builder.grow]) are not. *)

val alloc_minor_words : t
val alloc_major_words : t

val alloc_promoted_words : t
(** Total allocated words for a query =
    [alloc.minor_words + alloc.major_words] (promotions are counted in
    [major_words] by the runtime and already excluded there — see
    {!Prof.allocated_words}). *)

val gc_minor_collections : t
val gc_major_collections : t

val bytes_copied : t
(** Family: [bytes.copied.<site>]. *)

val query_seconds : t
(** End-to-end latency histogram. Bucket upper bounds (seconds):
    [1e-4], [5e-4], [1e-3], [5e-3], [1e-2], [5e-2], [0.1], [0.5], [1],
    [5], [10], plus the implicit [+Inf] overflow bucket. *)

val morsel_seconds : t
(** Per-morsel wall-time histogram; same bucket boundaries as
    {!query_seconds}. *)

(** {2 Serving-tier telemetry (PR 9)} *)

val server_request_seconds : t
(** End-to-end server request latency — first request byte to response
    written — observed once per query request; same buckets as
    {!query_seconds}. Cumulative and windowed percentiles in the [stats]
    response derive from this histogram. *)

val server_queue_seconds : t
(** Queue-wait: submit to batch pickup, the "queue-wait" span of the
    request trace as a histogram. *)
