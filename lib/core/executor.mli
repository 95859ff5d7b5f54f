(** Query execution with the paper's cost accounting.

    A query's reported time decomposes into measured CPU wall time plus the
    two simulated components of the cost model (DESIGN.md §1): page-fault
    I/O charged by {!Raw_storage.Mmap_file} and JIT compilation charged by
    {!Template_cache}. The per-query counter delta exposes the work metrics
    (fields tokenized, values converted, pool hits...) the breakdown and
    ablation experiments report. *)

open Raw_vector
open Raw_storage

type report = {
  chunk : Chunk.t;  (** full materialized result *)
  schema : Schema.t;
  cpu_seconds : float;  (** measured *)
  io_seconds : float;  (** simulated cold-page I/O *)
  compile_seconds : float;  (** simulated JIT compilation *)
  total_seconds : float;  (** sum of the three *)
  parallelism : int;  (** {!Config.parallelism} in effect for this query *)
  rows_scanned : int;
  (** rows the scans produced: the [scan.rows_scanned] delta where a
      cancel token counted it, else the rows that entered the filter chain
      ([filter.rows_in]); 0 for a query with neither *)
  domain_seconds : (string * float) list;
  (** per-worker-domain wall clock ([par.domain<i>.seconds] entries recorded
      by {!Morsel.map_domains}); empty when no scan went parallel *)
  counters : (string * float) list;
  (** per-query {!Raw_storage.Io_stats} delta, excluding the
      [par.domain*] breakdown entries *)
  errors : Scan_errors.snapshot;
  (** malformed-data errors encountered (and tolerated) by this query:
      total, per-cause counts and the first few samples with row offset and
      field attribution. Empty under [Fail_fast] (the first error raises
      {!Raw_storage.Scan_errors.Error} out of {!run} instead). Counts are
      per data-producing pass: a query that both sizes a table and scans it
      observes a bad row once per pass. *)
  degraded : string list;
  (** human-readable account of the governance actions this query absorbed
      (evictions, streaming fallbacks, structures not retained), derived
      from the query's [gov.*] counter delta; empty when nothing degraded *)
  spans : Raw_obs.Trace.span list;
  (** the query's span tree (parse/bind/plan/compile/scan morsels), ordered
      by start time, with its adaptive decisions (JIT vs interpreted,
      posmap use, shred reuse, cache hits, governance degradation, and
      last the [planner.adaptive] record of an [Adaptive] query) as
      zero-length events under the span that made them —
      {!Raw_obs.Trace.decisions} reads them back in recording order;
      empty unless {!Config.observe} or {!Config.profile} is on *)
  approx : Approx.info option;
  (** online-aggregation account when {!Config.approx} drove this query:
      estimate ± bound per output column, sampled fraction, and whether
      the answer is exact (file exhausted before convergence — the chunk
      then holds the bit-identical exact result). [None] when approx is
      off {e or} the query was ineligible and ran exactly. *)
}

val run :
  options:Planner.options ->
  cancel:Cancel.t ->
  ?pre_spans:(string * float * float) list ->
  Catalog.t ->
  Logical.t ->
  report
(** Runs the query to completion and reports its cost breakdown.

    Governance: [cancel] is the query's token ({!Raw_db.fresh_cancel}
    arms one from {!Config.deadline}). The token is installed as the ambient {!Raw_storage.Cancel} token for the
    duration of the run; scan kernels check it at row-batch boundaries. If
    it trips, all worker domains quiesce at their next boundary, partial
    stats are merged, and [run] raises
    {!Raw_storage.Resource_error.Deadline_exceeded} (or [Cancelled]) whose
    payload accounts the partial progress: rows scanned, simulated I/O and
    compile seconds consumed, and elapsed wall time.

    Observability: when {!Config.observe} or {!Config.profile} is set,
    the run installs one {!Raw_obs.Trace} handle (morsel workers inherit
    it) for its duration; its spans and decisions land in the report.
    [pre_spans] stitches in phases timed before this call — each
    [(name, t0, t1)] triple (absolute {!Raw_storage.Timing.now} instants,
    e.g. SQL parse/bind in {!Raw_db.query}) becomes a top-level span and
    the earliest [t0] anchors the trace epoch. Ignored when not
    observing.

    Feedback: when the planner resolved an [Adaptive] strategy, the run
    takes its typed {!Cost_model.prediction}, prices it at the table's
    row count (known after the run unless it failed before sizing the
    table; then there is no feedback) and re-costs it at the observed
    filter selectivity. A choice the cost model would reverse there bumps
    [planner.mispredict.<chosen>], whatever sinks are on. When the run
    is traced the prediction becomes the [planner.adaptive] decision,
    under the [query] span. When {!Config.history_path} is set, one
    {!Raw_obs.History} record per run — completed, failed, cancelled or
    deadline-exceeded alike — is appended there with the full
    predicted-vs-actual account. *)

val pp_report : Format.formatter -> report -> unit
(** Result rows (with header) followed by the timing line; when traced,
    the span tree and a [-- decisions (N):] list. *)

val pp_result : Format.formatter -> report -> unit
(** Result rows only. *)
