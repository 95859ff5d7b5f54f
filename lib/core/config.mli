(** Engine configuration: cost-model constants and cache sizes.

    The paper's absolute numbers come from a specific machine (Table 1) and
    multi-GB files; we reproduce shapes at laptop scale, so the two
    simulated costs (I/O per page, JIT compilation per template) are
    explicit, documented knobs rather than hidden machine properties. *)

open Raw_storage

type t = {
  mmap : Mmap_file.Config.t;
      (** page size and simulated per-page I/O latency *)
  chunk_rows : int;  (** vector size exchanged between operators *)
  compile_seconds : float;
      (** simulated latency of compiling one JIT access-path template. The
          paper measures ~2 s with GCC against ~170 s cold queries (~1%);
          the default 0.01 s keeps the same order of proportion at laptop
          scale. *)
  shred_pool_columns : int;  (** LRU capacity of the column-shred pool *)
  parallelism : int;
      (** domains used by morsel-driven full scans (CSV, FWB, HEP). 1
          (default) runs the sequential kernels on the calling domain;
          results at any parallelism are bit-identical. *)
  on_error : Scan_errors.policy;
      (** what scan kernels do with malformed input: [Fail_fast] (default)
          raises a typed {!Raw_storage.Scan_errors.Error}; [Skip_row]
          drops malformed rows; [Null_fill] turns malformed fields into
          NULLs. Errors are counted either way and surfaced in
          [Executor.report]. *)
  deadline : float option;
      (** per-query wall-clock budget in seconds. When set, the executor
          arms a {!Raw_storage.Cancel} token; scan kernels check it at
          row-batch boundaries and the query raises
          {!Raw_storage.Resource_error.Deadline_exceeded} with a
          partial-progress snapshot once it expires. [None] (default)
          disables governance checks entirely. *)
  memory_budget : int option;
      (** unified cap, in bytes, on the engine's adaptive state (column
          shreds, JIT template artifacts, positional maps, resident file
          pages). Under pressure cold structures are evicted in priority
          order and, when eviction cannot make room, scans degrade to
          streaming the raw file — counted under [gov.*] in
          {!Raw_storage.Io_stats}. [None] (default) leaves state unbounded. *)
  max_concurrent : int option;
      (** admission limit for {!Raw_db}: at most this many queries in
          flight; further queries are rejected with a typed
          {!Raw_storage.Resource_error.Overloaded}. [None] (default)
          admits everything. *)
  observe : bool;
      (** record a per-query span tree ({!Raw_obs.Trace}) with its
          adaptive decisions as events, surfaced in
          [Executor.report.spans]. [false] (default) leaves it at its
          no-op sink: span and decision sites cost one domain-local read
          and a branch. *)
  profile : bool;
      (** per-query resource profiling ({!Raw_obs.Prof}): raise the
          domain-local {!Raw_storage.Prof_gate} for the query's duration,
          so span boundaries capture {!Raw_obs.Trace.gc_stat} deltas, the
          [alloc.*]/[gc.*] metrics accumulate, and format kernels charge
          [bytes.copied.<site>] counters. Implies span recording (a
          profiled query gets a span tree even with [observe = false]).
          [false] (default) leaves every instrumentation site at one
          domain-local read and a branch; profiled results are
          bit-identical to unprofiled ones. *)
  history_path : string option;
      (** append one {!Raw_obs.History} record per query (including failed
          and cancelled ones) to this JSONL file — the workload-history
          substrate for [rawq report] and cost-model calibration. The file
          rotates at {!Raw_obs.History.append}'s default bound. [None]
          (default) disables the store entirely; queries pay nothing. *)
  approx : float option;
      (** online aggregation: when set, eligible scalar-aggregate queries
          (COUNT/SUM/AVG, single table, no GROUP BY) scan morsels in a
          seeded random order and stop early once every aggregate's 95%
          confidence half-width falls below this relative target —
          reporting estimate ± bound and the fraction scanned in
          [Executor.report.approx]. Must lie in (0, 1) exclusive.
          Ineligible queries run exactly. [None] (default) disables the
          sampled path entirely. *)
  approx_seed : int;
      (** seed of the morsel sampling order (default 42). The order — and
          therefore the approximate answer — is a pure function of
          [(seed, morsel count)], identical at every parallelism level. *)
  max_request_bytes : int;
      (** serving tier: longest request line {!Server} will buffer, in
          bytes (terminator excluded; default 1 MiB). A longer line is
          answered with a typed [too_large] error (code 2) and drained
          without buffering — the session stays usable, memory stays
          bounded. *)
  request_timeout : float option;
      (** serving tier: wall-clock budget, in seconds, for reading one
          request line once its first byte has arrived (default 30 s).
          A client that trickles bytes slower than this — the slow-loris
          shape — is reaped with a [server.session_end.timeout_request]
          account. [None] disables the check. *)
  idle_timeout : float option;
      (** serving tier: how long a session may sit between requests with
          no bytes sent before it is reaped (default 300 s), counted under
          [server.session_end.timeout_idle]. [None] keeps idle sessions
          forever. *)
  max_sessions : int option;
      (** serving tier: cap on concurrent client sessions (default 256).
          A connection past the cap is answered with one code-5 overload
          line carrying a [retry_after] hint, then closed — load is shed
          at the door instead of accumulating threads. [None] accepts
          without bound. *)
  telemetry_tick : float;
      (** serving tier: seconds between windowed-metrics snapshots
          (default 1.0). A dedicated ticker thread pushes one
          {!Raw_storage.Io_stats} snapshot per tick into a bounded
          {!Raw_obs.Window} ring, from which the [stats] op derives
          10s/60s/5m rates and percentiles. [0] disables the ticker and
          the window blocks of [stats]; must not be negative or NaN. *)
  trace_retain : int;
      (** serving tier: how many of the slowest recent request traces the
          server retains for the [{"op":"trace"}] protocol op (default
          32). Each query request gets a
          [session -> read / queue-wait / batch -> (shared-scan | execute)
          / write] span tree; the ring keeps the [trace_retain] slowest
          from the last 5 minutes. [0] disables request tracing entirely
          (spans are never built); must not be negative. *)
}

val default : t

val validate : t -> (t, string) result
(** [Ok t] when every knob is in range; [Error msg] naming the first bad
    knob otherwise. Checked at engine construction so misconfiguration
    fails with a typed error instead of a crash mid-query. *)

val check : t -> t
(** Like {!validate}, raising {!Raw_storage.Resource_error.Invalid_config}
    on a bad knob. *)
