(** [rawq serve]: a long-lived multi-client server over a Unix socket.

    The one-shot CLI throws away every template, positional map and shred
    between invocations — exactly the state the paper's adaptivity story
    is about. {!serve} keeps one {!Raw_db.t} alive and lets any number of
    clients query it over a line protocol: one JSON object per line in
    each direction.

    {b Protocol.} Requests are single-line JSON objects:
    - [{"id": <any>, "sql": "SELECT ..."}] — run a query;
    - [{"op": "ping"}], [{"op": "stats"}], [{"op": "metrics"}],
      [{"op": "trace"}], [{"op": "profile"}], [{"op": "shutdown"}].

    A query response echoes ["id"] and carries ["ok"], ["columns"],
    ["types"], ["rows"] (row-major values), ["row_count"], ["seconds"],
    and two provenance flags: ["cached"] (served from the result cache)
    and ["shared"] (computed by a shared scan). Every query response
    (success or error) also carries a ["timing"] object — ["read_s"]
    (first request byte to line parsed), ["queue_s"] (submit to batch
    pickup; 0 for cache hits and bind errors, which are answered
    without queueing), ["execute_s"] (engine time; 0 for cache hits) and
    ["total_s"] (first byte to response serialization) — so a client
    can tell a slow engine from a slow queue without fetching a trace
    (the response write itself can only appear in the retained trace, as
    the "write" span). When the engine runs with
    {!Config.approx} and the query took the sampled path, the response
    additionally carries an ["approx"] object: ["eps"], ["seed"],
    ["exact"], ["fraction"] (of rows sampled), morsel/row totals, and
    per-aggregate ["aggs"] entries with ["name"], ["estimate"],
    ["bound"] (95% CI half-width) and ["relative"] (non-finite values
    serialize as [null]). Approximate results are never served from the
    result cache and never fold into a shared scan — each run re-samples.
    Errors carry ["code"] mirroring the CLI exit codes (1 parse/bind, 2
    bad request, 3 data, 4 deadline/cancelled, 5 overloaded), ["error"],
    and for machine classification optionally ["kind"] (e.g.
    ["too_large"], ["overloaded"], ["shutting_down"]) and
    ["retry_after"] — a float hint, in seconds, that the request was shed
    by a transient cap and is worth retrying after that long.

    {b Failure model (protocol armor).} The server assumes every client
    is slow, hostile, or both; the armor knobs live in {!Config}:
    - a request line is buffered at most [Config.max_request_bytes]
      deep; a longer line is answered with a typed [too_large] error
      (code 2, ["kind":"too_large"]) and drained without buffering — the
      session stays usable for its next request and memory stays bounded;
    - once a request's first byte arrives the rest must follow within
      [Config.request_timeout], and a session may idle between requests
      at most [Config.idle_timeout] — a one-byte-per-second slow-loris
      is reaped by whichever limit it trickles into, and response writes
      to a client that stops reading share the request-timeout budget;
    - at most [Config.max_sessions] sessions run concurrently; a
      connection past the cap receives one code-5 line with
      ["retry_after"] and is closed (shed at the door, counted under
      [server.shed_sessions]). Past 1024 queued requests the response
      is the same shed shape ([server.shed_requests]); with one request
      in flight per session, only a session cap above 1024 (or none)
      can reach that.
      Per-session in-flight is structurally 1: a session's requests are
      read and answered strictly in order, so pipelined bytes wait in
      the kernel buffer and user-space buffering stays bounded by
      [max_request_bytes];
    - [accept] failures from fd exhaustion ([EMFILE]/[ENFILE]...) back
      off exponentially instead of crashing ([server.accept_retries]);
    - the batcher thread runs under a watchdog: an escaped exception
      fails the in-flight requests — never the process — and the thread
      is relaunched ([server.batcher_restarts]); a shared-scan group
      whose warm pass raises runs its members unshared
      ([server.shared_fallbacks]).

    Every armor event is also recorded into a server-owned ring of the
    latest 32 (sites [server.shed], [server.reap], [server.protocol],
    [server.watchdog], [server.shared_scan]); the [stats] op returns them,
    oldest first, alongside the counters.

    {b Continuous telemetry.} Governed by two {!Config} knobs:
    - [Config.telemetry_tick] (default 1 s; 0 disables): a ticker thread
      pushes one {!Raw_storage.Io_stats} snapshot per tick into a bounded
      {!Raw_obs.Window} ring. The [stats] response then carries, beside
      ["uptime_s"], ["sessions_active"] and the ["counters"] object (all
      read from {e one} snapshot, so successive responses diff cleanly),
      a ["latency"] object: ["cumulative"] (["count"] plus
      [p50]/[p95]/[p99] of the [server.request.seconds] histogram since
      boot) and ["windows"] — one entry per 10s/60s/5m window with
      ["seconds"] (actual span), ["requests"], ["qps"] and the window's
      own percentiles, derived from snapshot deltas. Percentile keys are
      present only when the (window's) histogram is non-empty.
    - [Config.trace_retain] (default 32; 0 disables): every query
      request gets a span tree
      [session -> read / queue-wait / batch -> (shared-scan | execute |
      cached) / write] built on {!Raw_obs.Trace} across the session and
      batcher threads (a hit's tree has the same shape, recorded on the
      session thread, with a 0-long queue-wait and a batch span covering
      the lookup); the [trace_retain] slowest traces of the last 5
      minutes are retained and returned by [{"op": "trace"}] as
      [{"traces": [{"sql", "session", "seconds", "age_s", "trace":
      <Chrome trace-event JSON, same exporter as --trace-out>}]}],
      slowest first.

    [{"op": "profile"}] returns the same retained traces rendered as
    flamegraph-compatible folded stacks ({!Raw_obs.Prof.folded_of_spans},
    one fold per retained trace, concatenated), followed by the
    process's cumulative copy-site counters
    ({!Raw_obs.Prof.folded_of_copies}), in a ["folded"] string field.
    Wall-time stacks come from request tracing alone; allocation-weighted
    stacks and [copies;*] lines appear when the server runs with
    [Config.profile]. Feed the field to [rawq profile] or any
    [flamegraph.pl]-style renderer.

    [{"op": "metrics"}] returns the full Prometheus text exposition
    ({!Raw_obs.Export.prometheus_of_snapshot}) in an ["exposition"]
    string field (the wire protocol is one JSON object per line, so the
    exposition is tunneled as a string; ["content_type"] carries the
    conventional exposition content type for scrapers that re-serve it).

    {b Execution model.} Each accepted session gets a thread that parses
    requests and blocks per query. The session thread (1) binds through
    the statement cache, (2) re-stats the query's files, invalidating
    caches for any that changed ({!Raw_db.refresh_tables}), and (3)
    looks the result up in the result cache. A bind error or a hit is
    answered at once, without waiting for the batch window. Only a miss
    (and every query under {!Config.approx} or with the result cache
    off) is queued, with its bound plan, for the single batcher thread.
    The batcher re-stats the queued misses' files and waits a
    [batch_window] so contemporaries join the batch only when one of them
    {!Shared_scan.reads_raw}: a miss over columns already in memory has
    no read to share and runs at once. It re-stats the batch's files
    again (they may have changed since the lookup) and groups the batch
    by table: a group of two or more shareable queries, one of which
    reads the raw file, shares one {!Shared_scan.warm} pass; then every
    query runs through {!Raw_db.run_plan}, shared or not (so each gets
    its own deadline, history record and error). Each request counts exactly one
    [cache.result.hits] or [.misses] (none when results are not
    cached).

    {b Engine mutex.} The adaptive state keeps its single-writer
    discipline under one server-wide mutex: a session thread holds it
    across steps (1)-(3) and the enqueue of a miss, and the batcher
    holds it across a whole batch, taking it before it drains the
    queue. So a miss queued under the mutex joins the next batch, a
    lookup that waited for the mutex sees every result the running
    batch put, and a hit never overlaps an invalidation. A hit that
    arrives while a batch executes waits for that batch, but never for
    the window.

    {b Shutdown.} A [{"op": "shutdown"}] request answers, stops the accept
    loop, drains in-flight queries, half-closes the sessions and removes
    the socket file; {!serve} then returns.

    Counters: [server.connections], [server.requests], [server.errors],
    [server.batches], [server.batched_queries], the armor family ([server.too_large],
    [server.shed_sessions], [server.shed_requests],
    [server.accept_retries], [server.shared_fallbacks],
    [server.batcher_restarts], [server.session_end.<cause>]), the
    [cache.*] family from {!Stmt_cache}, and [catalog.extends] /
    [catalog.invalidations] from {!Catalog.refresh_path}. Abnormal session ends are also
    logged to stderr with their session id and cause. *)

val serve :
  ?batch_window:float ->
  ?cache_results:bool ->
  socket_path:string ->
  Raw_db.t ->
  unit
(** Listen on [socket_path] (an existing socket file is replaced) and
    block until a client requests shutdown. [batch_window] (seconds,
    default 2 ms) is the shared-scan batching window, which only
    result-cache misses wait for, and only when a queued miss would read
    the raw file ({!Shared_scan.reads_raw}) — 0 disables batching delay;
    [cache_results] (default [true]) enables the result cache. The armor
    knobs ([max_request_bytes], [request_timeout], [idle_timeout],
    [max_sessions]) come from the database's {!Config}. Raises
    [Unix.Unix_error] if the socket cannot be bound. *)

(** A minimal client for the line protocol — what [rawq client], the
    throughput bench and the tests use. Not thread-safe; use one
    connection per thread.

    Transport failures are typed so a retry layer can classify them:
    only {!Refused} (the server was never reached) and an overload
    response carrying [retry_after] are known-idempotent-safe to retry;
    a {!Closed_mid_response} or {!Response_timeout} is ambiguous — the
    server may have executed the request — and is never retried by
    {!with_retry}. *)
module Client : sig
  type conn

  (** Why a round trip failed, from the client's point of view. *)
  type err_kind =
    | Refused
        (** the connection could not be established — the server was
            never reached, so retrying is always safe *)
    | Send_failed
        (** the request could not be written; counted under
            [server.client.send_errors] *)
    | Response_timeout  (** no complete response line within the budget *)
    | Closed_mid_response
        (** the connection dropped before a full response line arrived *)
    | Bad_frame  (** the response line was not valid JSON *)

  type err = { kind : err_kind; detail : string }

  val err_to_string : err -> string

  val connect : ?connect_timeout:float -> ?request_timeout:float -> string -> conn
  (** Raises [Unix.Unix_error] if the socket cannot be reached —
      [ETIMEDOUT] if [connect_timeout] (seconds) elapses first.
      [request_timeout] (seconds, default none) bounds each later round
      trip on this connection: the write of the request and the wait for
      its response line. *)

  val query : ?id:int -> conn -> string -> (Raw_obs.Jsons.t, err) result
  (** One request/response round trip; [Error] means a transport or
      framing failure (server-side query errors come back as [Ok]
      responses with ["ok": false]). *)

  val ping : conn -> (Raw_obs.Jsons.t, err) result
  val stats : conn -> (Raw_obs.Jsons.t, err) result

  val metrics : conn -> (Raw_obs.Jsons.t, err) result
  (** The [{"op": "metrics"}] round trip: Prometheus text exposition in
      the response's ["exposition"] field. *)

  val trace : conn -> (Raw_obs.Jsons.t, err) result
  (** The [{"op": "trace"}] round trip: the retained slowest request
      traces as Chrome trace-event JSON. *)

  val profile : conn -> (Raw_obs.Jsons.t, err) result
  (** The [{"op": "profile"}] round trip: folded flamegraph stacks over
      the retained traces plus copy-site counters, in ["folded"]. *)

  val shutdown : conn -> (Raw_obs.Jsons.t, err) result
  (** Ask the server to shut down (acknowledged before it stops). *)

  val close : conn -> unit

  (** Seeded exponential backoff for the two retryable failure classes. *)
  type retry_policy = {
    attempts : int;  (** total attempts, including the first *)
    base_delay : float;  (** first backoff, seconds *)
    max_delay : float;  (** backoff cap, seconds *)
    seed : int;  (** jitter stream seed ({!Raw_storage.Net_fault.Stream}) *)
  }

  val default_retry : retry_policy
  (** 4 attempts, 50 ms base doubling to a 2 s cap. *)

  val with_retry :
    ?policy:retry_policy ->
    ?connect_timeout:float ->
    ?request_timeout:float ->
    socket:string ->
    (conn -> (Raw_obs.Jsons.t, err) result) ->
    (Raw_obs.Jsons.t, err) result
  (** Connect, run the request, close; on a retryable failure — connect
      refused/absent, or an [ok:false] code-5 response carrying
      [retry_after] — sleep [max retry_after backoff] scaled by a seeded
      jitter in [0.5, 1.5) and try again, up to [policy.attempts] total.
      Anything ambiguous (send failure, timeout, mid-response drop) is
      returned as-is, never retried. Retries are counted under
      [server.client.retries]. *)
end
