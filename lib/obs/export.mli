(** Exporters: Chrome trace-event JSON, Prometheus text exposition, and a
    human-readable span tree for EXPLAIN ANALYZE output. *)

val chrome_trace : Trace.span list -> string
(** The span list as a Chrome trace-event JSON document ([traceEvents]
    array of complete-["X"] events, microsecond timestamps), loadable in
    [chrome://tracing] or Perfetto. Exact parent links are carried in each
    event's [args.span_id]/[args.parent_id]. *)

val chrome_trace_json : Trace.span list -> Jsons.t

val write_chrome_trace : path:string -> Trace.span list -> unit

val prometheus : unit -> string
(** Prometheus text exposition of the calling domain's
    {!Raw_storage.Io_stats} snapshot: every exposed series gets its own
    [# HELP]/[# TYPE] pair (family members are distinct metric names in
    the exposition), counter names take the conventional [_total] suffix,
    histograms are reassembled into cumulative
    [_bucket{le=...}]/[_sum]/[_count] series, undeclared keys are exposed
    untyped. Names are sanitized and prefixed [raw_]; help text and label
    values are escaped per the text-format rules ({!escape_help},
    {!escape_label_value}). *)

val prometheus_of_snapshot : (string * float) list -> string
(** Same, over an explicit snapshot (e.g. the merged post-query one). *)

val build_version : string
(** Version string stamped into {!build_info}. *)

val build_info : unit -> string
(** The [rawq_build_info] gauge family: constant value 1 with [version]
    and [ocaml] labels, prepended to every exposition so dashboards can
    join any series against the deployed build. *)

val prom_name : string -> string
(** [raw_] + the id with non-[[a-zA-Z0-9_:]] characters mapped to [_]. *)

val escape_help : string -> string
(** Text-format HELP escaping: backslash and newline. *)

val escape_label_value : string -> string
(** Label-value escaping: backslash, double quote, and newline. *)

val pp_span_tree : Format.formatter -> Trace.span list -> unit
(** Indented tree (children under parents, ordered by start time) with
    per-span durations, worker tids and compact args. Decision events
    ({!Trace.decision}) are left out. *)
