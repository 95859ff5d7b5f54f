(** RAW: the user-facing façade.

    Register raw files under table names, then query them with SQL or with
    logical plans; the engine adapts to the files (JIT access paths,
    positional maps, column shreds) across queries. See README.md for a
    tour. *)

open Raw_vector
open Raw_formats

type t

val create : ?config:Config.t -> ?options:Planner.options -> unit -> t
(** Validates the configuration — raises
    {!Raw_storage.Resource_error.Invalid_config} on a bad knob. When
    [config.max_concurrent] is set, queries pass an admission gate: at most
    that many in flight, the rest rejected with a typed
    {!Raw_storage.Resource_error.Overloaded}; admitted queries execute one
    at a time (the engine's adaptive state is single-writer), with each
    query's deadline still armed while it waits its turn. *)

val catalog : t -> Catalog.t
val options : t -> Planner.options
val set_options : t -> Planner.options -> unit

val stmt_cache : t -> Stmt_cache.t
(** The session's statement + result cache. Created with the session; when
    a memory budget is configured it is registered as the budget's
    priority-0 [results] consumer (first to drop). *)

(** {1 Registration} *)

val register_csv :
  t -> name:string -> path:string -> ?sep:char ->
  columns:(string * Dtype.t) list -> unit -> unit

val register_jsonl :
  t -> name:string -> path:string -> columns:(string * Dtype.t) list -> unit
(** Column names are dotted paths into the objects (e.g. ["user.id"]) —
    a partial schema over hierarchical data. Absent fields read as NULL. *)

val register_fwb :
  t -> name:string -> path:string -> columns:(string * Dtype.t) list -> unit

val register_jsonl_array :
  t -> name:string -> path:string -> array_path:string ->
  columns:(string * Dtype.t) list -> unit
(** Flattened child table over an array of objects inside each JSONL row
    ([array_path] is the dotted path to the array). The table's first
    column is always [parent] (the parent row id); [columns] are dotted
    paths within each element. Pairs with a {!register_jsonl} of the same
    file for parent/child joins, like the HEP particle tables. *)

val register_ibx :
  t -> name:string -> path:string -> columns:(string * Dtype.t) list -> unit
(** Indexed binary file ({!Raw_formats.Ibx}); the embedded B+-tree is used
    automatically for range predicates on the indexed column when
    {!Planner.options.use_indexes} is on. *)

val register_hep : t -> name_prefix:string -> path:string -> unit
(** Registers [<prefix>_events], [<prefix>_muons], [<prefix>_electrons],
    [<prefix>_jets] over one HEP file. *)

(** {1 Querying} *)

val query :
  ?options:Planner.options ->
  ?cancel:Raw_storage.Cancel.t ->
  t -> string -> Executor.report
(** Run a SQL string. Raises {!Sql_binder.Bind_error} or
    {!Raw_sql.Parser.Error} on bad input; under governance also
    {!Raw_storage.Resource_error.Overloaded} (admission),
    [Deadline_exceeded] or [Cancelled] (see {!Executor.run}). [cancel]
    overrides the token otherwise armed from {!Config.deadline}. *)

val run_plan :
  ?options:Planner.options ->
  ?cancel:Raw_storage.Cancel.t ->
  ?pre_spans:(string * float * float) list ->
  t -> Logical.t -> Executor.report
(** Like {!query} over an already-bound plan; [pre_spans] forwards to
    {!Executor.run} (used by {!query} to stitch the bind phase into the
    trace when {!Config.observe} is on). *)

val fresh_cancel : t -> Raw_storage.Cancel.t
(** A new cancel token armed from {!Config.deadline} ({!Raw_storage.Cancel.never}
    when no deadline is configured) — what {!query} arms when no [cancel]
    is passed. The server arms one per shared-scan warm pass. *)

val with_admission :
  t -> cancel:Raw_storage.Cancel.t -> (unit -> 'a) -> 'a
(** Run [f] under the admission gate (identity when [max_concurrent] is
    unset): counts the caller against the concurrency limit, raising
    {!Raw_storage.Resource_error.Overloaded} beyond it, then serializes on
    the execution lock, checking [cancel] while waiting. Exposed so tests
    and drivers can hold an admission slot deterministically; {!query} and
    {!run_plan} use it internally. *)

val bind_cached : t -> string -> Logical.t
(** Parse + bind [sql] through the statement cache: a repeated statement
    (byte-identical SQL text) returns its bound plan without re-parsing.
    Raises the same exceptions as {!query} on bad input. Counts
    [cache.stmt.hits]/[.misses]. *)

val refresh_tables : t -> string list -> string list
(** Re-stat the files behind the named tables (unknown names ignored) and,
    for any whose identity changed since it was opened, extend the
    per-file adaptive state over a verified append or drop it
    ({!Catalog.refresh_path}), and drop every cached statement and result
    that mentions an affected table. Returns the affected table names;
    counts one [cache.invalidations] per changed file. The server calls
    this for a batch's tables before executing it. *)

val stale_tables : t -> string list -> string list
(** The named tables whose files changed since they were opened (one
    stat per file, nothing else touched). The server drops their cached
    statements and results before consulting the result cache — what
    makes cached answers track file changes — and leaves the per-file
    state to the {!refresh_tables} of the batch that executes the miss. *)

val explain : ?options:Planner.options -> t -> string -> string list
(** The planner's decision trace for a SQL query (strategy, eager vs
    deferred scans, index use, late-scan attachment points) without
    executing the plan. Eager modes perform their bottom reads during
    planning. *)

val sql : t -> string -> Chunk.t
(** Convenience: {!query} and return just the rows. *)

val scalar : t -> string -> Value.t
(** Convenience for single-value queries: the first column of the first row.
    Raises [Invalid_argument] if the result is empty. *)

(** {1 Introspection & maintenance} *)

val describe : t -> string -> Schema.t
(** Raises [Not_found]. *)

val tables : t -> string list

val hep_reader : t -> string -> Hep.Reader.t
(** Direct access to the HEP library for a registered [<prefix>_events]
    table — what the hand-written analysis baseline uses. *)

val drop_file_caches : t -> unit
(** Make all files cold (see {!Raw_storage.Mmap_file}). *)

val forget_data_state : t -> unit
(** Forget positional maps, shreds and loaded columns, but keep compiled
    templates (see {!Catalog.forget_data_state}). *)

val forget_adaptive_state : t -> unit
(** Forget positional maps, shreds, templates and loaded columns. *)
