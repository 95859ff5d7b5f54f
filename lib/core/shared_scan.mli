(** Shared scans: one raw-file traversal feeding N concurrent queries.

    The server groups queries that arrive within a batching window by the
    raw file they read. It waits for that window only when a queued query
    {!reads_raw}: a query over columns already in memory has no read to
    share, so it runs at once, alone. A group is one {e warm pass} plus
    ordinary queries: {!warm} plans and drains a scan of the members'
    scan columns that the pool does not hold yet, which leaves each as a full
    shred in the shred pool (or as the DBMS-loaded columns). Each member
    then runs through the planner and executor like any other query; its
    fetches hit the pool, so the raw file is still read once per group —
    the paper's repeated-access economics applied across concurrent
    clients instead of across time.

    Members are ordinary queries, so their answers are those of a one-shot
    session, and each gets its own deadline, history record, profile and
    error. Under a memory budget a column the pool cannot hold is streamed
    from the file by the members that need it. *)

val shareable_table : Planner.options -> Logical.t -> string option
(** [Some table] iff the plan reads exactly one table, contains no join,
    and its access mode reads the shred pool (not [External], which
    re-converts the whole file on every query). *)

val reads_raw : Catalog.t -> Planner.options -> Logical.t -> bool
(** Whether the plan would read the raw file for a column: it is
    {!shareable_table} and it scans a column that {!Access.held} says is
    not in memory — exactly what its {!warm} pass would read. The server
    re-stats the plan's files first ({!Raw_db.refresh_tables}), so an
    invalidated file shows its columns as not in memory. A pooled column
    that lacks the rows of a verified append does not count: its first
    reader reads them, and no warm pass would. *)

val warm : Catalog.t -> Planner.options -> Logical.t list -> unit
(** The warm pass of a group: one planned scan of the plans' scan
    columns that {!Access.held} says are not in memory, drained once; no
    pass when there are none. All plans must be {!shareable_table} on
    the {e same} table ([Invalid_argument] otherwise). The caller runs
    groups one at a time (the engine's adaptive state is single-writer)
    and then runs each member through {!Raw_db.run_plan}. *)
