(** The RAW catalog (paper §3).

    Each raw file exposed to RAW gets a table name; the catalog records the
    filename, the (possibly partial) schema and the file format, plus the
    per-file auxiliary state RAW accumulates adaptively: the memory-mapped
    file handle, the positional map, DBMS-loaded columns, and (for HEP
    particle tables) the flattened row-id index. The catalog also owns the
    engine-wide caches: the shred pool and the template cache. *)

open Raw_vector
open Raw_storage
open Raw_formats

(** Everything derived from one version of an entry's raw file. Only the
    catalog writes it: {!refresh_path} extends it over an append, and
    {!invalidate_path} replaces it whole. *)
type state = private {
  mutable file : Mmap_file.t option;
  mutable hep : Hep.Reader.t option;
  mutable posmap : Posmap.t option;
  mutable loaded : Column.t array option;
      (** DBMS-mode fully-loaded columns, schema order *)
  mutable n_rows : int option;
  mutable hep_index : (int array * int array) option;
      (** particle tables: dense row id -> (entry, item), built from the
          reader's decoded event offsets *)
  mutable row_starts : int array option;
      (** JSONL: byte offset of each row — the structure index *)
  mutable jarr_index : (int array * int array) option;
      (** JSONL child tables: dense row id -> (parent row, element offset) *)
  mutable ibx : Ibx.meta option;  (** IBX footer + index metadata *)
  mutable identity : File_id.t option;
      (** dev/ino/mtime/size of the bytes read when the file was opened
          or last extended — the version of the file every cached
          structure above was derived from; [None] while the file is
          unopened *)
}

type entry = private {
  name : string;
  path : string;
  format : Format_kind.t;
  schema : Schema.t;
  mutable state : state;
}

type t

val create : ?config:Config.t -> unit -> t
(** Validates the configuration ({!Config.check}) — raises
    {!Raw_storage.Resource_error.Invalid_config} on a bad knob — and, when
    [config.memory_budget] is set, creates the unified {!Raw_storage.Mem_budget}
    with the shred pool, template cache, positional maps and simulated file
    page caches registered as its consumers (eviction priorities 1..4 in
    that order — priority 0 is reserved for the result cache, registered
    separately by {!Stmt_cache.register_budget}). The positional-map
    consumer also lists the other structure indexes: JSONL row starts,
    the HEP particle and JSONL child-table indexes (with their table's
    posmap, one item per table) and each HEP file's decoded event
    offsets (one item per file). Each eviction is one [governance]
    decision, [evict_posmap] or [evict_event_offsets]. *)

val config : t -> Config.t
val shreds : t -> Shred_pool.t
val templates : t -> Template_cache.t

val budget : t -> Mem_budget.t option
(** The unified memory budget, when [config.memory_budget] is set. *)

val reserve_bytes : t -> int -> bool
(** [reserve_bytes t n] asks the budget to make room for [n] new bytes of
    adaptive state, evicting cold structures if necessary; always [true]
    when no budget is configured. [false] means the caller must not cache
    the structure (degrade to streaming instead). *)

val stats : t -> Table_stats.t
(** Column statistics accumulated as a side effect of full-column scans
    (see {!Table_stats}); feeds the {!Cost_model}. *)

val register : t -> name:string -> path:string -> format:Format_kind.t ->
  schema:Schema.t -> unit
(** Raises [Invalid_argument] on duplicate name, on a [String] column in an
    FWB table, or when a HEP format is given a schema (HEP schemas are
    fixed; pass the empty schema via {!register_hep} instead). *)

val register_hep : t -> name_prefix:string -> path:string -> unit
(** Registers the four relational views of one HEP file:
    [<prefix>_events], [<prefix>_muons], [<prefix>_electrons],
    [<prefix>_jets]. *)

val find : t -> string -> entry option
val get : t -> string -> entry
(** Raises [Not_found]. *)

val mem : t -> string -> bool
val tables : t -> string list

(** {1 Lazily-established per-file state} *)

val file : t -> entry -> Mmap_file.t
val hep_reader : t -> entry -> Hep.Reader.t
val n_rows : t -> entry -> int
(** Counts rows on first call (CSV: newline scan; FWB: size/row_size; HEP
    events: header; HEP particles: collection-length scan building the
    row-id index), unless a full pass has already set the count. *)

val set_n_rows : entry -> int -> unit
(** Record the row count a full pass over the file found; a later
    {!n_rows} then needs no pass of its own. *)

val hep_index : t -> entry -> int array * int array
(** HEP particle tables: builds the index by a count pass over the
    entries the error policy enumerates, then exact-size arrays, and
    retains it under the same rule as {!set_posmap}. Raises
    [Invalid_argument] for other formats. *)

val jarr_index : t -> entry -> int array * int array
(** JSONL child tables: builds the element index and retains it under
    the same rule as {!set_posmap}. Raises [Invalid_argument] for other
    formats. *)

val fwb_layout : entry -> Fwb.layout
(** Raises [Invalid_argument] if the entry is not FWB. *)

val ibx_meta : t -> entry -> Ibx.meta
(** Reads and caches the footer. Raises [Invalid_argument] if the entry is
    not IBX, [Failure] if the file is malformed. *)

val set_posmap : t -> entry -> Posmap.t -> unit
(** Retain a freshly-built positional map — if the memory budget (when
    configured) can make room for it. On reservation failure the map is
    discarded and [gov.fallbacks.posmap] counted: the next query
    re-tokenizes instead. *)

val set_row_starts : t -> entry -> int array -> unit
(** Retain a JSONL table's row starts (its positional map) under the same
    rule as {!set_posmap}. *)

val set_loaded : entry -> Column.t array -> unit
(** Keep the DBMS-mode loaded columns (schema order). *)

val files : entry list -> Mmap_file.t list
(** The files these entries have opened, each once (the four HEP views
    share one). *)

(** {1 Cache control (benchmarks need clean slates)} *)

val drop_file_caches : t -> unit
(** Simulated page caches of all registered files become cold. *)

val forget_data_state : t -> unit
(** Drops positional maps, JSONL row starts and child-table element
    indexes, DBMS-loaded columns, the shred pool, the HEP object caches
    and decoded event offsets, but keeps compiled templates — the state of a session
    whose data caches were reset while the generated-library cache (which
    only depends on query/file shapes, paper §4.2) stays warm. Benchmarks
    use this between measurements of the same query shape. *)

val forget_adaptive_state : t -> unit
(** {!forget_data_state} plus the template cache — as if no query had ever
    run. Keeps files registered. *)

(** {1 File identity: extension and invalidation}

    A long-lived server must notice when a raw file changes under it:
    positional maps, shreds, loaded columns and row counts derived from
    the old bytes may be wrong. Entries are stamped with the
    {!Raw_storage.File_id} of the bytes read when their file is opened
    ({!Raw_storage.Mmap_file.identity}); {!refresh_path} re-stats, and on
    a mismatch extends the state over a verified append or drops it. *)

val invalidate_path : t -> string -> string list
(** Unconditionally drop all per-file state (mmap handle, posmap, loaded
    columns, row counts, structure indexes, identity stamp) of every entry
    backed by [path], plus those tables' pooled shreds and the shared HEP
    reader. Returns the affected table names (sorted); tables whose file
    was never opened are not reported. *)

val stale_path : t -> string -> bool
(** Whether [path] changed since an entry backed by it was opened: one
    stat, nothing else touched. *)

val refresh_path : t -> string -> string list
(** Re-stat [path]; iff its identity changed since it was opened (or it
    disappeared), bring the per-file state of its entries up to date.
    Returns the affected table names — every opened entry of [path],
    sorted — or [[]] when the file is unchanged or was never opened; the
    caller drops results cached for them either way.

    The state is {e extended} when every changed entry is a CSV or JSONL
    table whose file only grew — same device and inode, larger size —
    was opened without an injected fault, ended in a newline, and still
    starts with exactly the bytes held ({!Raw_storage.Mmap_file.extend}:
    an exact compare, no hash). The new rows then get the row pass a
    fresh open runs, over the appended bytes only: JSONL row starts
    ({!Raw_formats.Jsonl.row_starts}, or the [Skip_row] scan's), CSV row
    count plus a positional-map segment over the same tracked columns.
    Row counts grow, resident pages stay resident, DBMS-loaded columns
    are dropped and every pooled shred of the table is lengthened with
    the new rows not fetched ({!Shred_pool.grow}), so the next query
    fetches only those. Anything else — truncation, a rewrite, a
    replaced inode, an edited prefix, a partial last line, an injected
    fault, or a HEP, IBX, FWB or JSONL child table — drops the state
    ({!invalidate_path}). Each outcome is one [catalog] decision,
    [extend_file] (bytes verified, rows appended) or [invalidate_file]
    (with its [reason]), counted under [catalog.extends] or
    [catalog.invalidations]. *)
