(** CSV scan kernels: the general-purpose (in-situ) and JIT access paths
    (paper §4.1).

    There is one sequential-scan loop and one fetch loop. Each is driven
    by a per-column array of field readers, built once per call; the mode
    only chooses which reader set:

    - {b Interpreted} readers are the NoDB-style general-purpose operator:
      for every field they consult the column tables ("is this column
      tracked by the positional map?", "is it requested?") and dispatch on
      the data type from the catalog — the branches the paper blames for
      in-situ overhead.
    - {b Jit} readers start each row with one word-at-a-time
      {!Raw_formats.Csv.Cursor.split} of the fields up to the last one the
      scan touches, then run one monomorphic closure per touched column
      that converts (or records) straight from its span: the data-type
      conversion is baked in, tracked-position recording appears only
      where a tracked column actually sits, and untouched columns cost
      nothing past the split. This is the closure-specialization analogue
      of the paper's generated C++ (see DESIGN.md §1). The interpreted
      readers keep the byte-at-a-time {!Raw_formats.Csv.Cursor.next_field}.

    The error policy is a further stage over either set: [Fail_fast] adds
    nothing, [Null_fill] wraps converting readers in record-and-NULL, and
    [Skip_row] adds validate-only readers for the other schema columns and
    a row-level rollback.

    The loops report work through {!Raw_storage.Io_stats} counters
    [csv.fields_tokenized], [csv.values_converted], [scan.values_built],
    counted per row from the reader set rather than per field. *)

open Raw_vector
open Raw_storage
open Raw_formats

type mode = Interpreted | Jit

val mode_to_string : mode -> string

val seq_scan :
  mode:mode ->
  ?policy:Scan_errors.policy ->
  ?range:int * int ->
  file:Mmap_file.t ->
  sep:char ->
  schema:Schema.t ->
  needed:int list ->
  tracked:int list ->
  unit ->
  Column.t array * Posmap.t option
(** Full sequential scan. [needed] are schema indexes (result columns follow
    their order); [tracked] are source-column ordinals to record into a
    fresh positional map ([[]] = build none). Field lengths are recorded for
    tracked columns, enabling the length-aware parse in {!fetch}. [range]
    restricts the scan to a row-aligned byte range [(lo, hi)] (a morsel);
    recorded positions stay absolute.

    [policy] (default [Fail_fast]) selects the error handling. [Fail_fast]
    runs the plain reader set and lets the typed
    {!Raw_storage.Scan_errors.Error} propagate on the first malformed
    field. [Skip_row] adds validate-only readers so that {e every} schema
    column is checked per row — row identity must not depend on the
    queried columns — and drops bad rows, rolling their builder and
    posmap entries back; [Null_fill] wraps the converting readers so that
    every physical row is kept and bad requested fields decode to NULL.
    Both record into {!Raw_storage.Scan_errors}. *)

val count_valid_rows :
  ?range:int * int ->
  file:Mmap_file.t ->
  sep:char ->
  schema:Schema.t ->
  ?record:bool ->
  unit ->
  int
(** How many rows a [Skip_row] scan of this file yields — the same scan
    loop and validation, so cached row counts, positional maps and scan
    results always agree. [range] restricts the pass to a row-aligned
    byte range, as in {!seq_scan}. [record] (default [false]) says
    whether the pass also records the errors it encounters. *)

val par_scan :
  mode:mode ->
  ?policy:Scan_errors.policy ->
  parallelism:int ->
  file:Mmap_file.t ->
  sep:char ->
  schema:Schema.t ->
  needed:int list ->
  tracked:int list ->
  unit ->
  Column.t array * Posmap.t option
(** Morsel-driven parallel scan: {!Raw_formats.Csv.row_aligned_ranges}
    morsels, one {!seq_scan} per morsel on its own domain against a forked
    file view, results stitched in morsel order. Bit-identical to
    [seq_scan] at any [parallelism]; [parallelism <= 1] {e is} [seq_scan].
    Morsel boundaries are structural (newlines), so they are unaffected by
    row validity: a [Skip_row] parallel scan drops exactly the rows the
    sequential one drops, and the stitched posmap matches. Worker-domain
    error records are merged deterministically by {!Morsel.map_domains}. *)

val fetch :
  mode:mode ->
  ?policy:Scan_errors.policy ->
  file:Mmap_file.t ->
  sep:char ->
  schema:Schema.t ->
  posmap:Posmap.t ->
  cols:int list ->
  rowids:int array ->
  unit ->
  Column.t array
(** Positional fetch of one or more schema columns for the given row ids
    (ascending columns; any row order — callers choose, and pay the
    locality consequences, paper §5.3.2). The fetch loop runs one reader
    set per row: the first reader jumps to the tracked column at or before
    the first requested column, and each further reader converts one
    requested field, so multiple requested columns share one pass over the
    row (multi-column shreds, §5.3.1). The JIT first reader also splits
    the row from there to the last requested column in one
    word-at-a-time pass; the interpreted readers walk each gap field by
    field. A single JIT column that is
    itself tracked with recorded lengths is read by one length-aware
    reader without tokenizing. Raises [Failure] if the positional map
    tracks nothing at or before the first column.

    Under [Null_fill] the converting readers are wrapped to decode bad
    fields to NULL and record them. [Skip_row] adds nothing: its row ids
    only name rows the scan already validated schema-wide. *)

val can_fetch : schema:Schema.t -> posmap:Posmap.t -> cols:int list -> bool
(** Whether {!fetch} would succeed (some tracked column at or before the
    first requested column's source ordinal). [cols] are schema indexes. *)

val template_key :
  phase:string -> table:string -> sep:char -> needed:int list ->
  tracked:int list -> policy:Scan_errors.policy -> string
(** Cache key for a generated kernel: file identity + kernel shape
    (including the error policy — a [Null_fill] kernel is different code
    from a [Fail_fast] one). *)
