(** JSONL scan kernels: JIT access paths over hierarchical textual data.

    Schema field names are dotted paths into the objects ("user.id").
    Unlike CSV, a column's location inside a row is not positionally
    stable, so the kernels match keys through a path trie whose leaves are
    per-column emitters (the field readers of this format). The mode
    chooses the emitter set: a JIT emitter has the data-type conversion
    and builder baked into one monomorphic closure, an interpreted one
    looks the column's type up in the catalog and dispatches for every
    value. The error policy wraps either set ([Null_fill]: record-and-NULL
    around each emitter; [Skip_row]: emitters for every schema column and
    a row rollback). One sequential loop serves every policy. Absent fields
    yield NULL.

    The positional-map analogue indexes row starts; {!fetch} jumps straight
    to the requested rows. *)

open Raw_vector
open Raw_storage

val seq_scan :
  mode:Scan_csv.mode ->
  ?policy:Scan_errors.policy ->
  file:Mmap_file.t ->
  schema:Schema.t ->
  needed:int list ->
  unit ->
  Column.t array * int array
(** Full scan; also returns the row-start offsets discovered on the way
    (the structure index cached by the catalog).

    [policy] (default [Fail_fast]) selects error handling. [Skip_row]
    validates {e every} schema column per row (row identity must not depend
    on the queried columns) and drops broken rows — the returned row starts
    name only the kept rows. [Null_fill] keeps every physical row: a failed
    conversion yields NULL for that field; a structurally broken row yields
    all-NULL values and the scan resyncs at the next line. Both record into
    {!Raw_storage.Scan_errors}. *)

val valid_row_starts :
  ?pos:int ->
  file:Mmap_file.t ->
  schema:Schema.t ->
  ?record:bool ->
  unit ->
  int array
(** The row starts a [Skip_row] scan keeps — the same scan loop and
    validation, so cached row counts and scan results agree. [pos]
    (default 0, a line start) is where the pass begins. [record]
    (default [false]) says whether the pass also records the errors. *)

val fetch :
  mode:Scan_csv.mode ->
  ?policy:Scan_errors.policy ->
  file:Mmap_file.t ->
  schema:Schema.t ->
  row_starts:int array ->
  cols:int list ->
  rowids:int array ->
  unit ->
  Column.t array
(** Under [Null_fill], a structurally broken row fetches as all-NULL and is
    recorded; [Skip_row] row ids only ever name rows the scan validated, so
    under both other policies a structural error escapes. *)

val template_key :
  phase:string -> table:string -> needed:int list ->
  policy:Scan_errors.policy -> string

(** {1 Flattened child tables over JSON arrays}

    A path to an array of objects becomes a relational child table: one row
    per element, with schema column 0 = parent row id and the remaining
    columns = dotted paths {e within} the element (paper §4.1's
    flatten-the-nesting option, the JSON analogue of the HEP particle
    tables). *)

val array_index :
  file:Mmap_file.t ->
  row_starts:int array ->
  array_path:string list ->
  int array * int array
(** [(parents, positions)]: for each element (dense child row id), its
    parent row id and the byte offset of its object. *)

val scan_array :
  mode:Scan_csv.mode ->
  ?policy:Scan_errors.policy ->
  file:Mmap_file.t ->
  schema:Schema.t ->
  index:int array * int array ->
  needed:int list ->
  rowids:int array option ->
  unit ->
  Column.t array
(** Element identity is pinned by the parent-side array index, so a child
    table can never drop rows: under both lenient policies a structurally
    broken element degrades to all-NULL fields (and is recorded). *)
