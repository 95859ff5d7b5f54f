(** HEP scan kernels (paper §6).

    RAW's generated access paths for ROOT "emit code that calls the ROOT
    I/O API instead of interpreting bytes". The interpreted readers call
    {!Raw_formats.Hep.Reader}'s field-level API per value. The JIT readers
    go through its decoded event offsets: an events value is one load at
    its record offset, and a particle column resolves its collection's
    start once per event, then reads each value with one load. Both fault
    the same pages. Entry-id addressability is what the paper maps to
    index-based scans: fetching a subset of entries touches only those
    entries' bytes.

    Particle tables are the flattened relational view (one row per
    particle, with its event id); dense row ids map to (entry, item) pairs
    through the index built by {!Catalog.hep_index}. *)

open Raw_vector
open Raw_storage
open Raw_formats

val scan_events :
  mode:Scan_csv.mode ->
  ?policy:Scan_errors.policy ->
  reader:Hep.Reader.t ->
  needed:int list ->
  rowids:int array option ->
  unit ->
  Column.t array
(** [needed] indexes {!Format_kind.hep_event_schema}; [rowids] = entry ids
    ([None] = all entries).

    [policy] (default [Fail_fast]) governs only what a full enumeration
    means: a HEP record whose structure is corrupt has no recoverable
    fields (the record boundary itself is gone), so both lenient policies
    enumerate {!Raw_formats.Hep.Reader.valid_entries} and record the rest —
    [Null_fill] degrades to skip. Explicit [rowids] are used verbatim. *)

val scan_particles :
  mode:Scan_csv.mode ->
  reader:Hep.Reader.t ->
  coll:Hep.coll ->
  index:int array * int array ->
  needed:int list ->
  rowids:int array option ->
  Column.t array
(** [needed] indexes {!Format_kind.hep_particle_schema}; [rowids] are dense
    particle row ids ([None] = all). *)

val par_scan_events :
  mode:Scan_csv.mode ->
  ?policy:Scan_errors.policy ->
  parallelism:int ->
  reader:Hep.Reader.t ->
  needed:int list ->
  rowids:int array option ->
  unit ->
  Column.t array
(** Morsel-driven parallel {!scan_events}: the entry-id array is cut into
    contiguous slices, one worker domain per slice against a forked reader
    view, columns concatenated in slice order. A JIT scan decodes the
    entries' offsets before forking, so the views share them. Bit-identical
    to {!scan_events} at any [parallelism]. *)

val par_scan_particles :
  mode:Scan_csv.mode ->
  parallelism:int ->
  reader:Hep.Reader.t ->
  coll:Hep.coll ->
  index:int array * int array ->
  needed:int list ->
  rowids:int array option ->
  Column.t array
(** Morsel-driven parallel {!scan_particles} over dense particle row-id
    slices; bit-identical to the sequential scan. *)

val template_key :
  phase:string -> table:string -> needed:int list ->
  policy:Scan_errors.policy -> string
