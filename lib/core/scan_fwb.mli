(** Fixed-width binary scan kernels (paper §4.1-4.2).

    For this format the location of every data element is known in advance,
    so no positional map exists. Sequential scans and fetches share one
    column loop ({!Scan_kit.columns}) over per-column readers; they differ
    only in the row ids they visit. The mode chooses the reader set:

    - {b Interpreted}: for every value, the field offset is obtained
      through the layout at runtime and the read is dispatched on the data
      type into a builder — the general-purpose operator.
    - {b Jit}: the paper's "inject the binary offsets into the code":
      base offset and stride baked into a monomorphic reader that stores
      into an unboxed array. *)

open Raw_vector
open Raw_storage
open Raw_formats

val row_bound : policy:Scan_errors.policy -> Fwb.layout -> Mmap_file.t -> int
(** The number of whole rows in [file]. On a ragged file length
    [Fail_fast] raises; the lenient policies record the trailing bytes and
    count only the whole rows. *)

val seq_scan :
  mode:Scan_csv.mode ->
  ?policy:Scan_errors.policy ->
  ?rows:int * int ->
  file:Mmap_file.t ->
  layout:Fwb.layout ->
  schema:Schema.t ->
  needed:int list ->
  unit ->
  Column.t array
(** Read [needed] (schema indexes) for all rows — or the row range
    [[lo, hi)] when [rows] is given (a morsel). Result follows [needed]
    order.

    FWB values cannot fail to decode, so [policy] (default [Fail_fast])
    only governs a ragged file length: [Fail_fast] raises the typed
    [Raw_storage.Scan_errors.Error]; the lenient policies scan the whole
    rows and record the trailing bytes. Ignored when [rows] is given. *)

val par_scan :
  mode:Scan_csv.mode ->
  ?policy:Scan_errors.policy ->
  parallelism:int ->
  file:Mmap_file.t ->
  layout:Fwb.layout ->
  schema:Schema.t ->
  needed:int list ->
  unit ->
  Column.t array
(** Morsel-driven parallel scan over {!Raw_formats.Fwb.row_ranges} morsels;
    bit-identical to {!seq_scan} at any [parallelism]. *)

val fetch :
  mode:Scan_csv.mode ->
  file:Mmap_file.t ->
  layout:Fwb.layout ->
  schema:Schema.t ->
  cols:int list ->
  rowids:int array ->
  Column.t array
(** Point reads at computed offsets for the given row ids. *)

val template_key :
  phase:string -> table:string -> needed:int list ->
  policy:Scan_errors.policy -> string
