(** Pieces shared by the per-format scan modules.

    - {!template_key}: the one cache-key shape for generated kernels.
    - The column loop of the columnar formats (FWB, HEP): a scan or a
      fetch is a list of per-column {!reader}s run over the same rows.
      JIT readers store into a monomorphic array through a reader closure
      chosen once per column; interpreted readers go through a {!Builder}
      with a dynamically typed value per row. *)

open Raw_vector
open Raw_storage

val template_key :
  ?extra:(string * string) list -> string -> phase:string -> table:string ->
  needed:int list -> policy:Scan_errors.policy -> string
(** [template_key fmt ~phase ~table ~needed ~policy] keys a generated
    kernel by file identity and kernel shape, including the error policy
    (a [Null_fill] kernel is different code from a [Fail_fast] one).
    [extra] adds format-specific shape attributes. *)

type reader
(** Produces one output column: called with (output slot, row id) for
    every row, then finished into a column. *)

val ints : int -> (int -> int) -> reader
val floats : int -> (int -> float) -> reader
val bools : int -> (int -> bool) -> reader
(** [ints n get] etc.: a JIT reader for [n] rows whose value at row id [r]
    is [get r], stored straight into an unboxed array. *)

val values : int -> Dtype.t -> (int -> Value.t) -> reader
(** The interpreted reader: every value goes through {!Builder.add_value}. *)

val columns : ?ids:int array -> ?lo:int -> int -> reader list -> Column.t array
(** [columns ?ids ?lo n readers] runs every reader over [n] rows — row ids
    [ids.(k)] when given, else [lo + k] (default [lo = 0]) — one column at
    a time, polling the ambient {!Cancel} token every 4096 values. Under an
    armed token the [n] rows are added to [scan.rows_scanned]. *)
