(** CSV: the paper's representative textual format (§4.2).

    Field locations are data-dependent — column N of each row is found only
    by tokenizing — which is exactly why positional maps ({!Posmap}) exist.
    This module provides the byte-level machinery every CSV access path
    builds on: a navigation cursor over a memory-mapped file, fast typed
    field parsers (the paper's "custom version of atoi"), and a generator
    for the synthetic workloads. *)

open Raw_vector
open Raw_storage

(** {1 Generation} *)

val write_file : path:string -> ?sep:char -> header:string list option ->
  rows:string list Seq.t -> unit -> unit
(** Writes rows of pre-rendered fields. *)

val generate :
  path:string ->
  ?sep:char ->
  n_rows:int ->
  dtypes:Dtype.t array ->
  seed:int ->
  unit ->
  unit
(** Deterministic synthetic file: integers uniform in [0, 10^9) (as in the
    paper), floats uniform in [0, 10^9) with 3 decimals, bools, and short
    strings. *)

val render_value : Value.t -> string

(** {1 Fast field parsers}

    Each parses the byte range [pos, pos+len) of [buf]; they are the
    data-type conversion functions a JIT access path bakes into the scan
    operator. Malformed input raises the typed
    [Raw_storage.Scan_errors.Error] carrying the field's byte offset, so
    scan kernels can apply the active error policy. [parse_int] rejects
    values outside [[min_int, max_int]] as [bad int] instead of wrapping.
    [parse_float] returns exactly what [float_of_string] does: its fast
    path takes plain decimals of at most 15 digits, and everything else
    (longer mantissas, exponents, unusual syntax) falls back to
    [float_of_string]. *)

val parse_int : Bytes.t -> int -> int -> int
val parse_float : Bytes.t -> int -> int -> float
val parse_bool : Bytes.t -> int -> int -> bool
val parse_string : Bytes.t -> int -> int -> string

(** {1 Navigation} *)

module Cursor : sig
  (** A byte cursor over a memory-mapped CSV file. All reads are accounted
      to the file's simulated page cache. *)

  type t

  val create : ?sep:char -> ?pos:int -> ?limit:int -> Mmap_file.t -> t
  (** Positioned at [pos] (default 0). [limit] bounds the cursor to the byte
      range [[pos, limit)] — {!at_eof} holds at [limit] — so a morsel worker
      can scan its slice of the file with the standard row loop. *)

  val pos : t -> int
  val seek : t -> int -> unit
  val at_eof : t -> bool

  val next_field : t -> int * int
  (** [(start, len)] of the field beginning at the cursor. Advances past the
      trailing separator if there is one, otherwise leaves the cursor on the
      line terminator (['\n'], or the ['\r'] of a CRLF ending) / EOF. At a
      terminator or EOF the field is empty ([len = 0]) and the cursor does
      not move — an empty final field ("a,b,") parses as [""]; the caller's
      [skip_line] consumes the terminator between rows. *)

  val skip_field : t -> unit
  (** Like {!next_field} without returning the span (cheaper: no length
      bookkeeping by callers). *)

  val split : t -> int -> int array -> int array -> unit
  (** [split t n starts ends] finds the next [n] field spans of the row at
      the cursor 8 bytes at a time, writing field [k]'s bytes
      [[starts.(k), ends.(k))] for [k < n], and leaves the cursor exactly
      where [n] calls of {!next_field} would: past the [n]-th field's
      separator, or on the row's terminator / EOF. As with
      {!next_field}, fields past the end of the row are empty, at the
      terminator. Raises [Invalid_argument] if either array holds fewer
      than [n] entries.

      The row's span is touched once instead of once per field, so the
      same pages fault in the same order ({!Raw_storage.Mmap_file.faults}
      and simulated I/O are unchanged) but
      {!Raw_storage.Mmap_file.hits}, which counts the pages of every
      touch call, grows by about one per split rather than one per
      field. *)

  val at_end_of_line : t -> bool

  val skip_line : t -> unit
  (** Advance past the next ['\n'] (or to EOF). *)
end

val count_rows : ?pos:int -> Mmap_file.t -> int
(** Number of newline-terminated rows (a final unterminated row counts)
    in the bytes from [pos] (default 0, a row start) to the end,
    counting newlines 8 bytes at a time. Does no page accounting. *)

val row_aligned_ranges : Mmap_file.t -> n:int -> (int * int) list
(** [row_aligned_ranges file ~n] cuts the file into at most [n] byte ranges
    [(start, stop)], each a whole number of rows (cuts advance to just past
    the next newline). Ranges are non-empty and partition [[0, length)];
    the empty file yields [[]]. The morsel boundary finder for parallel CSV
    scans. *)
