(** JSONL — newline-delimited JSON objects: the hierarchical textual format.

    The paper discusses hierarchical formats as a code-generation
    opportunity (§4.1: keep or flatten nesting per query) and names
    non-relational data models as future work (§8). This module supplies
    the byte-level machinery for a JIT access path over JSON lines:

    - nested fields are addressed by dotted paths (["user.id"]), so RAW's
      partial schemas apply naturally — declare only the paths of interest;
    - key order varies per object and fields may be absent (→ NULL), so,
      unlike CSV, extraction matches keys rather than counting columns;
    - the positional-map analogue indexes {e row starts} only: the
      structure inside an object is not positionally stable, but jumping to
      a row and matching keys beats re-tokenizing the whole file.

    Extraction is callback-based: {!Extract} walks one object and emits the
    byte spans of wanted paths; the scan kernels in [Raw_core.Scan_jsonl]
    supply compiled (or interpreted) per-path emitters. *)

open Raw_vector
open Raw_storage

(** {1 Generation} *)

val write_file : path:string -> (string * Value.t) list Seq.t -> unit
(** One object per row from dotted-path/value pairs; dotted paths nest
    (pairs sharing a prefix must be adjacent). Strings are escaped. *)

val generate :
  path:string ->
  n_rows:int ->
  fields:(string * Dtype.t) list ->
  ?missing_probability:float ->
  ?shuffle_keys:bool ->
  seed:int ->
  unit ->
  unit
(** Deterministic synthetic objects with the same value distributions as
    {!Csv.generate}. [missing_probability] independently drops fields
    (default 0); [shuffle_keys] (default true) permutes top-level key order
    per row, as real-world JSON does. *)

(** {1 Values (reference parser — tests, tooling)} *)

type json =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Object of (string * json) list
  | Array of json list

val parse : string -> json
(** Full (strict enough) JSON parser. Raises the typed
    [Raw_storage.Scan_errors.Error] on malformed input. *)

val unescape : Bytes.t -> int -> int -> string
(** Decode a string-literal body span (without quotes). *)

(** {1 Extraction} *)

module Extract : sig
  type kind =
    | Scalar  (** number / true / false — parse the span directly *)
    | Quoted of bool  (** string body; [true] = contains escapes *)
    | Nul  (** JSON null *)

  type 'a trie
  (** Wanted paths compiled to a key-matching trie with a payload per
      leaf. *)

  val compile : (string list * 'a) list -> 'a trie
  (** Each wanted path as its key list (["user"; "id"]). Raises
      [Invalid_argument] on duplicate or conflicting paths (a path that is
      both leaf and prefix). *)

  val leaves : 'a trie -> 'a list
  (** Payloads in compile order. *)

  val run :
    ?len:int ->
    Bytes.t ->
    pos:int ->
    wanted:'a trie ->
    emit:('a -> kind -> int -> int -> unit) ->
    int
  (** Walk the object starting at [pos] (skipping leading whitespace),
      emitting the value span of every wanted path found, and return the
      position just after the object. [len] (default: the whole buffer)
      is where the data ends. Unmatched keys are skipped at byte
      level without materializing anything. Raises the typed
      [Raw_storage.Scan_errors.Error] on malformed JSON. *)

  val iter_array_objects :
    ?len:int -> Bytes.t -> pos:int -> path:string list -> f:(int -> unit) -> int
  (** Flattening support (paper §4.1: nested fields may be kept nested or
      flattened per query): locate the array at [path] inside the object at
      [pos] and call [f] with the byte offset of every element that is
      itself an object (other elements are skipped); returns the position
      after the whole row object. A missing path or non-array value yields
      no calls. [len] as in {!run}. *)
end

(** {1 Rows} *)

val count_rows : Mmap_file.t -> int
(** Non-empty lines. *)

val row_starts : ?pos:int -> Mmap_file.t -> int array
(** Byte offset of each non-empty line from [pos] (default 0, a line
    start) on — the positional map's contents. *)
