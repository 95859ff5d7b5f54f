(** Minimal JSON emission and parsing (no external dependency).

    The parser exists because this library sits below [raw_formats] in the
    layering and cannot borrow its JSONL reader; the workload-history
    store ({!History}) and its report tooling read back what they wrote
    through {!parse}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** nan/inf emit as [0] — they are not JSON *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
val write : Buffer.t -> t -> unit

val parse : string -> (t, string) result
(** Parse one complete JSON document. [Error] carries a short message with
    the byte offset; trailing non-whitespace input is an error. Numbers
    without a fraction or exponent that fit in [int] parse as {!Int},
    everything else as {!Float}. *)

val decode_u : (int -> char) -> int -> int -> int * int
(** [decode_u get i stop] decodes the [\u] escape whose four hex digits
    start at [i] in an input read through [get] and ending at [stop];
    the caller has checked that the four bytes exist. Returns the code
    point and the bytes consumed from [i]: 10 when a high surrogate
    joins the low one escaped right after it, else 4. A lone surrogate
    decodes to U+FFFD; the code point is [-1] when the four bytes are not
    exactly hex digits. Shared with the JSONL reader. *)

(** {1 Shallow accessors}

    Total lookups for picking records apart; all return [None] on a kind
    mismatch rather than raising. *)

val member : string -> t -> t option

val to_float_opt : t -> float option
(** Accepts {!Int} too. *)

val to_int_opt : t -> int option
(** Accepts integral {!Float}. *)

val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option
