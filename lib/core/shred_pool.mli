(** The pool of column shreds (paper §3, §5.1).

    "RAW maintains a pool of previously created column shreds. A shred is
    used by an upcoming query if the values it contains subsume the values
    requested. The replacement policy is LRU."

    A pooled shred is a full-length column for one (table, column) plus
    its {e coverage}: which rows have actually been fetched from the raw
    file. Rows eliminated by earlier filters were never read. Coverage is
    kept apart from the column's validity bitmap, which means SQL NULL
    only: a NULL cell that was fetched stays fetched. A shred is either
    [Complete] (every row fetched; no bitset at all) or partial, with one
    bit per row. Subsumption is then: every requested row id is covered —
    O(1) on a complete shred. Fetching missing rows fills the same column
    in place ({!fill}), so the pool monotonically converges towards a
    fully-loaded column — "RAW builds its internal data structures
    adaptively as a result of incoming queries". *)

open Raw_vector

type key = { table : string; column : int (** schema index *) }

type t

type shred
(** One pooled column and its coverage. *)

val create : capacity:int -> t
(** [capacity] counts pooled columns (LRU evicts whole columns). *)

val column : shred -> Column.t
(** The full-length column; uncovered rows hold placeholders. *)

val covered : shred -> int -> bool
(** Whether that row has been fetched. *)

val complete : shred -> bool
(** Whether every row has been fetched. *)

val find : t -> key -> shred option
(** The pooled shred, possibly partial. Marks the entry recently used. *)

val ensure : t -> key -> n_rows:int -> dtype:Dtype.t -> shred
(** Returns the pooled shred, creating one with no row fetched (and
    possibly evicting an LRU victim) if absent. *)

val put : t -> key -> Column.t -> unit
(** Insert (or replace with) a complete column — e.g. the column a first
    sequential scan produced as a side effect. *)

val subsumes : shred -> int array -> bool
(** Are all the given row ids covered? *)

val missing : shred -> int array -> int array
(** The row ids not yet covered (order and duplicates preserved). *)

val fill : shred -> int array -> Column.t -> unit
(** [fill s rowids values] writes [values.(k)] (NULLs included) at
    [rowids.(k)] and marks those rows covered; a shred whose every row
    is covered becomes complete and drops its bitset, and its validity
    bitmap too when no row is NULL. *)

val grow : shred -> n_rows:int -> unit
(** Lengthen the shred to [n_rows] rows after an append to its file: old
    rows keep their values and coverage, new rows are NULL and not
    covered. No-op unless [n_rows] exceeds the current length. *)

val remove : t -> key -> unit
val clear : t -> unit
val size : t -> int

val fold : (key -> shred -> 'a -> 'a) -> t -> 'a -> 'a
(** Most-recently-used first. *)

val items : t -> Raw_storage.Mem_budget.item list
(** The pooled shreds as {!Raw_storage.Mem_budget} items, least recently
    used first, each sized at the time of the call by {!Column.byte_size}
    plus its coverage bitset. The pool's budget consumer. *)

val hits : t -> int
(** Subsumption hits: [find] results that covered the request entirely
    (reported by callers via {!record_hit}/{!record_miss}). *)

val misses : t -> int
val record_hit : t -> unit
val record_miss : t -> unit
