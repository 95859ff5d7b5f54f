(** The pool of column shreds (paper §3, §5.1).

    "RAW maintains a pool of previously created column shreds. A shred is
    used by an upcoming query if the values it contains subsume the values
    requested. The replacement policy is LRU."

    A pooled shred is a full-length column for one (table, column) whose
    validity bitmap marks which rows have actually been loaded from the raw
    file; rows eliminated by earlier filters were never read and stay
    invalid. Subsumption is then simply: every requested row id is valid.
    Fetching missing rows fills the same column in place, so the pool
    monotonically converges towards a fully-loaded column — "RAW builds its
    internal data structures adaptively as a result of incoming queries". *)

open Raw_vector

type key = { table : string; column : int (** schema index *) }

type t

val create : capacity:int -> t
(** [capacity] counts pooled columns (LRU evicts whole columns). *)

val find : t -> key -> Column.t option
(** The pooled column, full table length, possibly partially valid. Marks
    the entry recently used. *)

val ensure : t -> key -> n_rows:int -> dtype:Dtype.t -> Column.t
(** Returns the pooled column, creating an all-invalid one (and possibly
    evicting an LRU victim) if absent. *)

val put : t -> key -> Column.t -> unit
(** Insert (or replace with) a fully-built column — e.g. the complete column
    a first sequential scan produced as a side effect. *)

val subsumes : Column.t -> int array -> bool
(** Do the loaded rows cover all the given row ids? *)

val missing : Column.t -> int array -> int array
(** The subset of row ids not yet loaded (order preserved). *)

val remove : t -> key -> unit
val clear : t -> unit
val size : t -> int

val fold : (key -> Column.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Most-recently-used first. *)

val items : t -> Raw_storage.Mem_budget.item list
(** The pooled shreds as {!Raw_storage.Mem_budget} items, least recently
    used first, each sized by {!Column.byte_size} at the time of the call.
    The pool's budget consumer. *)

val hits : t -> int
(** Subsumption hits: [find] results that covered the request entirely
    (reported by callers via {!record_hit}/{!record_miss}). *)

val misses : t -> int
val record_hit : t -> unit
val record_miss : t -> unit
