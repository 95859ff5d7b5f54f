(** A bounded least-recently-used map with O(1) operations.

    Shared by the page-residency simulator ({!Mmap_file}), the shred pool,
    the template cache, the served result cache and the HEP object cache —
    all of which the paper describes as LRU caches. *)

type ('k, 'v) t

val create : ?capacity:int -> unit -> ('k, 'v) t
(** [capacity] of [None] (default) means unbounded. A capacity of 0 rejects
    all insertions. Raises [Invalid_argument] on negative capacity. *)

val capacity : ('k, 'v) t -> int option
val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Marks the entry most-recently used. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Does not affect recency. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Does not affect recency. *)

val add : ('k, 'v) t -> 'k -> 'v -> ('k * 'v) list
(** Inserts or replaces; the entry becomes most-recently used. Returns the
    evicted entries (at most one, and only when over capacity). *)

val remove : ('k, 'v) t -> 'k -> unit
val clear : ('k, 'v) t -> unit

val fold : ('k -> 'v -> 'a -> 'a) -> ('k, 'v) t -> 'a -> 'a
(** Most-recently-used first. *)

val keys : ('k, 'v) t -> 'k list
(** Most-recently-used first. *)
