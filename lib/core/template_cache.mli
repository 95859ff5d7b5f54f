(** The template cache (paper §3, §4.2 "Discussion").

    Generating an access path costs compilation time. RAW "maintains a cache
    of libraries generated as a side-effect of previous queries, reusing
    them when applicable", so only the first query with a given (file,
    format, fields, phase) shape pays the compiler. Here "compilation" is
    closure composition — real but cheap — so the cache additionally charges
    a configurable simulated compile latency on each miss, making the
    paper's first-query overhead visible and its amortization measurable. *)

type t

val create : compile_seconds:float -> t

val get : t -> kind:string -> key:string -> (unit -> 'a) -> 'a
(** [get t ~kind ~key compile] returns the cached artifact for the slot
    [kind ^ "/" ^ key], or runs [compile], caches, charges the simulated
    latency, and returns it. Artifacts are stored dynamically; [kind] names
    the kernel kind (e.g. ["csv.jit"]) and must uniquely determine the
    artifact's type, so entries of different types can never collide on a
    shared key string. Safe to call from several domains concurrently. *)

val hits : t -> int
val misses : t -> int

val charged_seconds : t -> float
(** Total simulated compile latency charged since creation/reset. *)

val take_charged_seconds : t -> float
(** Returns the charge accumulated since the last take and zeroes it; the
    executor calls this once per query to attribute compile cost. *)

val items : t -> Raw_storage.Mem_budget.item list
(** The cached artifacts as {!Raw_storage.Mem_budget} items, least
    recently used first, each sized by a synthetic footprint (a fixed
    per-entry estimate plus key bytes) — enough to order template eviction
    against other consumers. Dropping one records a [template_cache/evict]
    decision; the next query needing it recompiles and is charged the
    simulated compile latency again — the visible cost of this
    degradation. *)

val clear : t -> unit
val size : t -> int
