(** A unified, byte-denominated memory budget for adaptive state.

    RAW's auxiliary structures — served results, column shreds, JIT
    template artifacts, positional maps, resident file pages — all grow
    monotonically with the workload. A [Mem_budget.t] makes them share one
    bound: each store registers as a {e consumer} that lists its droppable
    {!item}s, coldest first, and before growing, a store (or its caller)
    calls {!reserve}. Under pressure the budget drops items in ascending
    consumer priority order (cached results first, then cold shreds, cold
    templates, positional maps, and file pages last); when even that cannot
    make room, {!reserve} returns [false] and the caller degrades
    gracefully — typically by streaming from the raw file instead of
    caching.

    Accounting is pull-based (item lists, no per-touch charging), so an
    unconstrained engine pays nothing; item lists are only built inside
    {!used} and {!reserve}. All operations are serialized by an internal
    mutex; [items] and [drop] run with it held and must not call back into
    the budget.

    The budget is the only code that counts evictions, under the
    {!Io_stats} counters [gov.evictions], [gov.evictions.<consumer>] and
    [gov.evicted_bytes]; failed reservations count under
    [gov.reservation_failures]. *)

type t

type item = {
  bytes : int;
  drop : unit -> unit;
      (** Forget the structure; the consumer's next listing omits it. *)
}

val create : capacity_bytes:int -> t
(** Raises [Resource_error.Invalid_config] if [capacity_bytes <= 0]. *)

val capacity : t -> int

val register :
  t -> name:string -> priority:int -> items:(unit -> item list) -> unit
(** Add a consumer. [items ()] lists what it holds right now, coldest
    (first to drop) first; its usage is the sum of their [bytes]. Lower
    [priority] drops first. Registering twice under one name replaces the
    previous registration. *)

val used : t -> int
(** Sum of all consumers' item sizes. *)

val reserve : t -> bytes:int -> bool
(** Make room for [bytes] new bytes: [true] immediately if they fit;
    otherwise drop items in priority order, each consumer's coldest first,
    until they do. [false] if the budget cannot be satisfied even after
    dropping everything — the caller must not allocate the cached structure
    (degrade instead). [bytes <= 0] is always [true]. *)
