(** Per-query span tracing: the one observation record of a query.

    A query's executor creates a {!handle}, installs it as the ambient
    context of the coordinating domain, and wraps the phases of execution
    in {!with_span}. Each adaptive choice (JIT vs interpreted kernel,
    posmap build/use, shred reuse, template cache hit vs compile,
    cost-model strategy, governance degradation) is a {!decision} event
    in the same tree, under the span that made it. Morsel workers receive
    the same handle through {!fork}/{!with_fork}, so their spans and
    decisions land in the same tree with exact parent links and their own
    [tid].

    When no context is installed — the default — {!with_span} and
    {!decision} are one domain-local read and a branch: observability off
    costs (almost) nothing, the no-op sink. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  cat : string;
  tid : int;  (** 0 = coordinating domain; morsel workers are 1 + index *)
  start_s : float;  (** seconds since the handle's epoch *)
  dur_s : float;
  args : (string * string) list;
}

type handle

val create : ?epoch:float -> unit -> handle
(** [epoch] (default now) anchors span timestamps; pass an earlier instant
    to stitch in work timed before the handle existed. *)

val with_handle : handle -> (unit -> 'a) -> 'a
(** Install as this domain's ambient context (tid 0) for the duration of
    the callback; restores the previous context even on exceptions. *)

val enabled : unit -> bool
(** Is an ambient context installed in this domain? *)

val with_span :
  ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Record a span around the callback under the innermost open span. No-op
    (just runs the callback) without an ambient context. The span is
    recorded even when the callback raises. *)

val add_arg : string -> string -> unit
(** Attach an annotation to the innermost open span, if any. *)

val decision : site:string -> choice:string -> (string * string) list -> unit
(** Record why the engine took a path: a zero-length span with
    [cat = "decision"], [name = site] (e.g. ["template_cache"],
    ["planner.adaptive"]) and args [("choice", choice) :: inputs] (the
    cost-model estimates, cache keys or pressure signals it chose from),
    under the innermost open span. A handle keeps its first 4096
    decisions; later ones are dropped and counted under
    [obs.decisions_dropped]. No-op without an ambient context. *)

val gc_stat : unit -> Gc.stat
(** This domain's {!Gc.quick_stat} (no collection is triggered), except
    that [minor_words] is the exact {!Gc.minor_words}: quick_stat's own
    figure only advances at a minor collection. *)

(** {1 Cross-domain} *)

type fork_point

val fork : unit -> fork_point option
(** Capture the ambient handle and innermost open span, to parent worker
    spans under the coordinator's current position. [None] when tracing is
    off — workers then skip installation entirely. *)

val with_fork : fork_point -> tid:int -> (unit -> 'a) -> 'a
(** Install the forked context in the calling (worker) domain. *)

(** {1 Extraction} *)

val alloc : handle -> int
(** Reserve a span id without recording anything yet. Lets a caller hand
    the id to children recorded first (even from other threads) and
    {!record} the parent afterwards with [?id] — how the server builds a
    request's span tree across its session and batcher threads. *)

val record :
  handle ->
  ?id:int ->
  ?tid:int ->
  ?parent:int ->
  ?cat:string ->
  ?args:(string * string) list ->
  start:float ->
  dur:float ->
  string ->
  unit
(** Append an already-timed span ([start] is an absolute
    {!Raw_storage.Timing.now} instant). [id] defaults to a fresh one;
    pass an {!alloc}ed id to close a span whose children were recorded
    under it first. *)

val spans : handle -> span list
(** Completed spans, ordered by start time. *)

type decision = {
  site : string;
  choice : string;
  inputs : (string * string) list;
}

val is_decision : span -> bool
(** Was this span recorded by {!decision}? *)

val decisions : span list -> decision list
(** The decision events among [spans], in recording order (by id, not
    start time; worker interleavings are scheduler-dependent, so filter
    by {!decision.site} for deterministic assertions). *)

val pp_decision : Format.formatter -> decision -> unit
(** [site: choice (k=v, ...)]. *)

val edge_set : span list -> (string option * string) list
(** The tree's shape as the sorted set of distinct (parent name, name)
    edges — invariant across parallelism levels modulo nothing: domain ids
    and morsel multiplicity do not appear. *)
