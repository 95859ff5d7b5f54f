(** Per-query resource profiler: CPU, allocation and copy attribution
    with flamegraph-compatible folded-stack export.

    Off by default; raised per query by the executor when
    {!Raw_core.Config.profile} is set, via the domain-local
    {!Raw_storage.Prof_gate}. While the gate is up:

    - {!Raw_obs.Trace.with_span} captures {!Raw_obs.Trace.gc_stat} deltas at
      span boundaries, attached as [alloc.minor]/[alloc.major]/
      [alloc.promoted]/[gc.minor]/[gc.major] span args;
    - the query-level deltas land in the [alloc.*]/[gc.*] metrics
      ({!record_since} around the query on the coordinator, and around
      each worker's morsel loop — the sample is per-domain, so the
      contributions merge additively at morsel join);
    - format kernels and builders charge [bytes.copied.<site>] counters
      through {!Raw_storage.Prof_gate.copy}.

    Word conventions: [alloc.minor] counts minor-heap words,
    [alloc.major] counts words allocated directly on the major heap
    (the runtime folds promotions into [major_words]; they are
    subtracted back out and reported as [alloc.promoted]), so total
    words allocated = minor + major. *)

val with_profiling : bool -> (unit -> 'a) -> 'a
(** Run with the profiling gate forced to the given value on this
    domain, restoring the previous value on exit. *)

(** {1 GC attribution} *)

type gc_sample

val sample : unit -> gc_sample
(** This domain's {!Raw_obs.Trace.gc_stat}: {!Gc.quick_stat} with exact
    minor words (no collection is triggered). *)

val record_since : gc_sample -> unit
(** Bump the [alloc.*]/[gc.*] metrics by the delta between [sample] and
    now, clamped at zero. Unconditional — callers gate on
    {!Raw_core.Config.profile} themselves so the counters never move for
    unprofiled queries. *)

val allocated_words : (string * float) list -> float
(** Total words allocated according to a counter snapshot or delta:
    [alloc.minor_words + alloc.major_words] (0 when unprofiled). *)

(** {1 Folded-stack export}

    The flamegraph interchange format: one line per distinct stack,
    [root;frame;...;frame count], readable by flamegraph.pl and
    speedscope. Three root frames: [wall] (exclusive span wall time,
    microseconds), [alloc] (exclusive allocated words, from the span
    args), [copies] (bytes per copy site — flat, two frames deep). *)

val folded_of_spans : Trace.span list -> string
(** Weight a span tree by exclusive wall time and exclusive allocated
    words. Exclusive = inclusive minus the sum over direct children
    (wall: children on any domain; alloc: same-domain children only,
    since GC deltas are per-domain), clamped at zero — parallel
    children can overlap their parent's wall. Zero-weight stacks are
    omitted; the [alloc] root is absent entirely for unprofiled span
    trees. *)

val folded_of_copies : (string * float) list -> string
(** [copies;<site> <bytes>] lines for every positive
    [bytes.copied.<site>] entry in a counter snapshot or delta; other
    keys are ignored, so passing a whole snapshot is fine. *)

val parse_folded : string -> (string list * int) list
(** Parse folded-stack text back into (frames, count) rows; malformed
    lines are skipped. *)

val pp_report : Format.formatter -> string -> unit
(** The [rawq profile FILE] report: parse folded text, re-aggregate
    stacks per root (concatenated server blocks repeat stacks), and
    rank the hottest stacks per root with their share of the total. *)
