(** Cross-query aggregation over the workload history.

    Powers [rawq report <history.jsonl>]: latency percentiles per query
    shape and per access path, cache hit-rate trends, the shapes whose
    latency regressed most across the recorded window, and the cost
    model's calibration per strategy. Unlike
    {!Metrics.quantile} (an interpolated estimate over fixed buckets),
    these percentiles are exact nearest-rank statistics over the recorded
    samples. *)

val percentile : float list -> float -> float option
(** [percentile xs q] is the nearest-rank [q]-th percentile ([q] in
    [[0, 1]]) of [xs]; [None] on an empty list or out-of-range [q]. *)

type group = {
  key : string;
  n : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;  (** of [total_seconds], nearest-rank *)
}

val by_access : History.record list -> group list
(** One group per access path, sorted by key. *)

val by_shape : History.record list -> group list
(** One group per query-shape fingerprint, sorted by key. *)

val by_shape_alloc : History.record list -> group list
(** Allocation ranking: one group per query-shape fingerprint over
    [alloc_words], restricted to records written by profiled queries
    ([Config.profile]), sorted heaviest mean first. Empty when no record
    in the window carries allocation data. *)

val hit_rate_trend : History.record list -> (string * float option * float option) list
(** [(cache, first_half_rate, second_half_rate)] for the template cache
    and the shred pool, splitting the history at its midpoint; [None] when
    a half saw no lookups. *)

val top_regressed : ?limit:int -> History.record list -> (string * float) list
(** Shapes whose mean latency in the second half of the window grew most
    over the first half, as [(shape, ratio)] sorted descending; shapes
    seen in only one half are skipped. [limit] defaults to 5. *)

(** {1 Cost-model calibration}

    Each adaptive-planner prediction (selectivity estimate, cost-model
    units, chosen strategy — carried into the history record by the
    executor) joined with its measured outcome (observed selectivity,
    actual cpu/io/compile split), reduced to per-strategy error
    statistics. The paper's E18 claim — "occasional mispredictions at
    70–80 % selectivity" — becomes a measured number here: misprediction
    counts are surfaced live under [planner.mispredict.<strategy>] and
    historically by this table. *)

type strategy_stats = {
  strategy : string;
  queries : int;  (** adaptive resolutions that chose this strategy *)
  measurable : int;  (** of those, with both [sel_est] and [sel_obs] *)
  mispredicts : int;
  sel_ratio_mean : float;  (** mean predicted÷observed selectivity *)
  sel_ratio_p50 : float;
  sel_ratio_p95 : float;  (** nearest-rank over measurable records *)
  cost_per_second_p50 : float;
      (** median cost-model units per actual total second — the model's
          scale factor; drift here means the unit costs need retuning *)
}

val calibration : History.record list -> strategy_stats list
(** One entry per strategy seen in adaptive records ([sel_est] present),
    sorted by strategy name. Observed selectivities are clamped away from
    0 before dividing. *)

val pp_report : Format.formatter -> History.record list -> unit
(** The full [rawq report] rendering: per-access-path and per-shape
    percentile tables, hit-rate trends, top regressed shapes, the
    calibration table, and a status/misprediction tally. *)
