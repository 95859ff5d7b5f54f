(** A cost model for the column-materialization strategies.

    The paper leaves "developing a comprehensive cost model for our methods
    to enable their integration with existing query optimizers" as future
    work (§8); this is that integration for the choice its Section 5
    shows is selectivity-dependent: full columns vs column shreds vs
    multi-column shreds.

    Costs are abstract per-value units — only the {e ordering} of the
    estimates matters. The shapes follow the paper's measurements:

    - full columns read every requested column for all rows in one
      sequential pass;
    - shreds read filter columns first and remaining columns only for
      qualifying rows, paying a positional-jump overhead per row and one
      pass per column (Figure 5/9);
    - multi-column shreds share one jump per row across the remaining
      columns (Figure 9). *)

type strategy =
  | Full_columns  (** read all requested columns at the bottom scan *)
  | Shreds  (** one late scan operator per column, as late as possible *)
  | Multi_shreds
      (** like [Shreds], but once a table has been filtered, materialize all
          its still-pending columns in one operator (speculative nearby
          reads, §5.3.1) *)
  | Adaptive
      (** pick between the above per query with {!choose}, from the
          statistics accumulated by earlier scans *)

val strategy_to_string : strategy -> string
(** ["full"] / ["shreds"] / ["multishreds"] / ["adaptive"] — the one
    vocabulary of plan traces, decision records, the
    [planner.adaptive_chose_]/[planner.mispredict.] metric families and
    the workload history. *)

val estimate_selectivity :
  Table_stats.t ->
  table:string ->
  columns:int list ->
  Raw_engine.Expr.t list ->
  float
(** Combined selectivity of the conjuncts over a scan's output (positional
    exprs; [columns] maps positions to schema columns). Unknown conjunct
    shapes or missing statistics contribute the default 0.5. *)

type strategy_costs = {
  full : float;
  shreds : float;
  multi_shreds : float;
}

val selection_costs :
  n_rows:int ->
  n_filter_cols:int ->
  n_post_cols:int ->
  selectivity:float ->
  textual:bool ->
  strategy_costs
(** [textual] distinguishes parse-heavy formats (CSV/JSON) from computed-
    offset binary ones (conversion cost and jump overhead differ). *)

val choose : strategy_costs -> strategy
(** The cheapest concrete strategy (ties resolve toward shreds, the engine
    default); never [Adaptive]. *)

val cost_of : strategy_costs -> strategy -> float
(** Project one strategy's estimate out of {!strategy_costs}; [Adaptive]
    costs what {!choose} picks. *)

type prediction = {
  table : string;  (** the filtered scan the choice was costed on *)
  choice : strategy;  (** the {!choose} result, never [Adaptive] *)
  selectivity : float;  (** estimated, from {!estimate_selectivity} *)
  n_filter_cols : int;
  n_post_cols : int;
  textual : bool;
}
(** An [Adaptive] resolution: everything the choice was made from except
    the row count. The costs are linear in the row count, so the choice
    does not depend on it; the executor reads it from the catalog after
    the run and re-costs the choice at the observed selectivity. *)

val costs_at : prediction -> n_rows:int -> selectivity:float -> strategy_costs
(** {!selection_costs} over the prediction's inputs. *)
