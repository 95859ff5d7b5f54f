(* See approx.mli. The driver deliberately bypasses the planner's
   operator tree: Operator.filter drops empty chunks, so morsel
   accounting (which morsel produced which contribution) cannot be
   recovered downstream of it. Instead we fetch each sampled morsel's
   scan columns directly through Access.fetch_columns — the same adaptive
   access-path machinery the planner uses, so positional maps, pooled
   shreds and JIT templates are built and reused as usual — and evaluate
   the filter and aggregate expressions per morsel.

   Morsels are processed sequentially in permutation order: estimator
   updates are a fold in a fixed order, which is what makes the answer
   bit-identical at every Config.parallelism (a full-scan fallback inside
   fetch_columns still fans out to domains; its result is
   parallelism-invariant by PR 1). *)

open Raw_vector
open Raw_storage
open Raw_engine
module Metrics = Raw_obs.Metrics
module Trace = Raw_obs.Trace

type band = {
  name : string;
  estimate : float;
  half_width : float;
  relative : float;
}

type info = {
  eps : float;
  seed : int;
  morsels_total : int;
  morsels_sampled : int;
  rows_total : int;
  rows_sampled : int;
  exact : bool;
  bands : band list;
}

type outcome =
  | Estimate of Chunk.t * info
  | Exhausted of info
  | Ineligible of string

let fraction info =
  if info.rows_total = 0 then 1.
  else float_of_int info.rows_sampled /. float_of_int info.rows_total

(* ------------------------------------------------------------------ *)
(* Eligibility                                                         *)
(* ------------------------------------------------------------------ *)

type shape = {
  table : string;
  columns : int list; (* scan columns, in scan order *)
  pred : Expr.t option;
  aggs : Logical.agg_spec list;
  items : int list; (* output columns, as indexes into [aggs] *)
}

let kind_of = function
  | Kernels.Count -> Some Estimator.Count
  | Kernels.Sum -> Some Estimator.Sum
  | Kernels.Avg -> Some Estimator.Avg
  | Kernels.Max | Kernels.Min | Kernels.Count_distinct -> None

(* The binder lowers scalar aggregation to Project(refs, Aggregate(...))
   with the projection items referring to aggregate outputs by position;
   anything else (grouping, HAVING, ORDER BY, post-aggregate arithmetic,
   joins, MIN/MAX which have no CLT bound) runs exactly. *)
let shape_of cat logical =
  match logical with
  | Logical.Project (items, Logical.Aggregate { keys = []; aggs; input }) -> (
    let n_aggs = List.length aggs in
    let refs =
      List.fold_right
        (fun (e, _) acc ->
          match (e, acc) with
          | Expr.Col i, Some l when i >= 0 && i < n_aggs -> Some (i :: l)
          | _ -> None)
        items (Some [])
    in
    match refs with
    | None -> Error "projection is not a direct aggregate reference"
    | Some items ->
      if
        not
          (List.for_all
             (fun (a : Logical.agg_spec) -> kind_of a.op <> None)
             aggs)
      then Error "aggregate other than COUNT/SUM/AVG"
      else (
        let over table columns pred =
          (* SUM/AVG need numeric inputs; a Bool/String expression would
             produce garbage sums here, so let the exact path raise its
             usual typed error instead *)
          let scan_schema =
            Logical.output_schema cat (Logical.Scan { table; columns })
          in
          let coltype i = Schema.dtype scan_schema i in
          let numeric (a : Logical.agg_spec) =
            a.op = Kernels.Count
            ||
            match Expr.infer coltype a.expr with
            | Dtype.Int | Dtype.Float -> true
            | Dtype.Bool | Dtype.String -> false
            | exception _ -> false
          in
          if List.for_all numeric aggs then
            Ok { table; columns; pred; aggs; items }
          else Error "non-numeric aggregate input"
        in
        match input with
        | Logical.Scan { table; columns } -> over table columns None
        | Logical.Filter (pred, Logical.Scan { table; columns }) ->
          over table columns (Some pred)
        | _ -> Error "input is not a single (optionally filtered) scan"))
  | _ -> Error "not a scalar aggregation"

(* ------------------------------------------------------------------ *)
(* Per-morsel contributions                                            *)
(* ------------------------------------------------------------------ *)

(* sum + count of the non-null values, one typed loop per element type *)
let contrib_of col =
  let n = Column.length col in
  let all = Column.all_valid col in
  let sum = ref 0. and count = ref 0 in
  (match Column.data col with
   | Column.Int_data a ->
     for i = 0 to n - 1 do
       if all || Column.is_valid col i then begin
         sum := !sum +. float_of_int (Array.unsafe_get a i);
         incr count
       end
     done
   | Column.Float_data a ->
     for i = 0 to n - 1 do
       if all || Column.is_valid col i then begin
         sum := !sum +. Array.unsafe_get a i;
         incr count
       end
     done
   | Column.Bool_data _ | Column.String_data _ ->
     (* COUNT-only inputs (eligibility rejects SUM/AVG over these) *)
     count := Column.valid_count col);
  { Estimator.c_sum = !sum; c_count = float_of_int !count }

(* ------------------------------------------------------------------ *)
(* The sampling loop                                                   *)
(* ------------------------------------------------------------------ *)

let record_stop ~choice ~eps ~seed ~morsels ~morsels_total ~frac =
  Trace.decision ~site:"scan.approx_stop" ~choice
    [
      ("eps", Printf.sprintf "%g" eps);
      ("seed", string_of_int seed);
      ("morsels", Printf.sprintf "%d/%d" morsels morsels_total);
      ("fraction_rows", Printf.sprintf "%.4f" frac);
    ]

let run cat ~(options : Planner.options) ~eps ~seed logical =
  match shape_of cat logical with
  | Error reason ->
    Metrics.incr Metrics.approx_ineligible;
    Trace.decision ~site:"scan.approx_stop" ~choice:"ineligible"
      [ ("reason", reason) ];
    Ineligible reason
  | Ok s ->
    Metrics.incr Metrics.approx_queries;
    let entry = Catalog.get cat s.table in
    let cfg = Catalog.config cat in
    let rows_total = Catalog.n_rows cat entry in
    let chunk_rows = cfg.Config.chunk_rows in
    let morsels_total = (rows_total + chunk_rows - 1) / chunk_rows in
    let kinds =
      List.map
        (fun (a : Logical.agg_spec) -> Option.get (kind_of a.op))
        s.aggs
    in
    let est =
      Estimator.create ~eps ~total_rows:rows_total ~total_morsels:morsels_total
        kinds
    in
    let perm = Sampling.permutation ~seed morsels_total in
    let tracked = Planner.tracked_for options entry in
    let cancel = Cancel.current () in
    let stopped = ref false in
    let i = ref 0 in
    while (not !stopped) && !i < morsels_total do
      Cancel.check cancel;
      let m = perm.(!i) in
      let start = m * chunk_rows in
      let len = min chunk_rows (rows_total - start) in
      let chunk =
        match s.columns with
        | [] ->
          (* pure COUNT(all rows)-shaped scans read no columns; the aggregate
             expressions are constants and only need the row count *)
          Chunk.create [| Column.const Dtype.Int (Value.Int 0) len |]
        | cols ->
          let rowids = Sel.range start len in
          Chunk.create
            (Access.fetch_columns cat ~mode:options.Planner.access ~entry
               ~tracked ~cols ~rowids)
      in
      let fchunk =
        match s.pred with
        | None -> chunk
        | Some p -> Chunk.take chunk (Expr.eval_filter p chunk None)
      in
      let contribs =
        List.map
          (fun (a : Logical.agg_spec) -> contrib_of (Expr.eval a.expr fchunk))
          s.aggs
      in
      Estimator.observe est ~rows:len contribs;
      Metrics.incr Metrics.approx_morsels_sampled;
      Metrics.add Metrics.approx_rows_sampled len;
      incr i;
      if !i < morsels_total && Estimator.converged est then stopped := true
    done;
    let schema = Logical.output_schema cat logical in
    let ebands = Array.of_list (Estimator.bands est) in
    let bands =
      List.mapi
        (fun pos k ->
          let b = ebands.(k) in
          {
            name = (Schema.field schema pos).Schema.name;
            estimate = b.Estimator.estimate;
            half_width = b.Estimator.half_width;
            relative = b.Estimator.relative;
          })
        s.items
    in
    let info =
      {
        eps;
        seed;
        morsels_total;
        morsels_sampled = Estimator.morsels_seen est;
        rows_total;
        rows_sampled = Estimator.rows_seen est;
        exact = not !stopped;
        bands;
      }
    in
    let frac = fraction info in
    if !stopped then begin
      Metrics.incr Metrics.approx_early_stops;
      record_stop ~choice:"early_stop" ~eps ~seed
        ~morsels:info.morsels_sampled ~morsels_total ~frac;
      let columns =
        Array.of_list
          (List.mapi
             (fun pos _ ->
               let b = List.nth bands pos in
               match Schema.dtype schema pos with
               | Dtype.Int ->
                 Column.of_values Dtype.Int
                   [ Value.Int (int_of_float (Float.round b.estimate)) ]
               | Dtype.Float ->
                 Column.of_values Dtype.Float [ Value.Float b.estimate ]
               | (Dtype.Bool | Dtype.String) as dt ->
                 (* unreachable: COUNT/SUM/AVG outputs are numeric *)
                 Column.of_values dt [ Value.Null ])
             s.items)
      in
      Estimate (Chunk.create columns, info)
    end
    else begin
      Metrics.incr Metrics.approx_exhausted;
      record_stop ~choice:"exhausted" ~eps ~seed ~morsels:info.morsels_sampled
        ~morsels_total ~frac;
      Exhausted info
    end

(* ------------------------------------------------------------------ *)
(* Exact finalization                                                  *)
(* ------------------------------------------------------------------ *)

(* An exhausted sample IS the whole file, but per-morsel float partials
   folded in permutation order are not bit-identical to the exact path's
   sequential row-order fold; the executor therefore replays the exact
   plan (over now-warm data) and stamps its values into the bands here. *)
let finalize_exact info chunk =
  if Chunk.n_rows chunk <> 1 then info
  else
    {
      info with
      bands =
        List.mapi
          (fun pos b ->
            let estimate =
              match Column.get (Chunk.column chunk pos) 0 with
              | Value.Int n -> float_of_int n
              | Value.Float f -> f
              | _ -> b.estimate
            in
            { b with estimate; half_width = 0.; relative = 0. })
          info.bands;
    }
