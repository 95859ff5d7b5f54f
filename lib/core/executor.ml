open Raw_vector
open Raw_storage
open Raw_engine
module Trace = Raw_obs.Trace
module Metrics = Raw_obs.Metrics

type report = {
  chunk : Chunk.t;
  schema : Schema.t;
  cpu_seconds : float;
  io_seconds : float;
  compile_seconds : float;
  total_seconds : float;
  parallelism : int;
  rows_scanned : int;
  domain_seconds : (string * float) list;
  counters : (string * float) list;
  errors : Scan_errors.snapshot;
  degraded : string list;
  spans : Trace.span list;
  approx : Approx.info option;
}

let domain_prefix = "par.domain"
let gov_prefix = "gov."

(* Human-readable account of governance actions, from the query's gov.*
   counter delta. *)
let degraded_of_counters counters =
  List.filter_map
    (fun (k, v) ->
      if not (String.starts_with ~prefix:gov_prefix k) then None
      else
        let n = int_of_float v in
        match k with
        | "gov.evicted_bytes" ->
          Some (Printf.sprintf "evicted %d cached bytes under memory pressure" n)
        | "gov.evictions" -> Some (Printf.sprintf "evicted %d cached item(s)" n)
        | "gov.reservation_failures" ->
          Some
            (Printf.sprintf
               "%d reservation(s) unsatisfiable even after eviction" n)
        | "gov.fallbacks.streaming" ->
          Some
            (Printf.sprintf
               "%d fetch(es) streamed from the raw file instead of caching" n)
        | "gov.fallbacks.shred_pool" ->
          Some (Printf.sprintf "%d column shred(s) not pooled" n)
        | "gov.fallbacks.posmap" ->
          Some (Printf.sprintf "%d positional map(s) not retained" n)
        | _ when String.starts_with ~prefix:"gov.evictions." k ->
          None (* per-consumer breakdown; the total line covers it *)
        | _ -> Some (Printf.sprintf "%s x%d" k n))
    (List.sort compare counters)

(* an exhausted operator yields the 0-column empty chunk; give empty
   results their proper schema-shaped arity *)
let fix_empty schema chunk =
  if Chunk.n_rows chunk = 0 && Chunk.n_cols chunk <> Schema.arity schema then
    Chunk.create
      (Array.of_list
         (List.map
            (fun (f : Schema.field) -> Column.of_values f.dtype [])
            (Schema.fields schema)))
  else chunk

let entry_files cat logical =
  Catalog.files (List.map (Catalog.get cat) (Logical.tables logical))

let io_of_files cat logical =
  List.fold_left
    (fun acc f -> acc +. Mmap_file.simulated_io_seconds f)
    0. (entry_files cat logical)

(* every counter that moved since [before], with how far: one merge of
   two snapshots, both sorted by key *)
let counter_deltas ~before =
  let moved k d acc = if d <> 0. then (k, d) :: acc else acc in
  let rec go acc before after =
    match (before, after) with
    | _, [] -> List.rev acc
    | [], (k, v) :: rest -> go (moved k v acc) [] rest
    | (k0, v0) :: brest, (k, v) :: rest ->
      let c = String.compare k0 k in
      if c < 0 then go acc brest after
      else if c > 0 then go (moved k v acc) before rest
      else go (moved k (v -. v0) acc) brest rest
  in
  go [] before (Io_stats.snapshot ())

(* The access-path component of a history record: the formats scanned,
   deduplicated and joined ("csv", "hep", "csv+jsonl", ...). *)
let access_of cat logical =
  match Logical.tables logical with
  | [] -> "none"
  | ts ->
    String.concat "+"
      (List.sort_uniq String.compare
         (List.map
            (fun t ->
              Format_kind.to_string (Catalog.get cat t).Catalog.format)
            ts))

let history_status_of_exn = function
  | Cancel.Stop Cancel.Deadline -> Raw_obs.History.Deadline
  | Cancel.Stop Cancel.User -> Raw_obs.History.Cancelled
  | Scan_errors.Error _ -> Raw_obs.History.Failed "data"
  | Resource_error.Invalid_config _ -> Raw_obs.History.Failed "config"
  | _ -> Raw_obs.History.Failed "exception"

let run ~options ~cancel ?(pre_spans = []) cat logical =
  let cfg = Catalog.config cat in
  (* baseline for per-query deltas *)
  let before = Io_stats.snapshot () in
  Scan_errors.reset ();
  List.iter Mmap_file.reset_counters (entry_files cat logical);
  ignore (Template_cache.take_charged_seconds (Catalog.templates cat));
  let trace_h =
    (* profiling implies span recording: the folded export weights the
       span tree, so a profiled query needs one even with observe off *)
    if not (cfg.Config.observe || cfg.Config.profile) then None
    else begin
      (* anchor the trace at the earliest pre-timed phase (binding happens
         in Raw_db before this handle exists) so its spans fit the axis *)
      let epoch =
        List.fold_left
          (fun acc (_, t0, _) -> Float.min acc t0)
          (Timing.now ()) pre_spans
      in
      let h = Trace.create ~epoch () in
      List.iter
        (fun (name, t0, t1) -> Trace.record h ~start:t0 ~dur:(t1 -. t0) name)
        pre_spans;
      Some h
    end
  in
  (* the Adaptive resolution of the plan that ran, set once planning is
     done so that a failed query is still measured *)
  let prediction = ref None in
  (* the open query span, to record the post-run planner.adaptive
     decision under it *)
  let query_span = ref None in
  let with_obs f =
    match trace_h with
    | None -> f ()
    | Some h ->
      Trace.with_handle h (fun () ->
          Trace.with_span ~cat:"query" "query" (fun () ->
              query_span := Trace.fork ();
              f ()))
  in
  (* the coordinator's GC baseline; workers sample their own domains
     inside Morsel, so the merged alloc.*/gc.* deltas are additive *)
  let g0 = if cfg.Config.profile then Some (Raw_obs.Prof.sample ()) else None in
  let outcome, cpu_seconds =
    Timing.time (fun () ->
        Cancel.with_current cancel (fun () ->
          Prof_gate.with_gate cfg.Config.profile (fun () ->
            with_obs (fun () ->
                Cancel.check cancel;
                let exact () =
                  let planned =
                    Trace.with_span ~cat:"plan" "plan" (fun () ->
                        Planner.plan_with_trace cat options logical)
                  in
                  prediction := planned.Planner.prediction;
                  let chunk =
                    Trace.with_span ~cat:"execute" "execute" (fun () ->
                        Operator.to_chunk planned.Planner.op)
                  in
                  (chunk, planned.Planner.schema)
                in
                match cfg.Config.approx with
                | None ->
                  let chunk, schema = exact () in
                  (chunk, schema, None)
                | Some eps -> (
                  match
                    Trace.with_span ~cat:"execute" "approx" (fun () ->
                        Approx.run cat ~options ~eps
                          ~seed:cfg.Config.approx_seed logical)
                  with
                  | Approx.Estimate (chunk, info) ->
                    (chunk, Logical.output_schema cat logical, Some info)
                  | Approx.Exhausted info ->
                    (* the sample was the whole file: replay the exact plan
                       over the now-warm data so the answer is bit-identical
                       to a non-approx run, and stamp it into the bands *)
                    let chunk, schema = exact () in
                    (chunk, schema, Some (Approx.finalize_exact info chunk))
                  | Approx.Ineligible _ ->
                    let chunk, schema = exact () in
                    (chunk, schema, None))))))
  in
  (* flush the coordinator's GC delta before any counter snapshot below
     reads the alloc.*/gc.* keys (both success and failure paths) *)
  (match g0 with Some g -> Raw_obs.Prof.record_since g | None -> ());
  (* accounting shared by the success and failure paths *)
  let io_seconds = io_of_files cat logical in
  let compile_seconds =
    Template_cache.take_charged_seconds (Catalog.templates cat)
  in
  let moved = counter_deltas ~before in
  let delta k = Option.value (List.assoc_opt k moved) ~default:0. in
  let rows_scanned =
    (* scan.rows_scanned only ticks under an armed cancel token (it funds
       partial-progress accounting); fall back to the rows that entered
       the filter chain, which every filtered scan produces *)
    let counted = delta "scan.rows_scanned" in
    let rows =
      if counted > 0. then counted else delta (Metrics.id Metrics.filter_rows_in)
    in
    int_of_float rows
  in
  (* feedback: join the adaptive prediction against the measured filter
     row flow — partial progress of a failed query is still a measurement.
     The prediction is priced at the table's row count, which the run has
     set unless it failed before sizing the table *)
  let sel_obs =
    let rows_in = delta (Metrics.id Metrics.filter_rows_in) in
    if rows_in > 0. then
      Some (delta (Metrics.id Metrics.filter_rows_out) /. rows_in)
    else None
  in
  let feedback =
    Option.bind !prediction (fun (p : Cost_model.prediction) ->
        Option.bind (Catalog.find cat p.table) (fun (e : Catalog.entry) ->
            Option.map (fun n_rows -> (p, n_rows)) e.state.n_rows))
  in
  let cost_predicted, mispredicted, better =
    match feedback with
    | None -> (None, None, None)
    | Some (p, n_rows) ->
      let costs = Cost_model.costs_at p ~n_rows ~selectivity:p.selectivity in
      let choice = Cost_model.strategy_to_string p.choice in
      Option.iter
        (fun fp ->
          Trace.with_fork fp ~tid:0 (fun () ->
              Trace.decision ~site:"planner.adaptive" ~choice
                [
                  ("table", p.table);
                  ("selectivity", Printf.sprintf "%.4f" p.selectivity);
                  ("cost_full", Printf.sprintf "%.1f" costs.full);
                  ("cost_shreds", Printf.sprintf "%.1f" costs.shreds);
                  ("cost_multishreds", Printf.sprintf "%.1f" costs.multi_shreds);
                  ("n_rows", string_of_int n_rows);
                  ("n_filter_cols", string_of_int p.n_filter_cols);
                  ("n_post_cols", string_of_int p.n_post_cols);
                  ("textual", string_of_bool p.textual);
                ]))
        !query_span;
      let cost_predicted = Some (Cost_model.cost_of costs p.choice) in
      (match sel_obs with
       | None -> (cost_predicted, None, None)
       | Some selectivity ->
         let preferred =
           Cost_model.choose (Cost_model.costs_at p ~n_rows ~selectivity)
         in
         if preferred = p.choice then (cost_predicted, Some false, None)
         else begin
           Io_stats.incr (Metrics.id Metrics.planner_mispredict ^ choice);
           (cost_predicted, Some true,
            Some (Cost_model.strategy_to_string preferred))
         end)
  in
  (* profiler columns: absent unless this query was profiled, so history
     readers can tell "not profiled" from "profiled, allocated nothing" *)
  let copied_delta () =
    List.fold_left
      (fun acc (k, d) ->
        if String.starts_with ~prefix:"bytes.copied." k then acc +. d else acc)
      0. moved
  in
  let if_profiled v = if cfg.Config.profile then Some (v ()) else None in
  let append_history ~status ~result_rows ~degraded =
    match cfg.Config.history_path with
    | None -> ()
    | Some path ->
      let strategy =
        Cost_model.strategy_to_string
          (match feedback with
           | Some (p, _) -> p.choice
           | None -> options.Planner.shreds)
      in
      Raw_obs.History.append ~path
        {
          Raw_obs.History.ts = Unix.gettimeofday ();
          shape = Logical.fingerprint logical;
          access = access_of cat logical;
          strategy;
          status;
          cpu_seconds;
          io_seconds;
          compile_seconds;
          total_seconds = cpu_seconds +. io_seconds +. compile_seconds;
          rows_scanned;
          result_rows;
          parallelism = cfg.Config.parallelism;
          sel_est = Option.map (fun (p, _) -> p.Cost_model.selectivity) feedback;
          sel_obs;
          cost_predicted;
          mispredicted;
          better;
          tmpl_hits = int_of_float (delta "tmpl.hits");
          tmpl_misses = int_of_float (delta "tmpl.misses");
          pool_hits = int_of_float (delta "pool.hits");
          pool_misses = int_of_float (delta "pool.misses");
          degraded;
          errors_tolerated = (Scan_errors.snapshot ()).Scan_errors.total;
          alloc_words =
            if_profiled (fun () ->
                delta (Metrics.id Metrics.alloc_minor_words)
                +. delta (Metrics.id Metrics.alloc_major_words));
          gc_minor =
            if_profiled (fun () ->
                int_of_float (delta (Metrics.id Metrics.gc_minor_collections)));
          gc_major =
            if_profiled (fun () ->
                int_of_float (delta (Metrics.id Metrics.gc_major_collections)));
          bytes_copied = if_profiled copied_delta;
        }
  in
  let chunk, schema, approx =
    match outcome with
    | Ok r -> r
    | Error e ->
      (* a tripped token unwound the query: account the partial progress
         (all worker domains were joined and merged by Morsel before the
         Stop re-raise reached us), write the history record — failed
         queries are exactly the ones calibration must see — and surface
         a typed error *)
      append_history ~status:(history_status_of_exn e) ~result_rows:0
        ~degraded:[];
      let progress : Resource_error.progress =
        {
          rows_scanned;
          io_seconds;
          compile_seconds;
          elapsed_seconds = cpu_seconds;
        }
      in
      (match e with
       | Cancel.Stop Cancel.Deadline ->
         raise (Resource_error.Deadline_exceeded progress)
       | Cancel.Stop Cancel.User -> raise (Resource_error.Cancelled progress)
       | e -> raise e)
  in
  let chunk = fix_empty schema chunk in
  Metrics.add_float Metrics.io_simulated_seconds io_seconds;
  Metrics.observe Metrics.query_seconds
    (cpu_seconds +. io_seconds +. compile_seconds);
  (* worker-domain wall clocks are a breakdown, not a work metric *)
  let domain_seconds, counters =
    List.partition
      (fun (k, _) -> String.starts_with ~prefix:domain_prefix k)
      (counter_deltas ~before)
  in
  let degraded = degraded_of_counters counters in
  append_history ~status:Raw_obs.History.Completed
    ~result_rows:(Chunk.n_rows chunk) ~degraded;
  {
    chunk;
    schema;
    cpu_seconds;
    io_seconds;
    compile_seconds;
    total_seconds = cpu_seconds +. io_seconds +. compile_seconds;
    parallelism = cfg.Config.parallelism;
    rows_scanned;
    domain_seconds;
    counters = List.sort (fun (a, _) (b, _) -> String.compare a b) counters;
    errors = Scan_errors.snapshot ();
    degraded;
    spans = (match trace_h with Some h -> Trace.spans h | None -> []);
    approx;
  }

let pp_result ppf r =
  let names = List.map (fun (f : Schema.field) -> f.name) (Schema.fields r.schema) in
  Format.fprintf ppf "@[<v>%s@," (String.concat " | " names);
  let n = Chunk.n_rows r.chunk in
  for i = 0 to min (n - 1) 49 do
    Format.fprintf ppf "%s@,"
      (String.concat " | "
         (List.map Value.to_string (Chunk.row r.chunk i)))
  done;
  if n > 50 then Format.fprintf ppf "... (%d rows total)@," n;
  Format.fprintf ppf "@]"

let pp_report ppf r =
  pp_result ppf r;
  Format.fprintf ppf
    "-- %d row(s); total %.4fs = cpu %.4fs + io(sim) %.4fs + compile(sim) %.4fs"
    (Chunk.n_rows r.chunk) r.total_seconds r.cpu_seconds r.io_seconds
    r.compile_seconds;
  (match r.approx with
   | None -> ()
   | Some info ->
     Format.fprintf ppf "@\n-- approx: eps=%g seed=%d sampled %d/%d morsels (%.1f%% of rows)%s"
       info.Approx.eps info.Approx.seed info.Approx.morsels_sampled
       info.Approx.morsels_total
       (100. *. Approx.fraction info)
       (if info.Approx.exact then " [exact]" else "");
     List.iter
       (fun (b : Approx.band) ->
         Format.fprintf ppf "@\n-- approx: %s = %g +- %g" b.Approx.name
           b.Approx.estimate b.Approx.half_width;
         if Float.is_finite b.Approx.relative && b.Approx.relative > 0. then
           Format.fprintf ppf " (%.2f%%)" (100. *. b.Approx.relative))
       info.Approx.bands);
  if r.domain_seconds <> [] then begin
    Format.fprintf ppf "@,-- domains(%d):" r.parallelism;
    List.iter
      (fun (k, s) ->
        let label =
          (* "par.domainN.seconds" -> "dN" *)
          match String.split_on_char '.' k with
          | [ _; d; _ ] -> "d" ^ String.sub d 6 (String.length d - 6)
          | _ -> k
        in
        Format.fprintf ppf " %s=%.4fs" label s)
      (List.sort compare r.domain_seconds)
  end;
  if not (Scan_errors.is_empty r.errors) then
    Format.fprintf ppf "@,-- %a" Scan_errors.pp_snapshot r.errors;
  if r.degraded <> [] then
    Format.fprintf ppf "@,-- degraded: %s" (String.concat "; " r.degraded);
  if r.spans <> [] then
    Format.fprintf ppf "@\n-- spans:@\n%a" Raw_obs.Export.pp_span_tree r.spans;
  match Trace.decisions r.spans with
  | [] -> ()
  | ds ->
    Format.fprintf ppf "@\n-- decisions (%d):" (List.length ds);
    List.iter (fun d -> Format.fprintf ppf "@\n--   %a" Trace.pp_decision d) ds
