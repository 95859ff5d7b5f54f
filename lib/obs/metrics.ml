open Raw_storage

(* The registry is process-global and append-only: metric ids are declared
   once (usually at module initialization) and looked up rarely — the hot
   path is the bump, which goes straight to the domain-local Io_stats
   shard under the metric's string id. That keeps the PR-1 concurrency
   story intact: workers bump their own shard, the coordinator merges
   deterministically after join, and this module adds only the typed
   vocabulary on top. *)

type kind = Counter | Gauge | Histogram

type t = {
  id : string;
  kind : kind;
  help : string;
  buckets : float array; (* ascending upper bounds; [||] unless Histogram *)
  family : bool; (* [id] is a prefix owning "id<suffix>" series *)
}

let registry : (string, t) Hashtbl.t = Hashtbl.create 64
let mutex = Mutex.create ()

let register ~kind ?(buckets = [||]) ?(family = false) ~help id =
  let m = { id; kind; help; buckets; family } in
  Mutex.protect mutex (fun () ->
      match Hashtbl.find_opt registry id with
      | Some existing ->
        if existing.kind <> kind then
          invalid_arg
            (Printf.sprintf "Metrics: %s re-declared with a different kind" id);
        existing
      | None ->
        Hashtbl.replace registry id m;
        m)

let counter ?family ~help id = register ~kind:Counter ?family ~help id
let gauge ?family ~help id = register ~kind:Gauge ?family ~help id

let histogram ~buckets ~help id =
  let buckets = Array.of_list (List.sort_uniq compare buckets) in
  register ~kind:Histogram ~buckets ~help id

let id m = m.id
let kind m = m.kind
let help m = m.help
let buckets m = Array.to_list m.buckets

(* ------------------------------------------------------------------ *)
(* Bump API — forwards to the domain-local Io_stats shard              *)
(* ------------------------------------------------------------------ *)

let incr m = Io_stats.incr m.id
let add m n = Io_stats.add m.id n
let add_float m x = Io_stats.add_float m.id x

let set m x =
  Io_stats.reset m.id;
  Io_stats.add_float m.id x

let bucket_key m b = Printf.sprintf "%s.bucket.%g" m.id b
let inf_bucket_key m = m.id ^ ".bucket.inf"
let sum_key m = m.id ^ ".sum"
let count_key m = m.id ^ ".count"

let observe m x =
  Io_stats.incr (count_key m);
  Io_stats.add_float (sum_key m) x;
  let n = Array.length m.buckets in
  let rec go i =
    if i >= n then Io_stats.incr (inf_bucket_key m)
    else if x <= m.buckets.(i) then Io_stats.incr (bucket_key m m.buckets.(i))
    else go (i + 1)
  in
  go 0

let value m = Io_stats.get_float m.id
let count m = Io_stats.get m.id

(* ------------------------------------------------------------------ *)
(* Quantile estimation over the fixed-bucket histograms                *)
(* ------------------------------------------------------------------ *)

(* Standard Prometheus-style estimation: find the bucket the q-th
   observation falls in and interpolate linearly inside it. Documented
   edge cases (metrics.mli): empty histogram -> None; the target landing
   in the +Inf bucket clamps to the largest finite bound (there is no
   finite upper edge to interpolate toward); a histogram with no finite
   buckets at all reports 0. *)
let quantile_of_snapshot snapshot m ~q =
  if m.kind <> Histogram || not (Float.is_finite q) || q < 0. || q > 1. then
    None
  else
    let lookup k =
      match List.assoc_opt k snapshot with Some v -> v | None -> 0.
    in
    let total = lookup (count_key m) in
    if total <= 0. then None
    else begin
      let target = q *. total in
      let n = Array.length m.buckets in
      let rec go i cum lower =
        if i >= n then Some (if n = 0 then 0. else m.buckets.(n - 1))
        else
          let c = lookup (bucket_key m m.buckets.(i)) in
          let cum' = cum +. c in
          if cum' >= target && c > 0. then
            let upper = m.buckets.(i) in
            Some (lower +. ((upper -. lower) *. ((target -. cum) /. c)))
          else go (i + 1) cum' m.buckets.(i)
      in
      go 0 0. 0.
    end

let quantile m ~q = quantile_of_snapshot (Io_stats.snapshot ()) m ~q

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)
(* ------------------------------------------------------------------ *)

let find id = Mutex.protect mutex (fun () -> Hashtbl.find_opt registry id)

let all () =
  Mutex.protect mutex (fun () ->
      Hashtbl.fold (fun _ m acc -> m :: acc) registry [])
  |> List.sort (fun a b -> String.compare a.id b.id)

(* Resolve a raw Io_stats key to the metric that owns it: an exact id, a
   histogram's derived series ([.sum]/[.count]/[.bucket.*]), or a family
   prefix ([par.domain<i>.seconds]...). *)
let owner key =
  match find key with
  | Some m -> Some m
  | None ->
    let owns m =
      (m.family && String.starts_with ~prefix:m.id key)
      || (m.kind = Histogram
          && (key = sum_key m || key = count_key m
              || String.starts_with ~prefix:(m.id ^ ".bucket.") key))
    in
    List.find_opt owns (all ())

(* ------------------------------------------------------------------ *)
(* Builtin vocabulary                                                  *)
(*                                                                     *)
(* Every counter the engine bumps is declared here, including the ones *)
(* written by layers below this library (Raw_storage.Cancel and        *)
(* Mem_budget bump their ids as raw strings; everything in lib/core    *)
(* uses the handles). test/test_obs.ml asserts that a query never      *)
(* touches an undeclared id.                                           *)
(* ------------------------------------------------------------------ *)

let scan_rows_scanned =
  counter "scan.rows_scanned"
    ~help:"Rows enumerated by scan loops under a live cancel token (batch granular)"

let scan_values_built =
  counter "scan.values_built" ~help:"Typed values materialized by scan kernels"

let scan_rows_skipped =
  counter "scan.rows_skipped" ~help:"Malformed rows dropped under the skip policy"

let csv_fields_tokenized =
  counter "csv.fields_tokenized" ~help:"CSV fields the tokenizer walked"

let csv_values_converted =
  counter "csv.values_converted" ~help:"CSV fields converted to typed values"

let jsonl_values_extracted =
  counter "jsonl.values_extracted" ~help:"JSONL values located by path extraction"

let fwb_values_read =
  counter "fwb.values_read" ~help:"Fixed-width binary slots decoded"

let hep_fields_read = counter "hep.fields_read" ~help:"HEP object fields decoded"

let dbms_columns_loaded =
  counter "dbms.columns_loaded" ~help:"Whole columns loaded by DBMS mode"

let dbms_values_gathered =
  counter "dbms.values_gathered" ~help:"Values gathered from DBMS-loaded columns"

let pool_values_gathered =
  counter "pool.values_gathered" ~help:"Values served by pooled column shreds"

let pool_hits = counter "pool.hits" ~help:"Shred-pool lookups served from the pool"
let pool_misses = counter "pool.misses" ~help:"Shred-pool lookups that missed"

let tmpl_hits =
  counter "tmpl.hits" ~help:"Template-cache lookups that reused a compiled artifact"

let tmpl_misses =
  counter "tmpl.misses" ~help:"Template-cache lookups that compiled a new artifact"

let tmpl_compile_seconds =
  counter "tmpl.compile_seconds"
    ~help:"Simulated JIT compile latency charged by template-cache misses (seconds)"

let posmap_entries =
  counter "posmap.entries" ~help:"Positions recorded into positional maps"

let posmap_segments_merged =
  counter "posmap.segments_merged"
    ~help:"Per-morsel positional-map segments stitched by concat"

let ibx_index_nodes =
  counter "ibx.index_nodes" ~help:"Embedded B+-tree nodes visited by index scans"

let gov_evictions =
  counter "gov.evictions" ~family:true
    ~help:"Cached items evicted under memory pressure (gov.evictions.<consumer> breaks down)"

let gov_evicted_bytes =
  counter "gov.evicted_bytes" ~help:"Bytes freed by memory-pressure evictions"

let gov_reservation_failures =
  counter "gov.reservation_failures"
    ~help:"Reservations unsatisfiable even after eviction"

let gov_rejections =
  counter "gov.rejections" ~help:"Queries rejected by admission control"

let gov_fallback_streaming =
  counter "gov.fallbacks.streaming"
    ~help:"Fetches streamed from the raw file instead of cached"

let gov_fallback_shred_pool =
  counter "gov.fallbacks.shred_pool" ~help:"Column shreds not pooled under pressure"

let gov_fallback_posmap =
  counter "gov.fallbacks.posmap" ~help:"Positional maps not retained under pressure"

let gov_budget_capacity_bytes =
  gauge "gov.budget_capacity_bytes"
    ~help:"Configured unified memory budget (0 when unbounded)"

let planner_adaptive =
  counter "planner.adaptive_chose_" ~family:true
    ~help:"Adaptive cost-model strategy resolutions, by chosen strategy"

let planner_mispredict =
  counter "planner.mispredict." ~family:true
    ~help:"Adaptive choices contradicted by observed selectivity, by chosen strategy"

let filter_rows_in =
  counter "filter.rows_in"
    ~help:"Rows entering planner-emitted filter chains (observed-selectivity denominator)"

let filter_rows_out =
  counter "filter.rows_out"
    ~help:"Rows surviving planner-emitted filter chains (observed-selectivity numerator)"

let history_records_written =
  counter "history.records_written"
    ~help:"Workload-history records appended to the JSONL store"

let history_write_errors =
  counter "history.write_errors"
    ~help:"Workload-history appends that failed (history is best-effort; queries never fail on it)"

let history_rotations =
  counter "history.rotations"
    ~help:"Workload-history files rotated to .1 after exceeding the size bound"

let history_write_retries =
  counter "history.write_retries"
    ~help:"Workload-history appends resumed after a short write (torn-line prevention)"

let server_connections =
  counter "server.connections" ~help:"Client sessions accepted by rawq serve"

let server_requests =
  counter "server.requests" ~help:"Query requests received by the server"

let server_errors =
  counter "server.errors"
    ~help:"Server requests answered with an error response (parse, bind, data, overload)"

let server_batches =
  counter "server.batches"
    ~help:"Shared-scan batches executed (one raw-file traversal feeding >= 2 queries)"

let server_batched_queries =
  counter "server.batched_queries"
    ~help:"Queries answered from a shared scan instead of a private traversal"

let server_session_end =
  counter "server.session_end" ~family:true
    ~help:"Session teardown causes (server.session_end.clean / .eof_mid_request / \
           .timeout_idle / .timeout_request / .write_error / .error)"

let server_too_large =
  counter "server.too_large"
    ~help:"Request lines rejected (and drained unbuffered) for exceeding max_request_bytes"

let server_shed_sessions =
  counter "server.shed_sessions"
    ~help:"Connections refused at the max_sessions cap with an overload + retry_after line"

let server_shed_requests =
  counter "server.shed_requests"
    ~help:"Requests refused at the pending-queue cap with an overload + retry_after response"

let server_accept_retries =
  counter "server.accept_retries"
    ~help:"accept() failures (EMFILE/ENFILE/ECONNABORTED...) absorbed by backoff instead of a crash"

let server_shared_fallbacks =
  counter "server.shared_fallbacks"
    ~help:"Shared-scan groups whose warm pass failed; their members ran unshared"

let server_batcher_restarts =
  counter "server.batcher_restarts"
    ~help:"Batcher thread deaths absorbed by the watchdog (in-flight batch failed, thread relaunched)"

let server_client_send_errors =
  counter "server.client.send_errors"
    ~help:"Client-side request sends that failed before a response arrived (typed, never swallowed)"

let server_client_retries =
  counter "server.client.retries"
    ~help:"Client requests re-attempted after a retryable failure (connect refused, overload with retry_after)"

let cache_stmt_hits =
  counter "cache.stmt.hits"
    ~help:"Statement-cache lookups that reused a bound plan (parse+bind skipped)"

let cache_stmt_misses =
  counter "cache.stmt.misses"
    ~help:"Statement-cache lookups that parsed and bound a fresh plan"

let cache_result_hits =
  counter "cache.result.hits"
    ~help:"Result-cache lookups answered without touching the raw file"

let cache_result_misses =
  counter "cache.result.misses"
    ~help:"Result-cache lookups that fell through to execution"

let cache_invalidations =
  counter "cache.invalidations"
    ~help:"File-identity changes that dropped cached statements/results and extended or dropped per-file adaptive state"

let catalog_extends =
  counter "catalog.extends"
    ~help:"File changes found to be verified appends: per-file state extended over the new rows"

let catalog_invalidations =
  counter "catalog.invalidations"
    ~help:"File changes that dropped the per-file state (not a verified append)"

let approx_queries =
  counter "approx.queries"
    ~help:"Queries that ran the sampled (online-aggregation) scan path"

let approx_early_stops =
  counter "approx.early_stops"
    ~help:"Approximate queries stopped at the target precision before exhausting the file"

let approx_exhausted =
  counter "approx.exhausted"
    ~help:"Approximate queries that exhausted the file and returned the exact answer"

let approx_ineligible =
  counter "approx.ineligible"
    ~help:"Queries run exactly under --approx because the plan shape is not estimable"

let approx_morsels_sampled =
  counter "approx.morsels_sampled"
    ~help:"Morsels fetched by the sampled scan path"

let approx_rows_sampled =
  counter "approx.rows_sampled"
    ~help:"Rows fetched by the sampled scan path"

let par_domain =
  counter "par.domain" ~family:true
    ~help:"Per-worker-domain wall clocks (par.domain<i>.seconds)"

let obs_decisions_dropped =
  counter "obs.decisions_dropped"
    ~help:"Decision events dropped past a trace handle's cap of 4096"

let io_simulated_seconds =
  counter "io.simulated_seconds"
    ~help:"Simulated cold-read I/O seconds charged to queries (cost model)"

let alloc_minor_words =
  counter "alloc.minor_words"
    ~help:"Words allocated on minor heaps during profiled queries (Gc.minor_words delta)"

let alloc_major_words =
  counter "alloc.major_words"
    ~help:"Words allocated directly on the major heap during profiled queries \
           (promotions excluded)"

let alloc_promoted_words =
  counter "alloc.promoted_words"
    ~help:"Words promoted from minor to major heaps during profiled queries"

let gc_minor_collections =
  counter "gc.minor_collections"
    ~help:"Minor collections completed during profiled queries"

let gc_major_collections =
  counter "gc.major_collections"
    ~help:"Major collection cycles completed during profiled queries"

let bytes_copied =
  counter "bytes.copied." ~family:true
    ~help:"Bytes duplicated into intermediate buffers by the scan->shred->column \
           chain, by named copy site (profiled queries only)"

let latency_buckets =
  [ 0.0001; 0.0005; 0.001; 0.005; 0.01; 0.05; 0.1; 0.5; 1.; 5.; 10. ]

let query_seconds =
  histogram "query.seconds" ~buckets:latency_buckets
    ~help:"End-to-end query latency (cpu + simulated io + simulated compile)"

let morsel_seconds =
  histogram "morsel.seconds" ~buckets:latency_buckets
    ~help:"Wall time of one morsel on a worker domain"

let server_request_seconds =
  histogram "server.request.seconds" ~buckets:latency_buckets
    ~help:"Server request latency, first request byte to response written"

let server_queue_seconds =
  histogram "server.queue.seconds" ~buckets:latency_buckets
    ~help:"Time a request waited on the queue before its batch started"
