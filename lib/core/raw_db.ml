open Raw_vector
open Raw_storage

(* Admission control: a bounded gate in front of query execution. The gate
   admits at most [limit] queries at a time and rejects the rest with a
   typed [Resource_error.Overloaded] — backpressure with an explicit
   signal, never an unbounded queue. Admitted queries then serialize on
   [exec]: the engine's adaptive state (catalog entries, shred pool LRU,
   template cache recency) is single-writer by design, so concurrency
   inside one engine means bounded admission + serialized execution, with
   each query's deadline still ticking while it waits its turn. *)
type gate = {
  g_mutex : Mutex.t;
  limit : int;
  mutable active : int;
  exec : Mutex.t;
}

type t = {
  catalog : Catalog.t;
  mutable options : Planner.options;
  gate : gate option;
  stmt_cache : Stmt_cache.t;
}

let create ?config ?(options = Planner.default) () =
  let catalog = Catalog.create ?config () in
  let gate =
    Option.map
      (fun limit ->
        { g_mutex = Mutex.create (); limit; active = 0; exec = Mutex.create () })
      (Catalog.config catalog).Config.max_concurrent
  in
  let stmt_cache = Stmt_cache.create () in
  Option.iter (Stmt_cache.register_budget stmt_cache) (Catalog.budget catalog);
  { catalog; options; gate; stmt_cache }

let catalog t = t.catalog
let stmt_cache t = t.stmt_cache
let options t = t.options
let set_options t o = t.options <- o

(* Cancel-aware wait for the execution turn: poll [try_lock] so a deadline
   that expires while the query is queued still fires (checked at the same
   cadence as a morsel boundary). *)
let lock_exec cancel m =
  let rec go () =
    if not (Mutex.try_lock m) then begin
      Cancel.check cancel;
      Domain.cpu_relax ();
      go ()
    end
  in
  go ()

let no_progress : Resource_error.progress =
  { rows_scanned = 0; io_seconds = 0.; compile_seconds = 0.; elapsed_seconds = 0. }

let with_admission t ~cancel f =
  match t.gate with
  | None -> f ()
  | Some g ->
    Mutex.protect g.g_mutex (fun () ->
        if g.active >= g.limit then begin
          Raw_obs.Metrics.incr Raw_obs.Metrics.gov_rejections;
          raise (Resource_error.Overloaded { active = g.active; limit = g.limit })
        end;
        g.active <- g.active + 1);
    let release () = Mutex.protect g.g_mutex (fun () -> g.active <- g.active - 1) in
    (match lock_exec cancel g.exec with
     | () -> ()
     | exception Cancel.Stop reason ->
       (* the deadline expired while the query was queued: it never ran *)
       release ();
       raise
         (match reason with
          | Cancel.Deadline -> Resource_error.Deadline_exceeded no_progress
          | Cancel.User -> Resource_error.Cancelled no_progress)
     | exception e ->
       release ();
       raise e);
    Fun.protect
      ~finally:(fun () ->
        Mutex.unlock g.exec;
        release ())
      f

let register_csv t ~name ~path ?(sep = ',') ~columns () =
  Catalog.register t.catalog ~name ~path
    ~format:(Format_kind.Csv { sep })
    ~schema:(Schema.of_pairs columns)

let register_jsonl t ~name ~path ~columns =
  Catalog.register t.catalog ~name ~path ~format:Format_kind.Jsonl
    ~schema:(Schema.of_pairs columns)

let register_fwb t ~name ~path ~columns =
  Catalog.register t.catalog ~name ~path ~format:Format_kind.Fwb
    ~schema:(Schema.of_pairs columns)

let register_jsonl_array t ~name ~path ~array_path ~columns =
  Catalog.register t.catalog ~name ~path
    ~format:(Format_kind.Jsonl_array { array_path })
    ~schema:(Schema.of_pairs (("parent", Dtype.Int) :: columns))

let register_ibx t ~name ~path ~columns =
  Catalog.register t.catalog ~name ~path ~format:Format_kind.Ibx
    ~schema:(Schema.of_pairs columns)

let register_hep t ~name_prefix ~path =
  Catalog.register_hep t.catalog ~name_prefix ~path

let fresh_cancel t =
  match (Catalog.config t.catalog).Config.deadline with
  | Some s -> Cancel.create ~deadline_seconds:s ()
  | None -> Cancel.never

let run_plan ?options ?cancel ?pre_spans t logical =
  let options = Option.value options ~default:t.options in
  let cancel = match cancel with Some c -> c | None -> fresh_cancel t in
  with_admission t ~cancel (fun () ->
      Executor.run ~options ~cancel ?pre_spans t.catalog logical)

let query ?options ?cancel t sql =
  if (Catalog.config t.catalog).Config.observe then begin
    (* binding happens before the executor creates the trace handle; time
       it here and let the executor stitch it in as a pre-span *)
    let t0 = Timing.now () in
    let logical = Sql_binder.bind_string t.catalog sql in
    let t1 = Timing.now () in
    run_plan ?options ?cancel ~pre_spans:[ ("bind", t0, t1) ] t logical
  end
  else run_plan ?options ?cancel t (Sql_binder.bind_string t.catalog sql)

let explain ?options t q =
  let options = Option.value options ~default:t.options in
  let logical = Sql_binder.bind_string t.catalog q in
  let planned = Planner.plan_with_trace t.catalog options logical in
  Raw_engine.Operator.close planned.op;
  planned.trace

let sql t q = (query t q).Executor.chunk

let scalar t q =
  let c = sql t q in
  if Chunk.n_rows c = 0 || Chunk.n_cols c = 0 then
    invalid_arg "Raw_db.scalar: empty result";
  Column.get (Chunk.column c 0) 0

let describe t name = (Catalog.get t.catalog name).Catalog.schema
let tables t = Catalog.tables t.catalog

let hep_reader t name =
  let entry = Catalog.get t.catalog name in
  Catalog.hep_reader t.catalog entry

let bind_cached t sql =
  match Stmt_cache.find_stmt t.stmt_cache sql with
  | Some plan -> plan
  | None ->
    let plan = Sql_binder.bind_string t.catalog sql in
    Stmt_cache.put_stmt t.stmt_cache sql plan;
    plan

let paths_of t names =
  List.filter_map
    (fun n -> Option.map (fun e -> e.Catalog.path) (Catalog.find t.catalog n))
    names
  |> List.sort_uniq String.compare

let stale_tables t names =
  let stale = List.filter (Catalog.stale_path t.catalog) (paths_of t names) in
  List.filter
    (fun n ->
      match Catalog.find t.catalog n with
      | Some e -> List.mem e.Catalog.path stale
      | None -> false)
    names

let refresh_tables t names =
  let paths = paths_of t names in
  List.concat_map
    (fun path ->
      match Catalog.refresh_path t.catalog path with
      | [] -> []
      | stale ->
        Raw_obs.Metrics.incr Raw_obs.Metrics.cache_invalidations;
        List.iter (Stmt_cache.invalidate_table t.stmt_cache) stale;
        stale)
    paths

let drop_file_caches t = Catalog.drop_file_caches t.catalog
let forget_data_state t = Catalog.forget_data_state t.catalog
let forget_adaptive_state t = Catalog.forget_adaptive_state t.catalog
