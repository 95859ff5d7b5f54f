(* The one-shot exploration workloads: each session is a fresh engine
   running one seeded script in-process through [Raw_db]. *)

open Raw_core
open Pb

let tables source dir =
  let file t = match source with Script.Csv_files -> Data.csv_file dir t | Fwb_files -> Data.fwb_file dir t in
  List.map (fun t -> (Data.table_name t, file t, Data.columns t)) [ Data.T30; T30s; T120 ]

let files source dir =
  List.map (fun (_, p, _) -> p) (tables source dir)
  @ match source with Script.Fwb_files -> [ Data.hep_file dir ] | Csv_files -> []

(* engine creation plus table registration *)
let make_db ?(profile = false) source dir =
  let db = Raw_db.create ~config:{ Config.default with profile } () in
  List.iter
    (fun (name, path, columns) ->
      match source with
      | Script.Csv_files -> Raw_db.register_csv db ~name ~path ~columns ()
      | Fwb_files -> Raw_db.register_fwb db ~name ~path ~columns)
    (tables source dir);
  (match source with Fwb_files -> Raw_db.register_hep db ~name_prefix:"h" ~path:(Data.hep_file dir) | Csv_files -> ());
  db

(* Set-up takes microseconds, so it is timed in batches far above the
   clock's 1 us tick; the metric is the median batch's time per engine. *)
let setup_seconds source dir =
  let per_batch = 200 in
  let batch () =
    let f = Util.speed_factor [ Util.reference () ] in
    let (), dt = Util.time (fun () -> for _ = 1 to per_batch do ignore (make_db source dir) done) in
    dt *. f /. float per_batch
  in
  ignore (batch ());
  Util.median (List.init 15 (fun _ -> batch ()))

type query_result = {
  cls : Script.cls;
  seconds : float;  (** at the reference speed (see {!Util.reference}) *)
  ok : bool;
}

type session = {
  index : int;
  wall : float;  (** engine set-up plus the queries' time, at the reference speed *)
  queries : query_result list;
  counters : (string * float) list;  (** summed per-query counter deltas *)
}

let add_counters acc l =
  List.fold_left
    (fun acc (k, v) ->
      let prev = Option.value ~default:0. (List.assoc_opt k acc) in
      (k, prev +. v) :: List.remove_assoc k acc)
    acc l

(* One session; answers are serialized between queries, outside the timed
   intervals. *)
let run_session ?(profile = false) ~source ~dir ~seed ~answers index =
  let qs = Script.session ~seed ~source ~index in
  let classes = Script.classify qs in
  (* Start from a collected heap, as a fresh process would: the previous
     session's engine is hundreds of MB of garbage, and collecting it
     during this session's queries would make their times depend on where
     the collector's cycle falls. *)
  Gc.full_major ();
  let before = Util.reference () in
  let db, setup = Util.time (fun () -> make_db ~profile source dir) in
  let counters = ref [] in
  let results =
    List.mapi
      (fun qi (q, cls) ->
        let sql = Script.to_sql q in
        let t0 = Util.now () in
        match Raw_db.query db sql with
        | r ->
          let seconds = Util.now () -. t0 in
          counters := add_counters !counters r.Executor.counters;
          let chunk = r.chunk in
          let rows = List.init (Raw_vector.Chunk.n_rows chunk) (Raw_vector.Chunk.row chunk) in
          let types = List.map (fun (f : Raw_vector.Schema.field) -> f.dtype) (Raw_vector.Schema.fields r.schema) in
          Util.write_answer answers ([ ("s", Util.J.Int index); ("q", Int qi) ] @ Oracle.json_of_rows ~types rows);
          { cls; seconds; ok = true }
        | exception e ->
          let seconds = Util.now () -. t0 in
          Util.write_answer answers [ ("s", Int index); ("q", Int qi); ("error", Str (Printexc.to_string e)) ];
          { cls; seconds; ok = false })
      (List.combine qs classes)
  in
  let f = Util.speed_factor [ before; Util.reference () ] in
  let results = List.map (fun r -> { r with seconds = r.seconds *. f }) results in
  let wall = (setup *. f) +. List.fold_left (fun a r -> a +. r.seconds) 0. results in
  { index; wall; queries = results; counters = !counters }

let class_ms sessions cls =
  List.concat_map (fun s -> List.filter_map (fun r -> if r.cls = cls then Some (r.seconds *. 1e3) else None) s.queries) sessions
  |> Util.median

let end_to_end ~setup ~rss sessions =
  let all = List.concat_map (fun s -> List.map (fun r -> r.seconds *. 1e3) s.queries) sessions in
  let total_s = List.fold_left (fun a s -> a +. s.wall) 0. sessions in
  [
    ("setup_s", "s", setup);
    ("first_query_ms", "ms", class_ms sessions Script.First);
    ("adapt_query_ms", "ms", class_ms sessions Script.Adapt);
    ("warm_query_ms", "ms", class_ms sessions Script.Warm);
    ("session_s", "s", Util.median (List.map (fun s -> s.wall) sessions));
    ("latency_p50_ms", "ms", Util.quantile 0.5 all);
    ("latency_p99_ms", "ms", Util.quantile 0.99 all);
    ("throughput_qps", "1/s", float (List.length all) /. total_s);
    ("peak_rss_mb", "MB", rss);
  ]

let attempted sessions = List.fold_left (fun a s -> a + List.length s.queries) 0 sessions
let failed sessions = List.fold_left (fun a s -> a + List.length (List.filter (fun r -> not r.ok) s.queries)) 0 sessions

(* Untraced: sessions until [seconds] have elapsed (at least 3). *)
let run ~source ~dir ~seed ~seconds ~answers =
  let setup = setup_seconds source dir in
  let t_end = Util.now () +. seconds in
  let rec loop acc i =
    if i >= 3 && Util.now () >= t_end then List.rev acc
    else loop (run_session ~source ~dir ~seed ~answers i :: acc) (i + 1)
  in
  let sessions = loop [] 0 in
  (sessions, end_to_end ~setup ~rss:(Util.peak_rss_mb None) sessions)

(* Traced: untraced (A) and profiled (B) sessions in ABBA order within
   [budget] seconds. Exact counts come from the first two profiled
   sessions, whose scripts are fixed by the seed. *)
let run_traced ~source ~dir ~seed ~budget ~answers =
  let t_end = Util.now () +. budget in
  let rec loop acc i =
    if i >= 4 && i mod 4 = 0 && Util.now () >= t_end then List.rev acc
    else
      let profile = i mod 4 = 1 || i mod 4 = 2 in
      loop ((profile, run_session ~profile ~source ~dir ~seed ~answers i) :: acc) (i + 1)
  in
  let all = loop [] 0 in
  let traced = List.filter_map (fun (p, s) -> if p then Some s else None) all in
  let untraced = List.filter_map (fun (p, s) -> if p then None else Some s) all in
  let counts =
    List.filter (fun s -> s.index = 1 || s.index = 2) traced
    |> List.fold_left (fun acc s -> add_counters acc s.counters) []
  in
  (List.map snd all, traced, untraced, counts)

let lookup counts k = Option.value ~default:0. (List.assoc_opt k counts)

let lookup_prefix counts p =
  List.fold_left (fun a (k, v) -> if String.starts_with ~prefix:p k then a +. v else a) 0. counts

let ratio a b = if a +. b = 0. then 0. else a /. (a +. b)

(* per-layer counts of a traced run, from the engine's own counters *)
let layer_counts ~get ~get_prefix =
  [
    ("scan_csv.fields_tokenized", "count", get "csv.fields_tokenized");
    ("scan_csv.values_converted", "count", get "csv.values_converted");
    ("scan_csv.bytes_copied", "bytes", get_prefix "bytes.copied.csv.");
    ("posmap.entries", "count", get "posmap.entries");
    ("builder.bytes_copied", "bytes", get_prefix "bytes.copied.builder.");
    ("shred_pool.hit_ratio", "ratio", ratio (get "pool.hits") (get "pool.misses"));
    ("shred_pool.values_gathered", "count", get "pool.values_gathered");
    ("template_cache.compiles", "count", get "tmpl.misses");
    ("mmap.io_sim_s", "s", get "io.simulated_seconds");
  ]

let overhead ~traced ~untraced =
  let session_s l = Util.median (List.map (fun s -> s.wall) l) in
  let qps l =
    float (attempted l) /. List.fold_left (fun a s -> a +. s.wall) 0. l
  in
  [
    ("trace.session_s_overhead", "ratio", (session_s traced /. session_s untraced) -. 1.);
    ("trace.throughput_qps_overhead", "ratio", 1. -. (qps traced /. qps untraced));
  ]
