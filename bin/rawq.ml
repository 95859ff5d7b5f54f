(* rawq — query raw files with SQL, no loading required.

   Examples:
     rawq --csv "t=data.csv@a:int,b:float" "SELECT MAX(b) FROM t WHERE a < 10"
     rawq --fwb "b=data.fwb@a:int,x:float" --mode insitu "SELECT COUNT(*) FROM b"
     rawq --hep "atlas=events.hep" "SELECT COUNT(*) FROM atlas_muons WHERE pt > 25"
     rawq --csv "t=data.csv@a:int" --repl *)

open Cmdliner
open Raw_vector
open Raw_storage
open Raw_core

let parse_schema spec =
  (* "a:int,b:float,c:string" *)
  String.split_on_char ',' spec
  |> List.map (fun field ->
         match String.split_on_char ':' (String.trim field) with
         | [ name; ty ] ->
           (match Dtype.of_string ty with
            | Some dt -> (name, dt)
            | None -> failwith (Printf.sprintf "unknown type %S in schema" ty))
         | _ -> failwith (Printf.sprintf "bad schema field %S (want name:type)" field))

let parse_table_spec spec =
  (* "name=path@schema" (schema optional for HEP) *)
  match String.index_opt spec '=' with
  | None -> failwith (Printf.sprintf "bad table spec %S (want name=path[@schema])" spec)
  | Some eq ->
    let name = String.sub spec 0 eq in
    let rest = String.sub spec (eq + 1) (String.length spec - eq - 1) in
    (match String.index_opt rest '@' with
     | None -> (name, rest, None)
     | Some at ->
       ( name,
         String.sub rest 0 at,
         Some (String.sub rest (at + 1) (String.length rest - at - 1)) ))

let register_tables db ~csv ~jsonl ~jsonl_array ~fwb ~ibx ~hep ~sep =
  let need_schema what = function
    | Some s -> parse_schema s
    | None -> failwith (what ^ " tables need a schema: name=path@a:int,b:float")
  in
  List.iter
    (fun spec ->
      let name, path, schema = parse_table_spec spec in
      Raw_db.register_csv db ~name ~path ~sep
        ~columns:(need_schema "CSV" schema) ())
    csv;
  List.iter
    (fun spec ->
      let name, path, schema = parse_table_spec spec in
      Raw_db.register_jsonl db ~name ~path ~columns:(need_schema "JSONL" schema))
    jsonl;
  List.iter
    (fun spec ->
      (* name=path#array.path@fields *)
      let name, rest, schema = parse_table_spec spec in
      match String.index_opt rest '#' with
      | None -> failwith "JSONL child tables need name=path#array.path@fields"
      | Some h ->
        Raw_db.register_jsonl_array db ~name
          ~path:(String.sub rest 0 h)
          ~array_path:(String.sub rest (h + 1) (String.length rest - h - 1))
          ~columns:(need_schema "JSONL array" schema))
    jsonl_array;
  List.iter
    (fun spec ->
      let name, path, schema = parse_table_spec spec in
      Raw_db.register_fwb db ~name ~path ~columns:(need_schema "FWB" schema))
    fwb;
  List.iter
    (fun spec ->
      let name, path, schema = parse_table_spec spec in
      Raw_db.register_ibx db ~name ~path ~columns:(need_schema "IBX" schema))
    ibx;
  List.iter
    (fun spec ->
      let name, path, _ = parse_table_spec spec in
      Raw_db.register_hep db ~name_prefix:name ~path)
    hep

(* "64k", "16m", "1g" or plain bytes *)
let parse_bytes s =
  let fail () = failwith (Printf.sprintf "bad byte size %S (want N, Nk, Nm or Ng)" s) in
  if s = "" then fail ();
  let last = s.[String.length s - 1] in
  let scaled mult =
    match int_of_string_opt (String.sub s 0 (String.length s - 1)) with
    | Some n -> n * mult
    | None -> fail ()
  in
  match last with
  | 'k' | 'K' -> scaled 1024
  | 'm' | 'M' -> scaled (1024 * 1024)
  | 'g' | 'G' -> scaled (1024 * 1024 * 1024)
  | _ -> (match int_of_string_opt s with Some n -> n | None -> fail ())

(* Exit codes, one per failure class, so scripts can tell a data problem
   (3) from a blown deadline (4) from load shedding (5) without parsing
   stderr: 0 ok, 1 parse/bind, 2 usage/config, 3 malformed data under
   --on-error fail, 4 deadline exceeded, 5 rejected by admission control. *)
let run_query db ~stats ~metrics ~trace_out ~profile ~profile_out sql =
  match Raw_db.query db sql with
  | report ->
    Format.printf "%a@." Executor.pp_report report;
    if stats then begin
      Format.printf "-- per-query counters:@.";
      let w =
        List.fold_left
          (fun acc (k, _) -> max acc (String.length k))
          0 report.counters
      in
      List.iter
        (fun (k, v) ->
          if Float.is_integer v then Format.printf "--   %-*s %12.0f@." w k v
          else Format.printf "--   %-*s %12.6f@." w k v)
        report.counters
    end;
    (match trace_out with
     | Some path ->
       Raw_obs.Export.write_chrome_trace ~path report.Executor.spans;
       Format.printf "-- trace written to %s (%d spans)@." path
         (List.length report.Executor.spans)
     | None -> ());
    (* folded stacks over this query's span tree plus its per-query
       copy-site deltas (report.counters is already the delta list) *)
    if profile || profile_out <> None then begin
      let folded =
        Raw_obs.Prof.folded_of_spans report.Executor.spans
        ^ Raw_obs.Prof.folded_of_copies report.Executor.counters
      in
      (match profile_out with
       | Some path ->
         let oc = open_out path in
         Fun.protect
           ~finally:(fun () -> close_out_noerr oc)
           (fun () -> output_string oc folded);
         Format.printf "-- profile written to %s (%d folded line(s))@." path
           (List.length (Raw_obs.Prof.parse_folded folded))
       | None -> ());
      if profile then Format.printf "%a@." Raw_obs.Prof.pp_report folded
    end;
    if metrics then print_string (Raw_obs.Export.prometheus ());
    0
  | exception Sql_binder.Bind_error msg ->
    Format.eprintf "bind error: %s@." msg;
    1
  | exception Raw_sql.Parser.Error msg ->
    Format.eprintf "parse error: %s@." msg;
    1
  | exception Scan_errors.Error e ->
    (* Fail_fast met malformed data: report the first offending field *)
    Format.eprintf
      "data error: %s at byte %d%s (rerun with --on-error skip or null to \
       tolerate malformed rows)@."
      e.Scan_errors.cause e.Scan_errors.offset
      (if e.Scan_errors.field >= 0 then
         Printf.sprintf " (field %d)" e.Scan_errors.field
       else "");
    3
  | exception (Kernels.Overflow _ as e) ->
    Format.eprintf "%s@." (Printexc.to_string e);
    3
  | exception (Kernels.Zero_divisor _ as e) ->
    Format.eprintf "data error: %s@." (Printexc.to_string e);
    3
  | exception Resource_error.Deadline_exceeded p ->
    Format.eprintf "deadline exceeded: %a@." Resource_error.pp_progress p;
    4
  | exception Resource_error.Cancelled p ->
    Format.eprintf "cancelled: %a@." Resource_error.pp_progress p;
    4
  | exception Resource_error.Overloaded { active; limit } ->
    Format.eprintf
      "overloaded: %d quer%s already running (limit %d); retry later@." active
      (if active = 1 then "y is" else "ies are")
      limit;
    5

let repl db ~stats ~metrics ~trace_out ~profile ~profile_out =
  Format.printf "rawq — adaptive query processing on raw data. \\q quits, \\tables lists, \\explain <sql> traces the plan.@.";
  Format.printf "tables: %s@." (String.concat ", " (Raw_db.tables db));
  let rec loop () =
    Format.printf "raw> @?";
    match input_line stdin with
    | exception End_of_file -> ()
    | "\\q" | "\\quit" | "exit" -> ()
    | line when String.length line > 9 && String.sub line 0 9 = "\\explain " ->
      (match Raw_db.explain db (String.sub line 9 (String.length line - 9)) with
       | trace -> List.iter (fun l -> Format.printf "  %s@." l) trace
       | exception Sql_binder.Bind_error msg -> Format.eprintf "bind error: %s@." msg
       | exception Raw_sql.Parser.Error msg -> Format.eprintf "parse error: %s@." msg);
      loop ()
    | "\\tables" ->
      List.iter
        (fun t ->
          Format.printf "%s %a@." t Schema.pp (Raw_db.describe db t))
        (Raw_db.tables db);
      loop ()
    | "" -> loop ()
    | line ->
      (ignore : int -> unit)
        (run_query db ~stats ~metrics ~trace_out ~profile ~profile_out line);
      loop ()
  in
  loop ()

let build_options ~mode ~shreds ~join_policy ~every =
  {
    Planner.access =
      (match mode with
       | "dbms" -> Access.Dbms
       | "external" -> Access.External
       | "insitu" -> Access.In_situ
       | "jit" -> Access.Jit
       | m -> failwith ("unknown mode " ^ m));
    shreds =
      (match shreds with
       | "full" -> Planner.Full_columns
       | "shreds" -> Planner.Shreds
       | "multi" -> Planner.Multi_shreds
       | "adaptive" -> Planner.Adaptive
       | s -> failwith ("unknown shred strategy " ^ s));
    join_policy =
      (match join_policy with
       | "early" -> Planner.Early
       | "intermediate" -> Planner.Intermediate
       | "late" -> Planner.Late
       | j -> failwith ("unknown join policy " ^ j));
    tracked = `Every every;
    use_indexes = true;
  }

let csv_arg =
  Arg.(value & opt_all string []
       & info [ "csv" ] ~docv:"NAME=PATH@SCHEMA"
           ~doc:"Register a CSV file (SCHEMA is name:type,... with types \
                 int, float, bool, string).")

let jsonl_arg =
  Arg.(value & opt_all string []
       & info [ "jsonl" ] ~docv:"NAME=PATH@SCHEMA"
           ~doc:"Register a JSON-lines file (column names may be dotted \
                 paths into the objects, e.g. user.id:int).")

let jsonl_array_arg =
  Arg.(value & opt_all string []
       & info [ "jsonl-array" ] ~docv:"NAME=PATH#ARRAY@SCHEMA"
           ~doc:"Register a flattened child table over an array of objects                  inside each JSONL row (ARRAY is the dotted path to the                  array; a 'parent' row-id column is added automatically).")

let fwb_arg =
  Arg.(value & opt_all string []
       & info [ "fwb" ] ~docv:"NAME=PATH@SCHEMA"
           ~doc:"Register a fixed-width binary file.")

let ibx_arg =
  Arg.(value & opt_all string []
       & info [ "ibx" ] ~docv:"NAME=PATH@SCHEMA"
           ~doc:"Register an indexed binary file (embedded B+-tree used for                  range predicates on the indexed column).")

let hep_arg =
  Arg.(value & opt_all string []
       & info [ "hep" ] ~docv:"PREFIX=PATH"
           ~doc:"Register a HEP event file as PREFIX_events, PREFIX_muons, \
                 PREFIX_electrons, PREFIX_jets.")

let sep_arg =
  Arg.(value & opt (some char) None
       & info [ "sep" ] ~docv:"CHAR" ~doc:"CSV field separator (default ,).")

let mode_arg =
  Arg.(value & opt string "jit"
       & info [ "mode" ] ~docv:"MODE"
           ~doc:"Access-path strategy: jit (default), insitu, external, dbms.")

let shreds_arg =
  Arg.(value & opt string "shreds"
       & info [ "shreds" ] ~docv:"S"
           ~doc:"Column materialization: shreds (default), full, multi, or \
                 adaptive (cost model picks per query from accumulated \
                 statistics).")

let join_arg =
  Arg.(value & opt string "late"
       & info [ "join" ] ~docv:"J"
           ~doc:"Join materialization point: late (default), intermediate, early.")

let every_arg =
  Arg.(value & opt int 10
       & info [ "posmap-every" ] ~docv:"K"
           ~doc:"Positional map tracks every K-th CSV column (default 10).")

let parallelism_arg =
  Arg.(value & opt int 1
       & info [ "parallelism" ] ~docv:"N"
           ~doc:"Domains used by morsel-driven full scans over CSV, FWB and \
                 HEP files (default 1 = sequential; results are identical at \
                 any value).")

let on_error_arg =
  Arg.(value & opt string "fail"
       & info [ "on-error" ] ~docv:"POLICY"
           ~doc:"What a scan does with malformed rows: fail (default; stop                  at the first bad field), skip (drop bad rows), null (keep                  the rows, bad fields become NULL). Tolerated errors are                  counted per cause and summarized after the result.")

let deadline_arg =
  Arg.(value & opt (some float) None
       & info [ "deadline" ] ~docv:"SECONDS"
           ~doc:"Per-query wall-clock budget. A query that outlives it stops \
                 at the next row-batch boundary and exits with code 4, \
                 reporting the partial progress it made.")

let memory_budget_arg =
  Arg.(value & opt (some string) None
       & info [ "memory-budget" ] ~docv:"BYTES"
           ~doc:"Unified cap on adaptive state (shreds, templates, \
                 positional maps, cached pages); accepts k/m/g suffixes. \
                 Under pressure cold structures are evicted and scans \
                 degrade to streaming — queries stay correct, the \
                 governance actions are reported per query.")

let max_concurrent_arg =
  Arg.(value & opt (some int) None
       & info [ "max-concurrent" ] ~docv:"N"
           ~doc:"Admission limit: at most N queries in flight; further \
                 queries are rejected (exit code 5) instead of queueing \
                 without bound.")

let approx_arg =
  Arg.(value & opt (some float) None
       & info [ "approx" ] ~docv:"EPS"
           ~doc:"Online aggregation: answer eligible COUNT/SUM/AVG queries \
                 from a seeded random sample of the file, stopping once \
                 every aggregate's 95% confidence half-width is below EPS \
                 relative to its estimate (EPS in (0,1) exclusive, e.g. \
                 0.05 = within 5%). If the file is exhausted first the \
                 answer is exact. The report carries estimate, bound and \
                 the fraction of rows scanned; ineligible queries (GROUP \
                 BY, joins, MIN/MAX) run exactly.")

let approx_seed_arg =
  Arg.(value & opt int 42
       & info [ "approx-seed" ] ~docv:"SEED"
           ~doc:"Seed of the --approx sampling order (default 42). The \
                 order — and the estimate — is a pure function of the seed \
                 and the file's morsel count, identical at any \
                 --parallelism.")

let chunk_rows_arg =
  Arg.(value & opt int 4096
       & info [ "chunk-rows" ] ~docv:"N"
           ~doc:"Rows per vector exchanged between operators, and the \
                 morsel size --approx samples at (default 4096).")

let repl_arg =
  Arg.(value & flag & info [ "repl" ] ~doc:"Start an interactive prompt.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print per-query work counters.")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Print the process's metrics in Prometheus text exposition \
                 format after the query.")

let analyze_arg =
  Arg.(value & flag
       & info [ "analyze" ]
           ~doc:"EXPLAIN ANALYZE: record the query's span tree and \
                 adaptive-decision audit log and print both after the \
                 result.")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the query's span tree as Chrome trace-event JSON to \
                 FILE (load in chrome://tracing or Perfetto). Implies \
                 span recording.")

let profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Profile the query's resource usage: GC/allocation deltas \
                 at every span boundary, alloc.*/gc.* counters, and \
                 bytes.copied.<site> accounting across the \
                 scan->shred->column chain, ranked in a report after the \
                 result. Results are bit-identical to unprofiled runs.")

let profile_out_arg =
  Arg.(value & opt (some string) None
       & info [ "profile-out" ] ~docv:"FILE"
           ~doc:"Write the query's profile as folded stacks (one \
                 'frames;joined;by;semicolons count' line each for \
                 wall-microseconds, allocated words and copied bytes) to \
                 FILE — the input format of flamegraph.pl and \
                 $(b,rawq profile). Implies --profile.")

let history_arg =
  Arg.(value & opt (some string) None
       & info [ "history" ] ~docv:"FILE"
           ~doc:"Append one workload-history record per query (JSONL; \
                 written even for failed or cancelled queries, rotated to \
                 FILE.1 past 16 MiB). Feed the file to $(b,rawq report).")

let query_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL")

(* The table, access-path and engine flags of the query and serve
   commands, as one term. Its value opens the engine: [open_db tune]
   builds the planner options and the config ([tune] sets the command's
   own Config fields), creates the db and registers the tables. A bad
   flag value raises Failure there, inside the command's own handler. *)
let engine_term =
  let open_db csv jsonl jsonl_array fwb ibx hep sep mode shreds join_policy
      every par on_error deadline memory_budget max_concurrent approx
      approx_seed chunk_rows history tune =
    let options = build_options ~mode ~shreds ~join_policy ~every in
    if par < 1 then failwith "--parallelism must be >= 1";
    let on_error =
      match Scan_errors.policy_of_string on_error with
      | Some p -> p
      | None -> failwith ("unknown error policy " ^ on_error)
    in
    let config =
      tune
        {
          Config.default with
          Config.parallelism = par;
          chunk_rows;
          on_error;
          deadline;
          memory_budget = Option.map parse_bytes memory_budget;
          max_concurrent;
          history_path = history;
          approx;
          approx_seed;
        }
    in
    let db = Raw_db.create ~config ~options () in
    register_tables db ~csv ~jsonl ~jsonl_array ~fwb ~ibx ~hep ~sep;
    db
  in
  Term.(
    const open_db $ csv_arg $ jsonl_arg $ jsonl_array_arg $ fwb_arg $ ibx_arg
    $ hep_arg
    $ (const (Option.value ~default:',') $ sep_arg)
    $ mode_arg $ shreds_arg $ join_arg $ every_arg $ parallelism_arg
    $ on_error_arg $ deadline_arg $ memory_budget_arg $ max_concurrent_arg
    $ approx_arg $ approx_seed_arg $ chunk_rows_arg $ history_arg)

let main open_db repl_flag stats metrics analyze trace_out profile profile_out
    query =
  try
    let db =
      open_db (fun c ->
          {
            c with
            Config.observe = analyze || trace_out <> None;
            profile = profile || profile_out <> None;
          })
    in
    (match query with
     | Some q when not repl_flag ->
       run_query db ~stats ~metrics ~trace_out ~profile ~profile_out q
     | _ ->
       repl db ~stats ~metrics ~trace_out ~profile ~profile_out;
       0)
  with
  | Failure msg | Sys_error msg ->
    Format.eprintf "rawq: %s@." msg;
    2
  | Resource_error.Invalid_config msg ->
    Format.eprintf "rawq: invalid configuration: %s@." msg;
    2

let report_cmd =
  let run file =
    let records, skipped = Raw_obs.History.load file in
    if records = [] && not (Sys.file_exists file) then begin
      Format.eprintf "rawq report: cannot read %s@." file;
      2
    end
    else begin
      Format.printf "%a@." Raw_obs.Summary.pp_report records;
      if skipped > 0 then
        Format.printf "-- %d malformed history line(s) skipped@." skipped;
      0
    end
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"HISTORY.jsonl"
             ~doc:"Workload-history file written via --history.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Summarize a workload-history file: latency percentiles \
          (p50/p95/p99) per query shape and per access path, cache \
          hit-rate trends, the most regressed shapes, and the cost \
          model's calibration per strategy (predicted-vs-observed \
          selectivity ratios and misprediction counts).")
    Term.(const run $ file_arg)

(* Pretty-print a folded-stack profile (from --profile-out or the
   server's profile op) as a ranked hot-site report. *)
let profile_cmd =
  let run file =
    match open_in_bin file with
    | exception Sys_error msg ->
      Format.eprintf "rawq profile: %s@." msg;
      2
    | ic ->
      let text =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Format.printf "%a@." Raw_obs.Prof.pp_report text;
      0
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PROFILE.folded"
             ~doc:"Folded-stack file written via --profile-out (or the \
                   folded field of the server's profile op).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Render a folded-stack profile as a ranked report: per weight \
          root (wall microseconds, allocated words, copied bytes), the \
          hottest stacks with their share of the total. The same file \
          feeds flamegraph.pl unchanged.")
    Term.(const run $ file_arg)

(* ------------------------------------------------------------------ *)
(* serve / client: the long-lived multi-client server (PR 6)           *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(required & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix socket path the server listens on (an existing \
                 socket file is replaced).")

let batch_window_arg =
  Arg.(value & opt float 2.0
       & info [ "batch-window" ] ~docv:"MS"
           ~doc:"Shared-scan batching window in milliseconds (default 2): \
                 result-cache misses on the same table arriving within it \
                 are served by one raw-file traversal. The server waits for \
                 it only when a queued miss reads a column not yet in \
                 memory; misses over pooled columns run at once, and \
                 result-cache hits never wait for it. 0 disables batching \
                 delay.")

let no_result_cache_arg =
  Arg.(value & flag
       & info [ "no-result-cache" ]
           ~doc:"Disable the result cache (statement caching and shared \
                 scans stay on).")

let max_request_bytes_arg =
  Arg.(value & opt string "1m"
       & info [ "max-request-bytes" ] ~docv:"BYTES"
           ~doc:"Longest accepted request line (k/m/g suffixes; default 1m). \
                 A longer line is answered with a typed too_large error and \
                 drained without buffering; the session stays usable and \
                 memory stays bounded.")

let request_timeout_arg =
  Arg.(value & opt float 30.
       & info [ "request-timeout" ] ~docv:"SECONDS"
           ~doc:"Once a request's first byte arrives, the rest of the line \
                 must follow — and the response write complete — within \
                 this budget (default 30; 0 disables). Slow-loris sessions \
                 are reaped instead of wedging a thread.")

let idle_timeout_arg =
  Arg.(value & opt float 300.
       & info [ "idle-timeout" ] ~docv:"SECONDS"
           ~doc:"A session may sit between requests at most this long \
                 (default 300; 0 disables). Reaped sessions are counted \
                 under server.session_end.timeout_idle.")

let max_sessions_arg =
  Arg.(value & opt int 256
       & info [ "max-sessions" ] ~docv:"N"
           ~doc:"Concurrent-session cap (default 256; 0 removes it). A \
                 connection past the cap receives a single code-5 line \
                 with a retry_after hint and is closed — shed at the door, \
                 never a thread.")

let telemetry_tick_arg =
  Arg.(value & opt float 1.0
       & info [ "telemetry-tick" ] ~docv:"SECONDS"
           ~doc:"Seconds between windowed-metrics snapshots (default 1; 0 \
                 disables). Powers the 10s/60s/5m q/s and percentile \
                 blocks in stats responses and $(b,rawq top).")

let trace_retain_arg =
  Arg.(value & opt int 32
       & info [ "trace-retain" ] ~docv:"N"
           ~doc:"Retain the N slowest request traces of the last 5 minutes \
                 for the trace op (default 32; 0 disables request tracing \
                 entirely).")

let serve_profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Run every query with resource profiling on: span \
                 boundaries capture GC/allocation deltas and format \
                 kernels charge bytes.copied.<site> counters, all \
                 surfaced through the metrics and profile ops. Results \
                 are bit-identical; scans pay the Gc.quick_stat \
                 sampling cost.")

let serve_main open_db profile socket batch_window no_result_cache
    max_request_bytes request_timeout idle_timeout max_sessions telemetry_tick
    trace_retain =
  try
    let db =
      open_db (fun c ->
          {
            c with
            Config.profile;
            max_request_bytes = parse_bytes max_request_bytes;
            request_timeout =
              (if request_timeout <= 0. then None else Some request_timeout);
            idle_timeout =
              (if idle_timeout <= 0. then None else Some idle_timeout);
            max_sessions =
              (if max_sessions <= 0 then None else Some max_sessions);
            telemetry_tick = Float.max 0. telemetry_tick;
            trace_retain = max 0 trace_retain;
          })
    in
    if Raw_db.tables db = [] then
      failwith "no tables registered; pass --csv/--jsonl/--fwb/--ibx/--hep";
    (* printed (and flushed) before serving so a supervisor — e.g. the CI
       smoke driver — can wait for readiness on this line *)
    Format.printf "rawq: serving [%s] on %s@."
      (String.concat ", " (Raw_db.tables db))
      socket;
    Format.print_flush ();
    Server.serve
      ~batch_window:(batch_window /. 1000.)
      ~cache_results:(not no_result_cache) ~socket_path:socket db;
    Format.printf "rawq: server on %s shut down cleanly@." socket;
    0
  with
  | Failure msg | Sys_error msg ->
    Format.eprintf "rawq serve: %s@." msg;
    2
  | Resource_error.Invalid_config msg ->
    Format.eprintf "rawq serve: invalid configuration: %s@." msg;
    2
  | Unix.Unix_error (e, fn, _) ->
    Format.eprintf "rawq serve: %s: %s@." fn (Unix.error_message e);
    2

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the registered tables to concurrent clients over a Unix \
          socket: one JSON request/response line per query, with shared \
          scans (concurrent queries on one table within the batching \
          window execute as a single raw-file traversal) and a statement \
          + result cache invalidated when the underlying files change. \
          Hostile or broken clients are contained by protocol armor: \
          bounded request lines, request/idle timeouts, and session/queue \
          caps that shed load with retry hints. \
          Shut down with $(b,rawq client --socket PATH --shutdown).")
    Term.(
      const serve_main $ engine_term $ serve_profile_arg $ socket_arg
      $ batch_window_arg $ no_result_cache_arg $ max_request_bytes_arg
      $ request_timeout_arg $ idle_timeout_arg $ max_sessions_arg
      $ telemetry_tick_arg $ trace_retain_arg)

let render_cell =
  let module J = Raw_obs.Jsons in
  function
  | J.Null -> ""
  | J.Int n -> string_of_int n
  | J.Float f -> Printf.sprintf "%g" f
  | J.Bool b -> string_of_bool b
  | J.Str s -> s
  | j -> J.to_string j

let print_response ?(timing = false) j =
  let module J = Raw_obs.Jsons in
  let num tm name =
    match J.member name tm with
    | Some (J.Float f) -> f
    | Some (J.Int n) -> float_of_int n
    | _ -> 0.
  in
  let timing_footer () =
    if timing then
      match J.member "timing" j with
      | Some tm ->
        let ms name = 1000. *. num tm name in
        Printf.printf
          "-- timing: read %.2fms  queue %.2fms  execute %.2fms  total %.2fms\n"
          (ms "read_s") (ms "queue_s") (ms "execute_s") (ms "total_s")
      | None -> ()
  in
  match (J.member "op" j, J.member "rows" j) with
  | Some (J.Str "metrics"), _ ->
    (* the exposition is the payload: print it raw, ready to scrape *)
    (match J.member "exposition" j with
     | Some (J.Str s) -> print_string s
     | _ -> print_endline (J.to_string j))
  | Some (J.Str "profile"), _ ->
    (* folded stacks are the payload: raw output pipes into
       flamegraph.pl or a file for rawq profile *)
    (match J.member "folded" j with
     | Some (J.Str s) -> print_string s
     | _ -> print_endline (J.to_string j))
  | _, Some (J.List rows) ->
    (match J.member "columns" j with
     | Some (J.List cols) when cols <> [] ->
       print_endline (String.concat "\t" (List.map render_cell cols))
     | _ -> ());
    List.iter
      (function
        | J.List cells ->
          print_endline (String.concat "\t" (List.map render_cell cells))
        | _ -> ())
      rows;
    let n =
      match J.member "row_count" j with
      | Some (J.Int n) -> n
      | _ -> List.length rows
    in
    let seconds =
      match J.member "seconds" j with
      | Some (J.Float s) -> s
      | Some (J.Int s) -> float_of_int s
      | _ -> 0.
    in
    let flag name =
      match J.member name j with
      | Some (J.Bool true) -> " (" ^ name ^ ")"
      | _ -> ""
    in
    Printf.printf "-- %d row(s) in %.4fs%s%s\n" n seconds (flag "cached")
      (flag "shared");
    timing_footer ();
    (match J.member "approx" j with
     | Some (J.Obj _ as a) ->
       let num name =
         match J.member name a with
         | Some (J.Float f) -> f
         | Some (J.Int i) -> float_of_int i
         | _ -> 0.
       in
       Printf.printf "-- approx: sampled %.1f%% of rows%s\n"
         (100. *. num "fraction")
         (match J.member "exact" a with
          | Some (J.Bool true) -> " (exact)"
          | _ -> "");
       (match J.member "aggs" a with
        | Some (J.List aggs) ->
          List.iter
            (fun agg ->
              match (J.member "name" agg, J.member "estimate" agg,
                     J.member "bound" agg) with
              | Some (J.Str name), Some est, Some bound ->
                Printf.printf "-- approx: %s = %s +- %s\n" name
                  (render_cell est) (render_cell bound)
              | _ -> ())
            aggs
        | _ -> ())
     | _ -> ())
  | _ -> print_endline (J.to_string j)

let client_main socket connect_timeout request_timeout retry do_ping do_stats
    do_metrics do_trace do_profile do_timing do_shutdown query =
  let module J = Raw_obs.Jsons in
  let one = function
    | Error (e : Server.Client.err) ->
      Format.eprintf "rawq client: %s@." (Server.Client.err_to_string e);
      (match e.Server.Client.kind with
       | Server.Client.Response_timeout -> 4
       | _ -> 3)
    | Ok j ->
      if match J.member "ok" j with Some (J.Bool true) -> true | _ -> false
      then begin
        print_response ~timing:do_timing j;
        0
      end
      else begin
        let code =
          match J.member "code" j with Some (J.Int c) -> c | _ -> 3
        in
        let msg =
          match J.member "error" j with
          | Some (J.Str m) -> m
          | _ -> "unknown error"
        in
        Format.eprintf "rawq client: %s@." msg;
        code
      end
  in
  let actions =
    (if do_ping then [ `Ping ] else [])
    @ (match query with Some q -> [ `Query q ] | None -> [])
    @ (if do_stats then [ `Stats ] else [])
    @ (if do_metrics then [ `Metrics ] else [])
    @ (if do_trace then [ `Trace ] else [])
    @ (if do_profile then [ `Profile ] else [])
    @ if do_shutdown then [ `Shutdown ] else []
  in
  if actions = [] then begin
    Format.eprintf
      "rawq client: nothing to do (pass SQL, --ping, --stats, --metrics, \
       --trace, --profile or --shutdown)@.";
    2
  end
  else begin
    let run_action action c =
      match action with
      | `Ping -> Server.Client.ping c
      | `Query sql -> Server.Client.query c sql
      | `Stats -> Server.Client.stats c
      | `Metrics -> Server.Client.metrics c
      | `Trace -> Server.Client.trace c
      | `Profile -> Server.Client.profile c
      | `Shutdown -> Server.Client.shutdown c
    in
    if retry > 0 then
      (* one connection per attempt: with_retry only replays failures the
         server provably never executed *)
      let policy =
        { Server.Client.default_retry with Server.Client.attempts = retry + 1 }
      in
      List.fold_left
        (fun rc action ->
          if rc <> 0 then rc
          else
            one
              (Server.Client.with_retry ~policy ?connect_timeout
                 ?request_timeout ~socket (run_action action)))
        0 actions
    else
      match Server.Client.connect ?connect_timeout ?request_timeout socket with
      | exception Unix.Unix_error (e, _, _) ->
        Format.eprintf "rawq client: cannot reach %s: %s@." socket
          (Unix.error_message e);
        3
      | c ->
        Fun.protect
          ~finally:(fun () -> Server.Client.close c)
          (fun () ->
            List.fold_left
              (fun rc action ->
                if rc <> 0 then rc else one (run_action action c))
              0 actions)
  end

let ping_arg =
  Arg.(value & flag
       & info [ "ping" ] ~doc:"Check that the server is answering.")

let client_stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print the server's server.*/cache.*/gov.* counters, \
                 latency percentiles and recent armor decisions.")

let client_metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Fetch the server's metrics as Prometheus text exposition \
                 and print them raw (the {\"op\":\"metrics\"} op).")

let client_trace_arg =
  Arg.(value & flag
       & info [ "trace" ]
           ~doc:"Fetch the server's retained slowest request traces \
                 (Chrome trace-event JSON; the {\"op\":\"trace\"} op).")

let client_profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Fetch the server's retained request traces as folded \
                 flamegraph stacks plus copy-site counters and print \
                 them raw (the {\"op\":\"profile\"} op) — pipe into \
                 flamegraph.pl or save for $(b,rawq profile).")

let client_timing_arg =
  Arg.(value & flag
       & info [ "timing" ]
           ~doc:"After each query, print the server's request-lifecycle \
                 breakdown (read/queue/execute/total) as a footer line.")

let shutdown_arg =
  Arg.(value & flag
       & info [ "shutdown" ]
           ~doc:"Ask the server to shut down (after the query, if one is \
                 given).")

let connect_timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "connect-timeout" ] ~docv:"SECONDS"
           ~doc:"Give up connecting after this long (default: wait \
                 indefinitely).")

let client_request_timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "request-timeout" ] ~docv:"SECONDS"
           ~doc:"Per round-trip budget: writing the request and waiting for \
                 its response line. A blown budget exits 4.")

let retry_arg =
  Arg.(value & opt int 0
       & info [ "retry" ] ~docv:"N"
           ~doc:"Retry up to N extra times with seeded exponential backoff \
                 — but only failures the server provably never executed: \
                 connection refused/absent, or a code-5 shed response \
                 carrying retry_after. Timeouts and mid-response drops are \
                 ambiguous and never retried.")

let client_cmd =
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send a query (and/or ping, stats, shutdown) to a running \
          $(b,rawq serve) over its Unix socket. Exit code mirrors the \
          server's error code: 0 ok, 1 parse/bind, 3 data/transport, 4 \
          deadline/timeout, 5 overloaded.")
    Term.(
      const client_main $ socket_arg $ connect_timeout_arg
      $ client_request_timeout_arg $ retry_arg $ ping_arg $ client_stats_arg
      $ client_metrics_arg $ client_trace_arg $ client_profile_arg
      $ client_timing_arg $ shutdown_arg $ query_arg)

(* ------------------------------------------------------------------ *)
(* top: a refreshing one-screen live view over the stats op (PR 9)     *)
(* ------------------------------------------------------------------ *)

let top_main socket interval iterations no_clear =
  let module J = Raw_obs.Jsons in
  let num j name =
    match J.member name j with
    | Some (J.Float f) -> f
    | Some (J.Int n) -> float_of_int n
    | _ -> 0.
  in
  let counters j = Option.value (J.member "counters" j) ~default:(J.Obj []) in
  let pct_line j =
    (* "p50/p95/p99 ms" from a latency sub-object; "-" where empty *)
    let p name =
      match J.member name j with
      | Some (J.Float f) -> Printf.sprintf "%.2f" (1000. *. f)
      | Some (J.Int n) -> Printf.sprintf "%.2f" (1000. *. float_of_int n)
      | _ -> "-"
    in
    Printf.sprintf "%s/%s/%s" (p "p50") (p "p95") (p "p99")
  in
  let ratio hits misses =
    let total = hits +. misses in
    if total <= 0. then "-"
    else Printf.sprintf "%.1f%% (%.0f/%.0f)" (100. *. hits /. total) hits total
  in
  let render j ~poll_qps =
    let c = counters j in
    let n k = num c k in
    if not no_clear then print_string "\027[H\027[2J";
    Printf.printf "rawq top — %s   uptime %.0fs   sessions %.0f   refresh %gs\n"
      socket (num j "uptime_s")
      (num j "sessions_active")
      interval;
    Printf.printf "requests  %.0f total   %.0f errors   q/s since poll: %s\n"
      (n "server.requests") (n "server.errors")
      (match poll_qps with
       | Some q -> Printf.sprintf "%.1f" q
       | None -> "-");
    let latency =
      Option.value (J.member "latency" j) ~default:(J.Obj [])
    in
    let windows =
      Option.value (J.member "windows" latency) ~default:(J.Obj [])
    in
    let window_field name f =
      match J.member name windows with Some w -> f w | None -> "-"
    in
    Printf.printf "q/s       10s %s   60s %s   5m %s\n"
      (window_field "10s" (fun w -> Printf.sprintf "%.1f" (num w "qps")))
      (window_field "60s" (fun w -> Printf.sprintf "%.1f" (num w "qps")))
      (window_field "300s" (fun w -> Printf.sprintf "%.1f" (num w "qps")));
    let cum = Option.value (J.member "cumulative" latency) ~default:(J.Obj []) in
    Printf.printf
      "latency   ms p50/p95/p99   cum %s   10s %s   60s %s   5m %s\n"
      (pct_line cum)
      (window_field "10s" pct_line)
      (window_field "60s" pct_line)
      (window_field "300s" pct_line);
    Printf.printf "cache     stmt %s   result %s   invalidations %.0f\n"
      (ratio (n "cache.stmt.hits") (n "cache.stmt.misses"))
      (ratio (n "cache.result.hits") (n "cache.result.misses"))
      (n "cache.invalidations");
    Printf.printf "shared    batches %.0f   folded queries %.0f   fallbacks %.0f\n"
      (n "server.batches")
      (n "server.batched_queries")
      (n "server.shared_fallbacks");
    Printf.printf
      "shed      sessions %.0f   requests %.0f   reaped idle %.0f / slow %.0f   too_large %.0f\n"
      (n "server.shed_sessions")
      (n "server.shed_requests")
      (n "server.session_end.timeout_idle")
      (n "server.session_end.timeout_request")
      (n "server.too_large");
    (match J.member "armor" j with
     | Some (J.List records) when records <> [] ->
       let last3 =
         let len = List.length records in
         List.filteri (fun i _ -> i >= len - 3) records
       in
       print_string "armor     ";
       print_endline
         (String.concat "   "
            (List.map
               (fun r ->
                 let s name =
                   match J.member name r with Some (J.Str s) -> s | _ -> "?"
                 in
                 s "site" ^ "/" ^ s "choice")
               last3))
     | _ -> print_endline "armor     (no recent decisions)");
    flush stdout
  in
  (* Reconnect-per-failure polling: a server restart or disappearance
     mid-poll must never surface as an uncaught exception — each failed
     tick prints one clean line, drops the connection, and the next tick
     dials a fresh one. With --iterations the loop still stops on
     schedule (exit 3 if the final tick failed); without it, top keeps
     watching for the server to come back until interrupted. *)
  let connect () =
    match
      Server.Client.connect ~connect_timeout:5. ~request_timeout:10. socket
    with
    | c -> Some c
    | exception Unix.Unix_error (e, _, _) ->
      Format.eprintf "rawq top: cannot reach %s: %s (retrying in %gs)@."
        socket (Unix.error_message e) interval;
      None
  in
  let drop c = try Server.Client.close c with _ -> () in
  let rec poll i conn prev =
    let conn = match conn with Some _ -> conn | None -> connect () in
    let conn, prev, rc =
      match conn with
      | None -> (None, None, 3)
      | Some c -> (
        match Server.Client.stats c with
        | Error e ->
          Format.eprintf "rawq top: lost %s: %s (retrying in %gs)@." socket
            (Server.Client.err_to_string e) interval;
          drop c;
          (None, None, 3)
        | exception Unix.Unix_error (e, _, _) ->
          Format.eprintf "rawq top: lost %s: %s (retrying in %gs)@." socket
            (Unix.error_message e) interval;
          drop c;
          (None, None, 3)
        | Ok j ->
          let now = Unix.gettimeofday () in
          let requests = num (counters j) "server.requests" in
          let poll_qps =
            match prev with
            | Some (t0, r0) when now > t0 ->
              (* single-snapshot stats makes this delta non-negative *)
              Some ((requests -. r0) /. (now -. t0))
            | _ -> None
          in
          render j ~poll_qps;
          (Some c, Some (now, requests), 0))
    in
    if iterations > 0 && i + 1 >= iterations then begin
      Option.iter drop conn;
      rc
    end
    else begin
      Unix.sleepf interval;
      poll (i + 1) conn prev
    end
  in
  poll 0 None None

let top_interval_arg =
  Arg.(value & opt float 2.0
       & info [ "interval" ] ~docv:"SECONDS"
           ~doc:"Seconds between refreshes (default 2).")

let top_iterations_arg =
  Arg.(value & opt int 0
       & info [ "iterations" ] ~docv:"N"
           ~doc:"Stop after N refreshes (default 0 = run until \
                 interrupted). Useful with --no-clear for scripts.")

let top_no_clear_arg =
  Arg.(value & flag
       & info [ "no-clear" ]
           ~doc:"Append frames instead of clearing the screen between \
                 refreshes (for logs and scripts).")

let top_cmd =
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live one-screen view of a running $(b,rawq serve): q/s and \
          latency percentiles over 10s/60s/5m sliding windows, in-flight \
          sessions, cache hit rates, shared-scan and shed/reap counters, \
          and the latest armor decisions — polled from the stats op.")
    Term.(
      const top_main $ socket_arg $ top_interval_arg $ top_iterations_arg
      $ top_no_clear_arg)

let cmd =
  let doc = "query raw CSV / binary / HEP files in place, adaptively" in
  let info =
    Cmd.info "rawq" ~doc
      ~man:
        [
          `S Manpage.s_description;
          `P "An implementation of RAW (Karpathiotakis et al., VLDB 2014): \
              queries run directly over raw files through JIT access paths \
              and column shreds, with positional maps and result caches \
              built adaptively as a side effect of the queries themselves.";
          `P "The $(b,report) subcommand summarizes a workload-history file \
              recorded with $(b,--history); any other invocation runs a \
              query (or the REPL).";
        ]
  in
  let default =
    Term.(
      const main $ engine_term $ repl_arg $ stats_arg $ metrics_arg
      $ analyze_arg $ trace_out_arg $ profile_arg $ profile_out_arg
      $ query_arg)
  in
  Cmd.group ~default info
    [ report_cmd; profile_cmd; serve_cmd; client_cmd; top_cmd ]

let () = exit (Cmd.eval' cmd)
