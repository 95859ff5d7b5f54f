(* Observability subsystem: metrics registry, span tracing with decision
   events, and the exporters (Chrome trace JSON, Prometheus exposition). *)

open Raw_core
open Test_util
module Metrics = Raw_obs.Metrics
module Trace = Raw_obs.Trace
module Jsons = Raw_obs.Jsons
module Export = Raw_obs.Export
module Io_stats = Raw_storage.Io_stats

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Io_stats shards are domain-local; run counter-sensitive checks in a
   fresh domain so they see an empty table. *)
let in_fresh_domain f = Domain.join (Domain.spawn f)

let observed_config ?(parallelism = 1) () =
  { Config.default with observe = true; parallelism }

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let registry_suite =
  [
    Alcotest.test_case "declaration is idempotent by id" `Quick (fun () ->
        let again =
          Metrics.counter ~help:"different help" "scan.rows_scanned"
        in
        Alcotest.(check bool)
          "same handle" true
          (again == Metrics.scan_rows_scanned);
        Alcotest.check_raises "kind change rejected"
          (Invalid_argument
             "Metrics: scan.rows_scanned re-declared with a different kind")
          (fun () -> ignore (Metrics.gauge ~help:"" "scan.rows_scanned")));
    Alcotest.test_case "owner resolves exact, family and derived keys" `Quick
      (fun () ->
        let owner_id k = Option.map Metrics.id (Metrics.owner k) in
        Alcotest.(check (option string))
          "exact" (Some "scan.rows_scanned")
          (owner_id "scan.rows_scanned");
        Alcotest.(check (option string))
          "family" (Some "par.domain")
          (owner_id "par.domain3.seconds");
        Alcotest.(check (option string))
          "bucket" (Some "query.seconds")
          (owner_id (Metrics.bucket_key Metrics.query_seconds 0.5));
        Alcotest.(check (option string))
          "inf bucket" (Some "query.seconds")
          (owner_id (Metrics.inf_bucket_key Metrics.query_seconds));
        Alcotest.(check (option string))
          "sum" (Some "query.seconds")
          (owner_id (Metrics.sum_key Metrics.query_seconds));
        Alcotest.(check (option string))
          "count" (Some "query.seconds")
          (owner_id (Metrics.count_key Metrics.query_seconds));
        Alcotest.(check (option string)) "undeclared" None (owner_id "no.such"));
    Alcotest.test_case "histogram observe fills bucket, sum and count" `Quick
      (fun () ->
        let in_range, over, sum, count =
          in_fresh_domain (fun () ->
              let m = Metrics.query_seconds in
              Metrics.observe m 0.003;
              (* first bucket >= 0.003 is 0.005 *)
              Metrics.observe m 100.0;
              (* beyond the last bound -> +Inf *)
              ( Io_stats.get_float (Metrics.bucket_key m 0.005),
                Io_stats.get_float (Metrics.inf_bucket_key m),
                Io_stats.get_float (Metrics.sum_key m),
                Io_stats.get_float (Metrics.count_key m) ))
        in
        Alcotest.(check (float 0.)) "bucket 0.005" 1.0 in_range;
        Alcotest.(check (float 0.)) "+Inf bucket" 1.0 over;
        Alcotest.(check (float 1e-9)) "sum" 100.003 sum;
        Alcotest.(check (float 0.)) "count" 2.0 count);
    Alcotest.test_case "every key a query bumps is declared" `Quick (fun () ->
        let db = grid_csv_db ~n:60 ~m:4 () in
        let before = Io_stats.snapshot () in
        ignore (Raw_db.query db "SELECT MAX(col1) FROM t WHERE col0 < 3000");
        let undeclared =
          List.filter_map
            (fun (k, v) ->
              let v0 =
                match List.assoc_opt k before with Some x -> x | None -> 0.
              in
              if v -. v0 <> 0. && Metrics.owner k = None then Some k else None)
            (Io_stats.snapshot ())
        in
        Alcotest.(check (list string)) "no undeclared keys" [] undeclared);
  ]

(* ------------------------------------------------------------------ *)
(* Io_stats semantics (PR documents rounding-at-get)                   *)
(* ------------------------------------------------------------------ *)

let io_stats_suite =
  [
    Alcotest.test_case "get rounds to nearest only at read time" `Quick
      (fun () ->
        let g1, f1, g2 =
          in_fresh_domain (fun () ->
              Io_stats.add_float "round.a" 0.3;
              Io_stats.add_float "round.a" 0.4;
              Io_stats.add_float "round.b" 0.4;
              ( Io_stats.get "round.a",
                Io_stats.get_float "round.a",
                Io_stats.get "round.b" ))
        in
        (* 0.7 rounds up; the stored float stays exact *)
        Alcotest.(check int) "0.7 -> 1" 1 g1;
        Alcotest.(check (float 1e-9)) "stored exactly" 0.7 f1;
        Alcotest.(check int) "0.4 -> 0" 0 g2);
  ]

(* ------------------------------------------------------------------ *)
(* Tracing                                                             *)
(* ------------------------------------------------------------------ *)

let trace_suite =
  [
    Alcotest.test_case "spans nest with exact parent links" `Quick (fun () ->
        let h = Trace.create () in
        Trace.with_handle h (fun () ->
            Trace.with_span "a" (fun () ->
                Trace.with_span "b" (fun () -> ());
                Trace.with_span "b" (fun () -> ());
                Trace.with_span ~args:[ ("k", "v") ] "c" (fun () -> ())));
        let spans = Trace.spans h in
        Alcotest.(check int) "span count" 4 (List.length spans);
        let a = List.find (fun s -> s.Trace.name = "a") spans in
        Alcotest.(check (option int)) "a is a root" None a.Trace.parent;
        List.iter
          (fun (s : Trace.span) ->
            if s.name <> "a" then
              Alcotest.(check (option int))
                (s.name ^ " under a") (Some a.Trace.id) s.parent)
          spans;
        Alcotest.(check (list (pair (option string) string)))
          "edge set deduplicates"
          [ (None, "a"); (Some "a", "b"); (Some "a", "c") ]
          (Trace.edge_set spans));
    Alcotest.test_case "with_span without a handle is transparent" `Quick
      (fun () ->
        Alcotest.(check bool) "disabled" false (Trace.enabled ());
        Trace.add_arg "ignored" "x";
        Alcotest.(check int) "value through" 41 (Trace.with_span "n" (fun () -> 41)));
    Alcotest.test_case "forked worker spans parent under coordinator" `Quick
      (fun () ->
        let h = Trace.create () in
        Trace.with_handle h (fun () ->
            Trace.with_span "scan" (fun () ->
                let fp = Option.get (Trace.fork ()) in
                Domain.join
                  (Domain.spawn (fun () ->
                       Trace.with_fork fp ~tid:3 (fun () ->
                           Trace.with_span "morsel" (fun () -> ()))))));
        let spans = Trace.spans h in
        let scan = List.find (fun s -> s.Trace.name = "scan") spans in
        let morsel = List.find (fun s -> s.Trace.name = "morsel") spans in
        Alcotest.(check int) "worker tid" 3 morsel.Trace.tid;
        Alcotest.(check (option int))
          "parent link crosses domains" (Some scan.Trace.id)
          morsel.Trace.parent);
    Alcotest.test_case "parallel and sequential queries: same tree shape"
      `Quick (fun () ->
        let report p =
          let db = grid_csv_db ~config:(observed_config ~parallelism:p ()) ~n:400 ~m:4 () in
          Raw_db.query db "SELECT MAX(col1) FROM t WHERE col0 < 20000"
        in
        let r2 = report 2 and r4 = report 4 in
        Alcotest.(check bool) "has spans" true (r2.Executor.spans <> []);
        Alcotest.(check (list (pair (option string) string)))
          "edge sets equal"
          (Trace.edge_set r2.Executor.spans)
          (Trace.edge_set r4.Executor.spans);
        (* merged work metrics are exactly equal too: drop the wall-clock
           entries (per-domain seconds, latency histograms, one-per-morsel
           stitch counts), keep the work counters *)
        let work (r : Executor.report) =
          List.filter
            (fun (k, _) ->
              k <> "posmap.segments_merged"
              (* morsel-boundary pages are charged once per touching
                 worker, so the simulated-I/O bill varies with fan-out *)
              && k <> "io.simulated_seconds"
              &&
              match Metrics.owner k with
              | Some m -> Metrics.kind m <> Metrics.Histogram
              | None -> true)
            r.Executor.counters
        in
        (* integer-valued counters exactly; float-valued ones (simulated
           compile seconds) are deltas of a running total, so the same
           charge can differ in the last bits *)
        let counter =
          Alcotest.testable
            (fun ppf (k, v) -> Format.fprintf ppf "%s=%.17g" k v)
            (fun (k1, v1) (k2, v2) ->
              k1 = k2
              &&
              if Float.is_integer v1 && Float.is_integer v2 then v1 = v2
              else Float.abs (v1 -. v2) <= 1e-9)
        in
        Alcotest.(check (list counter))
          "work counters equal" (work r2) (work r4));
  ]

(* ------------------------------------------------------------------ *)
(* Decision events                                                     *)
(* ------------------------------------------------------------------ *)

(* The span named [name] that [s] sits under, if any. *)
let rec ancestor spans name (s : Trace.span) =
  match s.parent with
  | None -> None
  | Some p -> (
    match List.find_opt (fun (x : Trace.span) -> x.id = p) spans with
    | Some x when x.name = name -> Some x
    | Some x -> ancestor spans name x
    | None -> None)

let decision_spans spans site =
  List.filter (fun (s : Trace.span) -> Trace.is_decision s && s.name = site) spans

let decisions_suite =
  [
    Alcotest.test_case "record without a handle is a no-op" `Quick (fun () ->
        Alcotest.(check bool) "disabled" false (Trace.enabled ());
        Trace.decision ~site:"nowhere" ~choice:"x" []);
    Alcotest.test_case "default 4096 cap: oldest retained, drops exported"
      `Quick (fun () ->
        let first, last, kept, dropped, text =
          in_fresh_domain (fun () ->
              let h = Trace.create () in
              Trace.with_handle h (fun () ->
                  for i = 1 to 5_000 do
                    Trace.decision ~site:"s" ~choice:(string_of_int i) []
                  done);
              let recs = Trace.decisions (Trace.spans h) in
              ( (List.hd recs).Trace.choice,
                (List.nth recs (List.length recs - 1)).Trace.choice,
                List.length recs,
                Io_stats.get "obs.decisions_dropped",
                Export.prometheus () ))
        in
        Alcotest.(check int) "kept the cap" 4096 kept;
        Alcotest.(check int) "dropped the overflow" 904 dropped;
        (* retention policy: the FIRST records survive — the planner's
           decisions land early and must not be evicted by a chatty tail *)
        Alcotest.(check string) "oldest retained" "1" first;
        Alcotest.(check string) "newest kept is the 4096th" "4096" last;
        Alcotest.(check bool) "drop counter exported" true
          (contains text "raw_obs_decisions_dropped_total 904"));
    Alcotest.test_case "template cache: compile then hit" `Quick (fun () ->
        let t = Template_cache.create ~compile_seconds:0.01 in
        let h = Trace.create () in
        Trace.with_handle h (fun () ->
            ignore (Template_cache.get t ~kind:"k" ~key:"a" (fun () -> ()));
            ignore (Template_cache.get t ~kind:"k" ~key:"a" (fun () -> ())));
        match decisions_at "template_cache" (Trace.spans h) with
        | [ first; second ] ->
          Alcotest.(check string) "first compiles" "compile" first.Trace.choice;
          Alcotest.(check string) "second hits" "hit" second.Trace.choice;
          Alcotest.(check bool)
            "key recorded" true
            (List.assoc_opt "key" first.Trace.inputs = Some "a")
        | l -> Alcotest.failf "expected 2 decisions, got %d" (List.length l));
    Alcotest.test_case "repeat query reuses: no recompile, pool reuse logged"
      `Quick (fun () ->
        let db = grid_csv_db ~config:(observed_config ()) () in
        let q = "SELECT MAX(col1) FROM t WHERE col0 < 2000" in
        let first = Raw_db.query db q in
        let second = Raw_db.query db q in
        let choices (r : Executor.report) site =
          List.map
            (fun (d : Trace.decision) -> d.choice)
            (decisions_at site r.Executor.spans)
        in
        Alcotest.(check bool)
          "first compiles" true
          (List.mem "compile" (choices first "template_cache"));
        Alcotest.(check bool)
          "second does not recompile" false
          (List.mem "compile" (choices second "template_cache"));
        Alcotest.(check bool)
          "second reuses pooled shreds" true
          (List.mem "reuse" (choices second "shred_pool")));
    Alcotest.test_case "adaptive planner decision carries cost inputs" `Quick
      (fun () ->
        let db = grid_csv_db ~config:(observed_config ()) ~n:100 ~m:6 () in
        let options = { Planner.default with shreds = Planner.Adaptive } in
        let r =
          Raw_db.query ~options db "SELECT MAX(col1) FROM t WHERE col0 < 5000"
        in
        let spans = r.Executor.spans in
        match decisions_at "planner.adaptive" spans with
        | [] -> Alcotest.fail "no planner.adaptive decision recorded"
        | d :: _ ->
          Alcotest.(check bool)
            "resolved to a concrete strategy" true
            (List.mem d.Trace.choice [ "full"; "shreds"; "multishreds" ]);
          List.iter
            (fun key ->
              Alcotest.(check bool)
                (key ^ " input present") true
                (List.mem_assoc key d.Trace.inputs))
            [ "table"; "selectivity"; "cost_full"; "cost_shreds";
              "cost_multishreds" ];
          (* written after the run, under the query span, and last *)
          let query = List.find (fun (s : Trace.span) -> s.name = "query") spans in
          Alcotest.(check (list (option int)))
            "parent is query" [ Some query.id ]
            (List.map
               (fun (s : Trace.span) -> s.parent)
               (decision_spans spans "planner.adaptive"));
          Alcotest.(check string) "last decision" "planner.adaptive"
            (List.hd (List.rev (Trace.decisions spans))).Trace.site);
    Alcotest.test_case "first-touch CSV decisions sit under execute" `Quick
      (fun () ->
        let db = grid_csv_db ~config:(observed_config ()) () in
        let r = Raw_db.query db "SELECT MAX(col1) FROM t WHERE col0 < 2000" in
        let spans = r.Executor.spans in
        List.iter
          (fun (site, choice) ->
            match
              List.filter
                (fun (s : Trace.span) ->
                  List.assoc_opt "choice" s.args = Some choice)
                (decision_spans spans site)
            with
            | [] -> Alcotest.failf "no %s/%s decision" site choice
            | ds ->
              List.iter
                (fun (d : Trace.span) ->
                  Alcotest.(check bool)
                    (site ^ " inside execute") true
                    (ancestor spans "execute" d <> None);
                  (* inside the scan that does the work, not the phase *)
                  Alcotest.(check (option string))
                    (site ^ " parent") (Some "scan.full")
                    (Option.map
                       (fun id -> (List.find (fun (s : Trace.span) -> s.id = id) spans).name)
                       d.parent);
                  Alcotest.(check int) (site ^ " on the coordinator") 0 d.tid;
                  Alcotest.(check (float 0.)) (site ^ " zero length") 0. d.dur_s)
                ds)
          [ ("access.path", "one_pass"); ("posmap", "build") ]);
    Alcotest.test_case "worker decisions carry their tid and parent" `Quick
      (fun () ->
        (* the per-morsel scan kernels record no decision today, so drive
           Morsel's fork directly: 4 items, 4 worker domains *)
        let h = Trace.create () in
        Trace.with_handle h (fun () ->
            Trace.with_span "execute" (fun () ->
                ignore
                  (Morsel.map_domains
                     (fun i ->
                       Trace.decision ~site:"worker" ~choice:(string_of_int i) [])
                     [ 1; 2; 3; 4 ])));
        let spans = Trace.spans h in
        let ds = decision_spans spans "worker" in
        Alcotest.(check int) "one per morsel" 4 (List.length ds);
        List.iter
          (fun (d : Trace.span) ->
            Alcotest.(check bool) "worker tid" true (d.tid >= 1);
            match ancestor spans "morsel" d, ancestor spans "execute" d with
            | Some m, Some _ ->
              Alcotest.(check int) "same tid as its morsel" m.tid d.tid
            | _ -> Alcotest.fail "worker decision outside the coordinator's tree")
          ds;
        Alcotest.(check (list int)) "distinct workers" [ 1; 2; 3; 4 ]
          (List.sort_uniq compare (List.map (fun (d : Trace.span) -> d.tid) ds)));
    Alcotest.test_case "profile alone records decisions too" `Quick (fun () ->
        let config = { Config.default with profile = true } in
        let db = grid_csv_db ~config () in
        let r = Raw_db.query db "SELECT MAX(col1) FROM t WHERE col0 < 2000" in
        Alcotest.(check bool) "template compile recorded" true
          (List.exists
             (fun (d : Trace.decision) -> d.choice = "compile")
             (decisions_at "template_cache" r.Executor.spans)));
  ]

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

(* The repo already carries a reference JSON parser (Jsonl); use it to
   validate the hand-rolled writer end-to-end. *)
let parse_json = Raw_formats.Jsonl.parse

let export_suite =
  [
    Alcotest.test_case "chrome trace JSON parses and mirrors the spans" `Quick
      (fun () ->
        let db = grid_csv_db ~config:(observed_config ()) () in
        let r = Raw_db.query db "SELECT MAX(col1) FROM t WHERE col0 < 2000" in
        let spans = r.Executor.spans in
        Alcotest.(check bool) "spans recorded" true (spans <> []);
        match parse_json (Export.chrome_trace spans) with
        | Raw_formats.Jsonl.Object top ->
          (match List.assoc "traceEvents" top with
           | Raw_formats.Jsonl.Array events ->
             Alcotest.(check int)
               "one event per span" (List.length spans) (List.length events);
             List.iter
               (fun ev ->
                 match ev with
                 | Raw_formats.Jsonl.Object fields ->
                   List.iter
                     (fun k ->
                       Alcotest.(check bool)
                         ("event has " ^ k) true (List.mem_assoc k fields))
                     [ "name"; "cat"; "ph"; "ts"; "dur"; "pid"; "tid"; "args" ];
                   Alcotest.(check bool)
                     "complete event" true
                     (List.assoc "ph" fields = Raw_formats.Jsonl.String "X")
                 | _ -> Alcotest.fail "event is not an object")
               events
           | _ -> Alcotest.fail "traceEvents is not an array")
        | _ -> Alcotest.fail "trace is not a JSON object");
    Alcotest.test_case "json escaping roundtrips through the parser" `Quick
      (fun () ->
        let s = "quote\" slash\\ nl\n tab\t ctrl\x01 done" in
        match parse_json (Jsons.to_string (Jsons.Obj [ ("k", Jsons.Str s) ])) with
        | Raw_formats.Jsonl.Object [ ("k", Raw_formats.Jsonl.String got) ] ->
          Alcotest.(check string) "string survives" s got
        | _ -> Alcotest.fail "bad shape");
    Alcotest.test_case "prometheus exposition: types, histograms, untyped"
      `Quick (fun () ->
        let text =
          in_fresh_domain (fun () ->
              Metrics.add Metrics.scan_rows_scanned 5;
              Metrics.set Metrics.gov_budget_capacity_bytes 1024.;
              Metrics.observe Metrics.query_seconds 0.003;
              Io_stats.incr "custom.key";
              Export.prometheus ())
        in
        List.iter
          (fun needle ->
            Alcotest.(check bool) ("contains " ^ needle) true
              (contains text needle))
          [
            (* counters carry the conventional _total suffix *)
            "# TYPE raw_scan_rows_scanned_total counter";
            "raw_scan_rows_scanned_total 5";
            "# TYPE raw_gov_budget_capacity_bytes gauge";
            "raw_gov_budget_capacity_bytes 1024";
            "# TYPE raw_query_seconds histogram";
            "raw_query_seconds_bucket{le=\"0.005\"} 1";
            (* cumulative: later buckets include the 0.005 observation *)
            "raw_query_seconds_bucket{le=\"10\"} 1";
            "raw_query_seconds_bucket{le=\"+Inf\"} 1";
            "raw_query_seconds_sum 0.003";
            "raw_query_seconds_count 1";
            "# TYPE raw_custom_key untyped";
            "raw_custom_key 1";
          ]);
    Alcotest.test_case "build info gauge leads every exposition" `Quick
      (fun () ->
        let text = Export.prometheus () in
        let lead = "# HELP rawq_build_info" in
        Alcotest.(check string)
          "exposition starts with the build info family" lead
          (String.sub text 0 (String.length lead));
        List.iter
          (fun needle ->
            Alcotest.(check bool) ("contains " ^ needle) true
              (contains text needle))
          [
            "# TYPE rawq_build_info gauge";
            Printf.sprintf "rawq_build_info{version=\"%s\",ocaml=\"%s\"} 1"
              Export.build_version Sys.ocaml_version;
          ];
        (* the server's snapshot-based exposition carries it too *)
        Alcotest.(check bool) "snapshot exposition carries it" true
          (contains
             (Export.prometheus_of_snapshot [ ("custom.key", 1.) ])
             "rawq_build_info{"));
    Alcotest.test_case "prometheus escapes hostile help and label text"
      `Quick (fun () ->
        let text =
          in_fresh_domain (fun () ->
              let m =
                Metrics.counter "test.hostile"
                  ~help:"line1\nline2 back\\slash \"quoted\""
              in
              Metrics.incr m;
              Export.prometheus ())
        in
        (* the newline and backslash must be escaped so HELP stays one
           line; quotes are legal in help text and pass through *)
        Alcotest.(check bool) "single escaped HELP line" true
          (List.exists
             (fun l -> contains l "line1\\nline2 back\\\\slash \"quoted\"")
             (String.split_on_char '\n' text));
        Alcotest.(check string) "label value escaping"
          "a\\\"b\\\\c\\nd"
          (Export.escape_label_value "a\"b\\c\nd"));
    Alcotest.test_case "histogram quantiles: empty, single-bucket, \
                        overflow-only" `Quick (fun () ->
        in_fresh_domain (fun () ->
            let h =
              Metrics.histogram "test.quant" ~buckets:[ 0.1; 1.0 ]
                ~help:"quantile edge cases"
            in
            let q v = Metrics.quantile h ~q:v in
            (* empty: no observations -> None, never NaN *)
            Alcotest.(check (option (float 1e-9))) "empty" None (q 0.5);
            (* out-of-range q -> None *)
            Metrics.observe h 0.05;
            Alcotest.(check (option (float 1e-9))) "q > 1" None (q 1.5);
            Alcotest.(check (option (float 1e-9))) "q NaN" None (q Float.nan);
            (* single populated bucket: interpolated within its bounds *)
            (match q 0.5 with
            | Some v ->
              Alcotest.(check bool) "inside first bucket" true
                (v > 0. && v <= 0.1)
            | None -> Alcotest.fail "expected an estimate");
            (* overflow-only: all mass beyond the last finite bound
               clamps to that bound rather than inventing +Inf *)
            let h2 =
              Metrics.histogram "test.quant2" ~buckets:[ 0.1; 1.0 ]
                ~help:"overflow only"
            in
            Metrics.observe h2 50.;
            Alcotest.(check (option (float 1e-9)))
              "overflow clamps to largest finite bound" (Some 1.0)
              (Metrics.quantile h2 ~q:0.99)));
    Alcotest.test_case "pp_span_tree prints an indented tree" `Quick (fun () ->
        let h = Trace.create () in
        Trace.with_handle h (fun () ->
            Trace.with_span "query" (fun () ->
                Trace.with_span "plan" (fun () -> ())));
        let text = Format.asprintf "%a" Export.pp_span_tree (Trace.spans h) in
        Alcotest.(check bool) "root first" true
          (String.length text > 5 && String.sub text 0 5 = "query");
        Alcotest.(check bool) "child indented" true (contains text "\n  plan"));
    Alcotest.test_case "json \\u escapes decode to UTF-8" `Quick (fun () ->
        List.iter
          (fun (body, want) ->
            match Jsons.parse ("\"" ^ body ^ "\"") with
            | Ok (Jsons.Str got) -> Alcotest.(check string) body want got
            | _ -> Alcotest.failf "%s: not a string" body)
          [
            ({|\u00e9|}, "\xc3\xa9");
            (* a surrogate pair is one 4-byte sequence, not two 3-byte ones *)
            ({|\ud83d\ude00|}, "\xf0\x9f\x98\x80");
            ({|a\uD83D\uDE00b|}, "a\xf0\x9f\x98\x80b");
            (* lone surrogates decode to U+FFFD *)
            ({|\ud83d|}, "\xef\xbf\xbd");
            ({|\ud83d\u0041|}, "\xef\xbf\xbdA");
            ({|\ude00|}, "\xef\xbf\xbd");
          ];
        (* exactly four hex digits: int_of_string would take the '_' *)
        List.iter
          (fun body ->
            Alcotest.(check bool) ("reject " ^ body) true
              (Result.is_error (Jsons.parse ("\"" ^ body ^ "\""))))
          [ {|\u1_23|}; {|\u+123|}; {|\u12g4|}; {|\ud83d\u1_23|} ]);
  ]

(* ------------------------------------------------------------------ *)
(* Windowed metrics (PR 9)                                             *)
(* ------------------------------------------------------------------ *)

module Window = Raw_obs.Window

(* A snapshot delta is itself a histogram snapshot; build deltas by hand
   to pin quantile_of_snapshot's documented edge cases on them. *)
let delta_quantile_suite =
  let h =
    Metrics.histogram "test.window.delta" ~buckets:[ 0.1; 1.0 ]
      ~help:"delta-snapshot quantile edge cases"
  in
  [
    Alcotest.test_case "empty delta (B = A) yields None" `Quick (fun () ->
        let d =
          [
            (Metrics.bucket_key h 0.1, 0.);
            (Metrics.bucket_key h 1.0, 0.);
            (Metrics.inf_bucket_key h, 0.);
            (Metrics.sum_key h, 0.);
            (Metrics.count_key h, 0.);
          ]
        in
        Alcotest.(check (option (float 1e-9)))
          "no observations in the window" None
          (Metrics.quantile_of_snapshot d h ~q:0.99);
        Alcotest.(check (option (float 1e-9)))
          "missing keys read as 0" None
          (Metrics.quantile_of_snapshot [] h ~q:0.5));
    Alcotest.test_case "single-bucket delta interpolates inside the bucket"
      `Quick (fun () ->
        let d =
          [
            (Metrics.bucket_key h 0.1, 4.);
            (Metrics.sum_key h, 0.2);
            (Metrics.count_key h, 4.);
          ]
        in
        match Metrics.quantile_of_snapshot d h ~q:0.5 with
        | Some v ->
          Alcotest.(check bool) "inside (0, 0.1]" true (v > 0. && v <= 0.1)
        | None -> Alcotest.fail "expected an estimate");
    Alcotest.test_case "overflow-only delta clamps to largest finite bound"
      `Quick (fun () ->
        let d =
          [ (Metrics.inf_bucket_key h, 3.); (Metrics.count_key h, 3.) ]
        in
        Alcotest.(check (option (float 1e-9)))
          "clamped" (Some 1.0)
          (Metrics.quantile_of_snapshot d h ~q:0.99));
  ]

let window_suite =
  (* snapshots are plain assoc lists; stamp them explicitly so the tests
     are deterministic *)
  let snap v = [ ("k", v) ] in
  [
    Alcotest.test_case "delta needs two retained snapshots" `Quick (fun () ->
        let w = Window.create ~interval:1.0 () in
        Alcotest.(check (option (pair (float 0.) (list (pair string (float 0.))))))
          "empty" None
          (Window.delta w ~window:10.);
        Alcotest.(check bool) "first retained" true
          (Window.observe w ~now:100. (snap 1.));
        Alcotest.(check int) "size 1" 1 (Window.size w);
        Alcotest.(check (option (pair (float 0.) (list (pair string (float 0.))))))
          "one is not enough" None
          (Window.delta w ~window:10.));
    Alcotest.test_case "observe dedups under the tick interval" `Quick
      (fun () ->
        let w = Window.create ~interval:1.0 () in
        Alcotest.(check bool) "t=100 kept" true
          (Window.observe w ~now:100. (snap 0.));
        Alcotest.(check bool) "t=100.5 dropped" false
          (Window.observe w ~now:100.5 (snap 1.));
        Alcotest.(check bool) "t=101.2 kept" true
          (Window.observe w ~now:101.2 (snap 2.));
        Alcotest.(check int) "two retained" 2 (Window.size w);
        Alcotest.(check (float 1e-9)) "coverage" 1.2 (Window.coverage w));
    Alcotest.test_case "baseline is the smallest fully-covering span" `Quick
      (fun () ->
        let w = Window.create ~interval:1.0 ~capacity:8 () in
        List.iter
          (fun (t, v) -> ignore (Window.observe w ~now:t (snap v)))
          [ (0., 0.); (10., 1.); (20., 2.); (30., 3.) ];
        (* window 15 anchored at t=30 wants a baseline at ts <= 15: t=10 *)
        (match Window.delta w ~window:15. with
        | Some (elapsed, d) ->
          Alcotest.(check (float 1e-9)) "spans 20 s" 20. elapsed;
          Alcotest.(check (float 1e-9)) "delta 2" 2. (List.assoc "k" d)
        | None -> Alcotest.fail "expected a delta");
        (* a window longer than history falls back to the oldest entry *)
        (match Window.delta w ~window:1000. with
        | Some (elapsed, d) ->
          Alcotest.(check (float 1e-9)) "whole history" 30. elapsed;
          Alcotest.(check (float 1e-9)) "delta 3" 3. (List.assoc "k" d)
        | None -> Alcotest.fail "expected a delta");
        Alcotest.(check (option (float 1e-9)))
          "rate = delta / elapsed" (Some 0.1)
          (Window.rate w ~window:15. "k");
        Alcotest.(check (option (float 1e-9)))
          "absent key rates as 0" (Some 0.)
          (Window.rate w ~window:15. "no.such"));
    Alcotest.test_case "negative deltas clamp to zero" `Quick (fun () ->
        let w = Window.create ~interval:1.0 () in
        ignore (Window.observe w ~now:0. (snap 5.));
        ignore (Window.observe w ~now:10. (snap 3.));
        match Window.delta w ~window:10. with
        | Some (_, d) ->
          Alcotest.(check (float 0.)) "clamped" 0. (List.assoc "k" d)
        | None -> Alcotest.fail "expected a delta");
    Alcotest.test_case "capacity bounds the ring, evicting oldest" `Quick
      (fun () ->
        let w = Window.create ~interval:1.0 ~capacity:3 () in
        for i = 0 to 9 do
          ignore (Window.observe w ~now:(float_of_int i) (snap (float_of_int i)))
        done;
        Alcotest.(check int) "capped" 3 (Window.size w);
        match Window.delta w ~window:1000. with
        | Some (elapsed, d) ->
          (* entries 7, 8, 9 survive *)
          Alcotest.(check (float 1e-9)) "oldest is 7" 2. elapsed;
          Alcotest.(check (float 1e-9)) "delta from 7" 2. (List.assoc "k" d)
        | None -> Alcotest.fail "expected a delta");
    Alcotest.test_case "window quantile matches an exact oracle" `Quick
      (fun () ->
        (* Observe phase A, snapshot; observe phase B, snapshot; the
           window delta must reproduce exactly the quantile of a twin
           histogram that saw only phase B — identical bucket counts,
           identical float arithmetic. *)
        let got, want =
          in_fresh_domain (fun () ->
              let buckets = [ 0.001; 0.01; 0.1; 1.0 ] in
              let m =
                Metrics.histogram "test.window.oracle" ~buckets
                  ~help:"windowed phase"
              in
              let oracle =
                Metrics.histogram "test.window.oracle.twin" ~buckets
                  ~help:"phase B only"
              in
              let phase_a = [ 0.0005; 0.0005; 0.05; 2.0 ] in
              let phase_b = [ 0.002; 0.004; 0.03; 0.03; 0.7; 5.0 ] in
              List.iter (Metrics.observe m) phase_a;
              let sa = Io_stats.snapshot () in
              List.iter (Metrics.observe m) phase_b;
              let sb = Io_stats.snapshot () in
              List.iter (Metrics.observe oracle) phase_b;
              let w = Window.create ~interval:1.0 () in
              ignore (Window.observe w ~now:0. sa);
              ignore (Window.observe w ~now:10. sb);
              let qs = [ 0.5; 0.9; 0.95; 0.99 ] in
              ( List.map (fun q -> Window.quantile w ~window:10. m ~q) qs,
                List.map (fun q -> Metrics.quantile oracle ~q) qs ))
        in
        (* exact equality: same bucket counts must mean same floats *)
        Alcotest.(check (list (option (float 0.))))
          "window delta = phase-B oracle" want got);
  ]

let suites =
  [
    ("obs.registry", registry_suite);
    ("obs.io_stats", io_stats_suite);
    ("obs.trace", trace_suite);
    ("obs.decisions", decisions_suite);
    ("obs.export", export_suite);
    ("obs.delta_quantile", delta_quantile_suite);
    ("obs.window", window_suite);
  ]
