(* The feedback tier: workload history, cross-query percentile summary,
   cost-model calibration, and the executor wiring that joins an adaptive
   prediction against its measured outcome. *)

open Raw_core
module History = Raw_obs.History
module Summary = Raw_obs.Summary
module Io_stats = Raw_storage.Io_stats

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let sample_record =
  {
    History.ts = 1754400000.125;
    shape = "agg(;MAX($1))<-filter($0 < ?)<-scan(t:2)";
    access = "csv(sep=',')";
    strategy = "shreds";
    status = History.Completed;
    cpu_seconds = 0.012;
    io_seconds = 0.0546;
    compile_seconds = 0.01;
    total_seconds = 0.0766;
    rows_scanned = 20_000;
    result_rows = 1;
    parallelism = 1;
    sel_est = Some 0.5;
    sel_obs = Some 0.9955;
    cost_predicted = Some 43_500.;
    mispredicted = Some true;
    better = Some "full";
    tmpl_hits = 0;
    tmpl_misses = 2;
    pool_hits = 0;
    pool_misses = 1;
    degraded = [ "eviction pressure" ];
    errors_tolerated = 3;
    alloc_words = Some 123_456.;
    gc_minor = Some 7;
    gc_major = Some 1;
    bytes_copied = Some 65_536.;
  }

(* ------------------------------------------------------------------ *)
(* Record codec and store mechanics                                    *)
(* ------------------------------------------------------------------ *)

let store_suite =
  [
    Alcotest.test_case "record roundtrips through JSON" `Quick (fun () ->
        match History.of_json (History.to_json sample_record) with
        | Ok r ->
          Alcotest.(check bool) "identical" true (r = sample_record)
        | Error e -> Alcotest.failf "roundtrip failed: %s" e);
    Alcotest.test_case "optional fields drop cleanly" `Quick (fun () ->
        let r =
          {
            sample_record with
            History.sel_est = None;
            sel_obs = None;
            cost_predicted = None;
            mispredicted = None;
            better = None;
            status = History.Failed "data";
            degraded = [];
            alloc_words = None;
            gc_minor = None;
            gc_major = None;
            bytes_copied = None;
          }
        in
        let line = Raw_obs.Jsons.to_string (History.to_json r) in
        Alcotest.(check bool) "no sel_est key" false (contains line "sel_est");
        Alcotest.(check bool) "no alloc_words key" false
          (contains line "alloc_words");
        Alcotest.(check bool) "status tagged" true (contains line "error:data");
        match History.of_json (History.to_json r) with
        | Ok r' -> Alcotest.(check bool) "identical" true (r' = r)
        | Error e -> Alcotest.failf "roundtrip failed: %s" e);
    Alcotest.test_case "append rotates at max_bytes and keeps one \
                        generation" `Quick (fun () ->
        let path = Test_util.fresh_path ".jsonl" in
        let line_len =
          String.length (Raw_obs.Jsons.to_string (History.to_json sample_record)) + 1
        in
        History.append ~path ~max_bytes:line_len sample_record;
        History.append ~path ~max_bytes:line_len sample_record;
        History.append ~path ~max_bytes:line_len sample_record;
        let live, s1 = History.load path in
        let prev, s2 = History.load (path ^ ".1") in
        Alcotest.(check int) "no skips" 0 (s1 + s2);
        Alcotest.(check int) "live generation" 1 (List.length live);
        Alcotest.(check int) "rotated generation" 1 (List.length prev));
    Alcotest.test_case "load skips malformed lines, keeps the rest" `Quick
      (fun () ->
        let path = Test_util.fresh_path ".jsonl" in
        let good = Raw_obs.Jsons.to_string (History.to_json sample_record) in
        let oc = open_out path in
        output_string oc "not json at all\n";
        output_string oc (good ^ "\n");
        output_string oc "{\"ts\":1.0}\n";
        (* torn tail from a crashed writer *)
        output_string oc (String.sub good 0 (String.length good / 2));
        close_out oc;
        let records, skipped = History.load path in
        Alcotest.(check int) "one survivor" 1 (List.length records);
        Alcotest.(check int) "three skipped" 3 skipped);
    Alcotest.test_case "load of a missing file is empty, not an error" `Quick
      (fun () ->
        let records, skipped = History.load "/nonexistent/history.jsonl" in
        Alcotest.(check int) "no records" 0 (List.length records);
        Alcotest.(check int) "no skips" 0 skipped);
  ]

(* ------------------------------------------------------------------ *)
(* Summary percentiles                                                 *)
(* ------------------------------------------------------------------ *)

let summary_suite =
  [
    Alcotest.test_case "percentile is nearest-rank" `Quick (fun () ->
        let xs = [ 5.; 1.; 4.; 2.; 3. ] in
        let check name q want =
          Alcotest.(check (option (float 1e-9))) name want (Summary.percentile xs q)
        in
        check "p50 of 1..5" 0.5 (Some 3.);
        check "p99 takes the max" 0.99 (Some 5.);
        check "p0 clamps to the min" 0.0 (Some 1.);
        Alcotest.(check (option (float 1e-9)))
          "empty" None (Summary.percentile [] 0.5);
        Alcotest.(check (option (float 1e-9)))
          "bad q" None (Summary.percentile xs 1.5));
    Alcotest.test_case "by_access groups and orders percentiles" `Quick
      (fun () ->
        let rec_with access total =
          { sample_record with History.access; total_seconds = total }
        in
        let records =
          List.init 10 (fun i -> rec_with "csv" (float_of_int (i + 1)))
          @ [ rec_with "fwb" 0.5 ]
        in
        match Summary.by_access records with
        | [ csv; fwb ] ->
          Alcotest.(check string) "csv first" "csv" csv.Summary.key;
          Alcotest.(check int) "csv count" 10 csv.Summary.n;
          Alcotest.(check bool) "ordered" true
            (csv.Summary.p50 <= csv.Summary.p95
            && csv.Summary.p95 <= csv.Summary.p99);
          Alcotest.(check int) "fwb count" 1 fwb.Summary.n
        | l -> Alcotest.failf "expected 2 groups, got %d" (List.length l));
  ]

(* ------------------------------------------------------------------ *)
(* End-to-end: a 30-query mixed workload through the executor          *)
(* ------------------------------------------------------------------ *)

(* On a fresh table the estimate is the stats-free 0.5, where shreds are
   cheapest for one filter and one post column; col0 = 100 * row makes the
   observed selectivity 0.75, where full columns are. *)
let reversed_sql = "SELECT MAX(col1) FROM t WHERE col0 < 150000"
let adaptive = { Planner.default with Planner.shreds = Planner.Adaptive }

let workload_suite =
  [
    Alcotest.test_case "a reversed choice counts with every sink off" `Quick
      (fun () ->
        let db = Test_util.grid_csv_db ~n:2_000 ~m:4 () in
        let before = Io_stats.get "planner.mispredict.shreds" in
        ignore (Raw_db.query ~options:adaptive db reversed_sql);
        Alcotest.(check int) "planner.mispredict.shreds" (before + 1)
          (Io_stats.get "planner.mispredict.shreds"));
    Alcotest.test_case "history without observe: prediction joined, no \
                        decision log" `Quick (fun () ->
        let path = Test_util.fresh_path ".jsonl" in
        let config = { Config.default with Config.history_path = Some path } in
        let db = Test_util.grid_csv_db ~config ~n:2_000 ~m:4 () in
        let r = Raw_db.query ~options:adaptive db reversed_sql in
        Alcotest.(check int) "no decisions" 0
          (List.length (Raw_obs.Trace.decisions r.Executor.spans));
        match History.load path with
        | [ h ], 0 ->
          Alcotest.(check string) "chosen" "shreds" h.History.strategy;
          Alcotest.(check (option (float 1e-9))) "sel_est" (Some 0.5) h.sel_est;
          Alcotest.(check bool) "cost_predicted" true (h.cost_predicted <> None);
          Alcotest.(check (option bool)) "mispredicted" (Some true) h.mispredicted;
          Alcotest.(check (option string)) "better" (Some "full") h.better
        | l, skipped ->
          Alcotest.failf "%d record(s), %d skipped" (List.length l) skipped);
    Alcotest.test_case "30 adaptive queries: JSONL, percentiles, \
                        calibration, mispredict counter" `Slow (fun () ->
        let path = Test_util.fresh_path ".jsonl" in
        let config =
          { Config.default with Config.history_path = Some path }
        in
        let db = Test_util.grid_csv_db ~config ~n:2_000 ~m:4 () in
        let options = { Planner.default with Planner.shreds = Planner.Adaptive } in
        let mispredict_before =
          Io_stats.get "planner.mispredict.full"
          + Io_stats.get "planner.mispredict.shreds"
          + Io_stats.get "planner.mispredict.multishreds"
        in
        for i = 0 to 29 do
          (* col0 = 100 * row, so these sweep high observed selectivities
             against the stats-free 0.5 default estimate: guaranteed
             mispredictions on the early queries *)
          let threshold = 150_000 + (i * 1_000) in
          let q =
            match i mod 3 with
            | 0 -> Printf.sprintf "SELECT MAX(col1) FROM t WHERE col0 < %d" threshold
            | 1 -> Printf.sprintf "SELECT MIN(col2) FROM t WHERE col0 < %d" threshold
            | _ -> Printf.sprintf "SELECT MAX(col3) FROM t WHERE col0 < %d" threshold
          in
          ignore (Raw_db.query ~options db q)
        done;
        let mispredict_after =
          Io_stats.get "planner.mispredict.full"
          + Io_stats.get "planner.mispredict.shreds"
          + Io_stats.get "planner.mispredict.multishreds"
        in
        let records, skipped = History.load path in
        Alcotest.(check int) "every line parses" 0 skipped;
        Alcotest.(check int) "one record per query" 30 (List.length records);
        List.iter
          (fun (r : History.record) ->
            Alcotest.(check bool) "completed" true (r.status = History.Completed);
            Alcotest.(check bool)
              "concrete strategy" true
              (List.mem r.strategy [ "full"; "shreds"; "multishreds" ]);
            Alcotest.(check bool) "adaptive estimate joined" true
              (r.sel_est <> None);
            Alcotest.(check bool) "selectivity observed" true (r.sel_obs <> None))
          records;
        (* three distinct query shapes, one access path *)
        Alcotest.(check int) "shapes" 3 (List.length (Summary.by_shape records));
        (match Summary.by_access records with
        | [ g ] ->
          Alcotest.(check bool) "csv access path" true
            (String.length g.Summary.key >= 3 && String.sub g.Summary.key 0 3 = "csv");
          Alcotest.(check int) "all thirty" 30 g.Summary.n;
          Alcotest.(check bool) "percentiles ordered" true
            (g.Summary.p50 <= g.Summary.p95 && g.Summary.p95 <= g.Summary.p99)
        | l -> Alcotest.failf "expected 1 access group, got %d" (List.length l));
        (* the 0.5 default estimate against ~1.0 observed selectivity must
           produce at least one cost-model reversal, live and historical *)
        Alcotest.(check bool) "mispredict counter bumped" true
          (mispredict_after > mispredict_before);
        Alcotest.(check bool) "mispredicted record present" true
          (List.exists
             (fun (r : History.record) -> r.History.mispredicted = Some true)
             records);
        (match Summary.calibration records with
        | [] -> Alcotest.fail "no calibration stats"
        | stats ->
          let total_meas =
            List.fold_left (fun a s -> a + s.Summary.measurable) 0 stats
          in
          let total_mis =
            List.fold_left (fun a s -> a + s.Summary.mispredicts) 0 stats
          in
          Alcotest.(check int) "all records measurable" 30 total_meas;
          Alcotest.(check bool) "calibration sees the mispredictions" true
            (total_mis >= 1);
          List.iter
            (fun (s : Summary.strategy_stats) ->
              Alcotest.(check bool)
                (s.Summary.strategy ^ " ratio positive") true
                (s.Summary.sel_ratio_p50 > 0.))
            stats);
        (* report renderings stay printable *)
        let report = Format.asprintf "%a" Summary.pp_report records in
        Alcotest.(check bool) "report header" true
          (contains report "workload history");
        Alcotest.(check bool) "calibration legend" true
          (contains report "selratio"));
    Alcotest.test_case "deadline-exceeded query still lands in history" `Slow
      (fun () ->
        let path = Test_util.fresh_path ".jsonl" in
        let config =
          {
            Config.default with
            Config.history_path = Some path;
            deadline = Some 1e-9;
          }
        in
        let db = Test_util.grid_csv_db ~config ~n:20_000 ~m:3 () in
        (match Raw_db.query db "SELECT MAX(col1) FROM t WHERE col0 < 1000000" with
        | _ -> Alcotest.fail "expected the 1ns deadline to trip"
        | exception _ -> ());
        let records, skipped = History.load path in
        Alcotest.(check int) "parses" 0 skipped;
        match records with
        | [ r ] ->
          Alcotest.(check bool) "status deadline" true
            (r.History.status = History.Deadline)
        | l -> Alcotest.failf "expected 1 record, got %d" (List.length l));
  ]

(* ------------------------------------------------------------------ *)
(* Concurrent appenders                                                *)
(*                                                                     *)
(* The server gives the history file real concurrency for the first    *)
(* time: session threads and worker domains share one path. These      *)
(* tests drive it from parallel domains and require exactly N*M whole  *)
(* parseable lines — a torn line, dropped record, or double-rotation   *)
(* shows up as a count mismatch or a skip.                             *)
(* ------------------------------------------------------------------ *)

(* A record whose serialized length does not depend on [tag] as long as
   tag stays in [10_000, 99_999]: rotation thresholds computed from one
   line's length then hold for every line. *)
let tagged_record tag = { sample_record with History.rows_scanned = tag }

let concurrent_append ~path ~max_bytes ~domains ~per_domain =
  let spawned =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for j = 0 to per_domain - 1 do
              History.append ~path ?max_bytes
                (tagged_record (10_000 + (d * per_domain) + j))
            done))
  in
  List.iter Domain.join spawned

let concurrency_suite =
  [
    Alcotest.test_case "4 domains x 50 appends: every record lands whole"
      `Slow (fun () ->
        let path = Test_util.fresh_path ".jsonl" in
        concurrent_append ~path ~max_bytes:None ~domains:4 ~per_domain:50;
        let records, skipped = History.load path in
        Alcotest.(check int) "no torn lines" 0 skipped;
        Alcotest.(check int) "all 200 records" 200 (List.length records);
        Alcotest.(check bool) "no rotation" false
          (Sys.file_exists (path ^ ".1"));
        let tags =
          List.sort_uniq compare
            (List.map (fun (r : History.record) -> r.History.rows_scanned)
               records)
        in
        Alcotest.(check int) "every append distinct, none lost" 200
          (List.length tags));
    Alcotest.test_case "rotation under concurrency loses nothing" `Slow
      (fun () ->
        let path = Test_util.fresh_path ".jsonl" in
        let line_len =
          String.length
            (Raw_obs.Jsons.to_string (History.to_json (tagged_record 10_000)))
          + 1
        in
        (* threshold at 120 of 200 lines: exactly one rotation, wherever
           the domain interleaving puts it *)
        concurrent_append ~path
          ~max_bytes:(Some (120 * line_len))
          ~domains:4 ~per_domain:50;
        let live, s1 = History.load path in
        let prev, s2 = History.load (path ^ ".1") in
        Alcotest.(check bool) "rotated once" true
          (Sys.file_exists (path ^ ".1"));
        Alcotest.(check int) "no torn lines" 0 (s1 + s2);
        Alcotest.(check int) "rotated generation" 120 (List.length prev);
        Alcotest.(check int) "live generation" 80 (List.length live);
        let tags =
          List.sort_uniq compare
            (List.map
               (fun (r : History.record) -> r.History.rows_scanned)
               (live @ prev))
        in
        Alcotest.(check int) "every append accounted for" 200
          (List.length tags));
  ]

let suites =
  [
    ("history.store", store_suite);
    ("history.summary", summary_suite);
    ("history.workload", workload_suite);
    ("history.concurrency", concurrency_suite);
  ]
