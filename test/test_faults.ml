(* Fault tolerance: golden runs over the malformed-input corpus under the
   three error policies, byte-mutation property tests, deterministic media-
   fault injection, and positional-map row identity across morsel
   boundaries when rows are skipped.

   The corpus lives in test/corpus/ (declared as dune deps, so paths are
   relative to the test's working directory):
   - trunc_quote.csv  : last row truncated mid-quoted-string, missing the
                        trailing float field, no final newline
   - crlf_ragged.csv  : CRLF line endings; one row with a non-numeric int
                        field, one short row missing its last field
   - bad.jsonl        : bad \u escape, raw invalid UTF-8 (accepted — the
                        scanner is byte-transparent), a string where the
                        schema expects a float, a row truncated mid-object
   - ragged.fwb       : layout int,float — five whole rows then 7 trailing
                        bytes (a torn final row)
   - bad_index.hep    : eight events; index slots 3 and 5 point past EOF *)

open Raw_vector
open Raw_storage
open Raw_formats
open Raw_core
open Test_util

let corpus name = Filename.concat "corpus" name

let db_with ?(policy = Scan_errors.Fail_fast) ?(parallelism = 1) register =
  let config = { Config.default with Config.parallelism; on_error = policy } in
  let db = Raw_db.create ~config () in
  register db;
  db

let as_int = function
  | Value.Int n -> n
  | v -> Alcotest.failf "expected an int, got %a" Value.pp v

let errors_of (r : Executor.report) = r.errors

let check_sample ~offset ~field ~cause (s : Scan_errors.sample) =
  Alcotest.(check int) "sample offset" offset s.Scan_errors.offset;
  Alcotest.(check int) "sample field" field s.Scan_errors.field;
  Alcotest.(check string) "sample cause" cause s.Scan_errors.cause

let expect_data_error ~cause db sql =
  match Raw_db.query db sql with
  | (_ : Executor.report) ->
    Alcotest.failf "%s: expected Scan_errors.Error %S" sql cause
  | exception Scan_errors.Error e ->
    Alcotest.(check string) "fail-fast cause" cause e.Scan_errors.cause

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Corpus goldens                                                      *)
(* ------------------------------------------------------------------ *)

let reg_trunc db =
  Raw_db.register_csv db ~name:"t" ~path:(corpus "trunc_quote.csv")
    ~columns:
      [ ("id", Dtype.Int); ("name", Dtype.String); ("score", Dtype.Float) ]
    ()

let reg_crlf db =
  Raw_db.register_csv db ~name:"t" ~path:(corpus "crlf_ragged.csv")
    ~columns:[ ("a", Dtype.Int); ("b", Dtype.Int); ("c", Dtype.Int) ]
    ()

let reg_jsonl db =
  Raw_db.register_jsonl db ~name:"t" ~path:(corpus "bad.jsonl")
    ~columns:
      [ ("id", Dtype.Int); ("name", Dtype.String); ("val", Dtype.Float) ]

let reg_fwb db =
  Raw_db.register_fwb db ~name:"t" ~path:(corpus "ragged.fwb")
    ~columns:[ ("k", Dtype.Int); ("x", Dtype.Float) ]

let reg_hep db = Raw_db.register_hep db ~name_prefix:"atlas" ~path:(corpus "bad_index.hep")

let corpus_tests =
  [
    Alcotest.test_case "trunc_quote.csv: fail_fast raises typed error" `Quick
      (fun () ->
        expect_data_error ~cause:"bad float" (db_with reg_trunc)
          "SELECT SUM(score) FROM t");
    Alcotest.test_case "trunc_quote.csv: skip_row drops the torn row" `Quick
      (fun () ->
        let db = db_with ~policy:Scan_errors.Skip_row reg_trunc in
        check_value "count" (Value.Int 6)
          (Raw_db.scalar db "SELECT COUNT(*) FROM t");
        let r =
          Raw_db.query
            (db_with ~policy:Scan_errors.Skip_row reg_trunc)
            "SELECT SUM(score) FROM t"
        in
        check_value "sum" (Value.Float 24.0) (scalar_of r);
        let errs = errors_of r in
        Alcotest.(check bool) "errors recorded" true (errs.total > 0);
        (* the torn row starts at byte 72; its missing field is the float *)
        check_sample ~offset:72 ~field:2 ~cause:"bad float"
          (List.hd errs.samples));
    Alcotest.test_case "trunc_quote.csv: null_fill keeps the physical row"
      `Quick (fun () ->
        let db = db_with ~policy:Scan_errors.Null_fill reg_trunc in
        check_value "count" (Value.Int 7)
          (Raw_db.scalar db "SELECT COUNT(*) FROM t");
        let r =
          Raw_db.query
            (db_with ~policy:Scan_errors.Null_fill reg_trunc)
            "SELECT SUM(score) FROM t"
        in
        (* the NULL score is ignored by the aggregate *)
        check_value "sum" (Value.Float 24.0) (scalar_of r);
        Alcotest.(check int) "one error" 1 (errors_of r).total);
    Alcotest.test_case "crlf_ragged.csv: fail_fast raises typed error" `Quick
      (fun () ->
        expect_data_error ~cause:"bad int" (db_with reg_crlf)
          "SELECT SUM(b) FROM t");
    Alcotest.test_case "crlf_ragged.csv: skip_row validates all columns"
      `Quick (fun () ->
        let db = db_with ~policy:Scan_errors.Skip_row reg_crlf in
        (* both the bad-int row and the short row are dropped, whatever
           columns the query touches *)
        check_value "count" (Value.Int 6)
          (Raw_db.scalar db "SELECT COUNT(*) FROM t");
        let r =
          Raw_db.query
            (db_with ~policy:Scan_errors.Skip_row reg_crlf)
            "SELECT SUM(c) FROM t"
        in
        check_value "sum" (Value.Int 75) (scalar_of r);
        (* two bad rows, each reported once: the one pass that reads c
           also sizes the table *)
        let errs = errors_of r in
        Alcotest.(check int) "errors" 2 errs.total;
        Alcotest.(check (list (pair string int)))
          "by cause" [ ("bad int", 2) ] errs.by_cause;
        check_sample ~offset:21 ~field:1 ~cause:"bad int"
          (List.hd errs.samples));
    Alcotest.test_case "crlf_ragged.csv: null_fill nulls only touched fields"
      `Quick (fun () ->
        let db = db_with ~policy:Scan_errors.Null_fill reg_crlf in
        check_value "count" (Value.Int 8)
          (Raw_db.scalar db "SELECT COUNT(*) FROM t");
        let r =
          Raw_db.query
            (db_with ~policy:Scan_errors.Null_fill reg_crlf)
            "SELECT SUM(c) FROM t"
        in
        check_value "sum" (Value.Int 81) (scalar_of r);
        (* only the short row's missing c is decoded; the bad b is never
           touched by this query *)
        let errs = errors_of r in
        Alcotest.(check int) "errors" 1 errs.total;
        check_sample ~offset:50 ~field:2 ~cause:"bad int"
          (List.hd errs.samples));
    Alcotest.test_case "crlf_ragged.csv: WHERE below a join reads unmatched rows"
      `Quick (fun () ->
        (* u matches only a = 1..3; the bad b sits in row a = 4. The WHERE
           on t is pushed below the join, so b is decoded for every row of
           t, joined or not — under Fail_fast the bad cell fails the query
           in every join materialization, as Early always did. *)
        let reg_join db =
          reg_crlf db;
          Raw_db.register_csv db ~name:"u"
            ~path:(write_csv_rows [ [ 1; 10 ]; [ 2; 20 ]; [ 3; 30 ] ])
            ~columns:[ ("k", Dtype.Int); ("v", Dtype.Int) ]
            ()
        in
        let sql = "SELECT SUM(u.v) FROM t JOIN u ON t.a = u.k WHERE t.b < 100" in
        List.iter
          (fun join_policy ->
            let db = db_with reg_join in
            Raw_db.set_options db
              { (Raw_db.options db) with Planner.shreds = Planner.Shreds; join_policy };
            expect_data_error ~cause:"bad int" db sql)
          [ Planner.Early; Planner.Intermediate; Planner.Late ];
        check_value "skip_row drops the bad row, not the answer" (Value.Int 60)
          (Raw_db.scalar (db_with ~policy:Scan_errors.Skip_row reg_join) sql));
    Alcotest.test_case "bad.jsonl: fail_fast raises typed error" `Quick
      (fun () ->
        expect_data_error ~cause:"json: string value in Float column"
          (db_with reg_jsonl) "SELECT SUM(val) FROM t");
    Alcotest.test_case "bad.jsonl: skip_row keeps raw invalid UTF-8" `Quick
      (fun () ->
        (* rows survive iff every schema column decodes: the bad \u escape,
           the string-for-float and the truncated object are dropped; the
           raw invalid-UTF-8 name is accepted (byte-transparent strings) *)
        let db = db_with ~policy:Scan_errors.Skip_row reg_jsonl in
        check_value "count" (Value.Int 3)
          (Raw_db.scalar db "SELECT COUNT(*) FROM t");
        let r =
          Raw_db.query
            (db_with ~policy:Scan_errors.Skip_row reg_jsonl)
            "SELECT SUM(val) FROM t"
        in
        check_value "sum" (Value.Float 11.5) (scalar_of r);
        let errs = errors_of r in
        Alcotest.(check int) "errors" 3 errs.total;
        Alcotest.(check (list string)) "causes"
          [
            "json: bad \\u escape";
            "json: expected ',' or '}'";
            "json: string value in non-string column";
          ]
          (List.map fst errs.by_cause));
    Alcotest.test_case "bad.jsonl: null_fill keeps all physical rows" `Quick
      (fun () ->
        let db = db_with ~policy:Scan_errors.Null_fill reg_jsonl in
        check_value "count" (Value.Int 6)
          (Raw_db.scalar db "SELECT COUNT(*) FROM t");
        let r =
          Raw_db.query
            (db_with ~policy:Scan_errors.Null_fill reg_jsonl)
            "SELECT SUM(val) FROM t"
        in
        check_value "sum" (Value.Float 14.0) (scalar_of r);
        (* the bad name escape is not an error here: val never touches it *)
        Alcotest.(check int) "errors" 2 (errors_of r).total);
    Alcotest.test_case "ragged.fwb: fail_fast raises typed error" `Quick
      (fun () ->
        expect_data_error ~cause:"fwb: trailing bytes" (db_with reg_fwb)
          "SELECT COUNT(*) FROM t");
    Alcotest.test_case "ragged.fwb: lenient policies floor the row count"
      `Quick (fun () ->
        List.iter
          (fun policy ->
            let db = db_with ~policy reg_fwb in
            check_value "count" (Value.Int 5)
              (Raw_db.scalar db "SELECT COUNT(*) FROM t");
            let r =
              Raw_db.query (db_with ~policy reg_fwb) "SELECT SUM(x) FROM t"
            in
            check_value "sum" (Value.Float 7.5) (scalar_of r);
            let errs = errors_of r in
            Alcotest.(check bool) "errors recorded" true (errs.total > 0);
            check_sample ~offset:80 ~field:(-1) ~cause:"fwb: trailing bytes"
              (List.hd errs.samples))
          [ Scan_errors.Skip_row; Scan_errors.Null_fill ]);
    Alcotest.test_case "bad_index.hep: fail_fast raises typed error" `Quick
      (fun () ->
        expect_data_error ~cause:"hep: read past EOF" (db_with reg_hep)
          "SELECT SUM(pt) FROM atlas_muons");
    Alcotest.test_case "bad_index.hep: lenient policies enumerate valid entries"
      `Quick (fun () ->
        (* a corrupt event record has no recoverable fields, so Null_fill
           degrades to Skip_row for HEP: both enumerate the valid entries *)
        List.iter
          (fun policy ->
            let db = db_with ~policy reg_hep in
            let r = Raw_db.query db "SELECT COUNT(*) FROM atlas_events" in
            check_value "count" (Value.Int 6) (scalar_of r);
            let errs = errors_of r in
            Alcotest.(check int) "errors" 2 errs.total;
            (* index slots of the two corrupt entries: 792 + 8*{3,5} *)
            check_sample ~offset:816 ~field:(-1)
              ~cause:"hep: corrupt event record" (List.hd errs.samples);
            check_sample ~offset:832 ~field:(-1)
              ~cause:"hep: corrupt event record" (List.nth errs.samples 1);
            check_value "sum pt" (Value.Float 80.0)
              (Raw_db.scalar db "SELECT SUM(pt) FROM atlas_muons"))
          [ Scan_errors.Skip_row; Scan_errors.Null_fill ]);
    Alcotest.test_case "bad_index.hep: JIT fails and records like the field API"
      `Quick (fun () ->
        (* the JIT readers go through decoded offsets, the interpreted
           ones through the field API: the same typed error, or the same
           answers and recorded errors, on every table and policy *)
        let outcome policy access sql =
          let config = { Config.default with Config.on_error = policy } in
          let db = Raw_db.create ~config ~options:{ Planner.default with access } () in
          reg_hep db;
          match Raw_db.query db sql with
          | r ->
            Ok
              (Array.map Column.to_values (Chunk.columns r.chunk), errors_of r)
          | exception Scan_errors.Error e -> Error e
        in
        List.iter
          (fun policy ->
            List.iter
              (fun sql ->
                let jit = outcome policy Access.Jit sql in
                if jit <> outcome policy Access.In_situ sql then
                  Alcotest.failf "%s: JIT differs from the field API" sql;
                match (policy, jit) with
                | Scan_errors.Fail_fast, Ok _ -> Alcotest.failf "%s: expected an error" sql
                | (Scan_errors.Skip_row | Scan_errors.Null_fill), Error _ ->
                  Alcotest.failf "%s: unexpected error" sql
                | _ -> ())
              [
                "SELECT SUM(run_number), MAX(event_id) FROM atlas_events";
                "SELECT SUM(pt), MIN(event_id) FROM atlas_muons";
                "SELECT MAX(eta), SUM(phi) FROM atlas_electrons";
                "SELECT COUNT(*), MIN(phi) FROM atlas_jets";
              ])
          [ Scan_errors.Fail_fast; Scan_errors.Skip_row; Scan_errors.Null_fill ]);
    Alcotest.test_case "report: tolerated errors render in pp_report" `Quick
      (fun () ->
        let r =
          Raw_db.query
            (db_with ~policy:Scan_errors.Skip_row reg_crlf)
            "SELECT SUM(c) FROM t"
        in
        let s = Format.asprintf "%a" Executor.pp_report r in
        Alcotest.(check bool) "mentions scan errors" true
          (contains s "scan error");
        Alcotest.(check bool) "attributes offset and field" true
          (contains s "offset 21 field 1"));
  ]

(* ------------------------------------------------------------------ *)
(* Integer overflow                                                    *)
(* ------------------------------------------------------------------ *)

(* Values outside [min_int, max_int] are malformed ints, not silently
   wrapped: two rows overflow (max_int + 1 and a 19-digit value), the
   extremes themselves parse. *)
let overflow_rows =
  [ ("1", "5"); ("9999999999999999999", "7"); ("-4611686018427387904", "9");
    ("4611686018427387904", "11"); ("4611686018427387903", "13") ]

let reg_overflow format db =
  let text =
    match format with
    | `Csv -> List.map (fun (a, b) -> a ^ "," ^ b ^ "\n") overflow_rows
    | `Jsonl ->
      List.map (fun (a, b) -> Printf.sprintf "{\"a\": %s, \"b\": %s}\n" a b) overflow_rows
  in
  let path = fresh_path (match format with `Csv -> ".csv" | `Jsonl -> ".jsonl") in
  Out_channel.with_open_bin path (fun oc -> List.iter (Out_channel.output_string oc) text);
  let columns = [ ("a", Dtype.Int); ("b", Dtype.Int) ] in
  match format with
  | `Csv -> Raw_db.register_csv db ~name:"t" ~path ~columns ()
  | `Jsonl -> Raw_db.register_jsonl db ~name:"t" ~path ~columns

let overflow_tests =
  List.concat_map
    (fun (name, format) ->
      let reg = reg_overflow format in
      [
        Alcotest.test_case (name ^ ": fail_fast rejects an out-of-range int")
          `Quick (fun () ->
            expect_data_error ~cause:"bad int" (db_with reg) "SELECT MIN(a) FROM t");
        Alcotest.test_case (name ^ ": null_fill records and nulls it") `Quick
          (fun () ->
            let db = db_with ~policy:Scan_errors.Null_fill reg in
            check_value "count" (Value.Int 5) (Raw_db.scalar db "SELECT COUNT(*) FROM t");
            let r = Raw_db.query db "SELECT MIN(a), MAX(a) FROM t" in
            check_value "min" (Value.Int min_int) (Column.get (Chunk.column r.chunk 0) 0);
            check_value "max" (Value.Int max_int) (Column.get (Chunk.column r.chunk 1) 0);
            Alcotest.(check (list (pair string int)))
              "errors" [ ("bad int", 2) ] (errors_of r).by_cause);
        Alcotest.test_case (name ^ ": skip_row drops the row") `Quick (fun () ->
            let db = db_with ~policy:Scan_errors.Skip_row reg in
            check_value "count" (Value.Int 3) (Raw_db.scalar db "SELECT COUNT(*) FROM t");
            check_value "sum" (Value.Int 27) (Raw_db.scalar db "SELECT SUM(b) FROM t"));
      ])
    [ ("csv", `Csv); ("jsonl", `Jsonl) ]

(* ------------------------------------------------------------------ *)
(* Deterministic fault injection                                       *)
(* ------------------------------------------------------------------ *)

let small_pages = { Mmap_file.Config.default with Mmap_file.Config.page_size = 256 }

let snapshot_testable =
  Alcotest.testable Scan_errors.pp_snapshot (fun a b -> a = b)

let injection_tests =
  [
    Alcotest.test_case "same seed corrupts the same bytes" `Quick (fun () ->
        let data = Bytes.of_string (String.concat "\n" (List.init 200 string_of_int)) in
        let fault = Mmap_file.Fault.make ~seed:42 ~flip_per_page:1.0 () in
        let open1 () =
          Mmap_file.of_bytes ~config:small_pages ~fault ~name:"f.csv" data
        in
        let a = open1 () and b = open1 () in
        Alcotest.(check bool) "flips applied" true (Mmap_file.injected_flips a > 0);
        Alcotest.(check string) "identical corruption"
          (Bytes.to_string (Mmap_file.bytes a))
          (Bytes.to_string (Mmap_file.bytes b));
        (* the caller's buffer is never mutated in place *)
        Alcotest.(check bool) "source intact" false
          (Bytes.to_string (Mmap_file.bytes a) = Bytes.to_string data));
    Alcotest.test_case "fault filter: only matching names corrupted" `Quick
      (fun () ->
        let fault =
          Mmap_file.Fault.make ~seed:7 ~flip_per_page:1.0 ~truncate_pages:1
            ~only:"fault_" ()
        in
        Alcotest.(check bool) "matches" true
          (Mmap_file.Fault.applies fault ~name:"fault_data.csv");
        Alcotest.(check bool) "skips" false
          (Mmap_file.Fault.applies fault ~name:"clean.csv"));
    Alcotest.test_case "env-driven injection tolerated by lenient scans"
      `Quick (fun () ->
        (* This file's name contains "fault_", so when CI exports
           RAW_FAULT_SEED/RAW_FAULT_FLIP/RAW_FAULT_ONLY=fault_ the open
           below (no explicit ?fault) corrupts it deterministically; in a
           plain run it is clean. Either way the lenient policies must
           scan it without raising and never invent rows. *)
        let path = fresh_path "_fault_env.csv" in
        let oc = open_out_bin path in
        for i = 0 to 499 do
          Printf.fprintf oc "%d,%d\n" i (i * 3)
        done;
        close_out oc;
        let schema = Schema.of_pairs [ ("a", Dtype.Int); ("b", Dtype.Int) ] in
        List.iter
          (fun policy ->
            Scan_errors.reset ();
            let file = Mmap_file.open_file ~config:small_pages path in
            let cols, _ =
              Scan_csv.seq_scan ~mode:Scan_csv.Interpreted ~policy ~file
                ~sep:',' ~schema ~needed:[ 0; 1 ] ~tracked:[] ()
            in
            Scan_errors.reset ();
            Alcotest.(check bool) "row count bounded" true
              (Column.length cols.(0) <= 500))
          [ Scan_errors.Skip_row; Scan_errors.Null_fill ]);
    Alcotest.test_case "par scan == seq scan under injected faults" `Quick
      (fun () ->
        let path = fresh_path ".csv" in
        Csv.generate ~path ~n_rows:2000
          ~dtypes:[| Dtype.Int; Dtype.Float; Dtype.Int |]
          ~seed:7 ();
        let fault =
          Mmap_file.Fault.make ~seed:11 ~flip_per_page:0.8 ~truncate_pages:1 ()
        in
        let schema =
          Schema.of_pairs
            [ ("a", Dtype.Int); ("x", Dtype.Float); ("b", Dtype.Int) ]
        in
        let run policy scanner =
          Scan_errors.reset ();
          let file = Mmap_file.open_file ~config:small_pages ~fault path in
          Alcotest.(check bool) "faults injected" true
            (Mmap_file.injected_flips file > 0
            && Mmap_file.injected_truncated_bytes file > 0);
          let cols, _ = scanner ~policy ~file in
          let errs = Scan_errors.snapshot () in
          Scan_errors.reset ();
          (cols, errs)
        in
        List.iter
          (fun policy ->
            let seq =
              run policy (fun ~policy ~file ->
                  Scan_csv.seq_scan ~mode:Scan_csv.Interpreted ~policy ~file
                    ~sep:',' ~schema ~needed:[ 0; 1; 2 ] ~tracked:[] ())
            in
            let par =
              run policy (fun ~policy ~file ->
                  Scan_csv.par_scan ~mode:Scan_csv.Jit ~policy ~parallelism:4
                    ~file ~sep:',' ~schema ~needed:[ 0; 1; 2 ] ~tracked:[] ())
            in
            let (cols_s, errs_s), (cols_p, errs_p) = (seq, par) in
            Alcotest.(check bool) "errors observed" true (errs_s.total > 0);
            Alcotest.check snapshot_testable "identical error snapshots"
              errs_s errs_p;
            Array.iteri
              (fun k c -> check_column "identical columns" c cols_p.(k))
              cols_s)
          [ Scan_errors.Skip_row; Scan_errors.Null_fill ]);
  ]

(* ------------------------------------------------------------------ *)
(* Posmap row identity across morsel boundaries                        *)
(* ------------------------------------------------------------------ *)

(* 400 fixed-ish-width rows, every 50th malformed: parallelism-4 morsel
   boundaries land inside runs containing skipped rows, so this exercises
   Posmap.concat over segments whose row counts differ from the raw line
   counts of their byte ranges. *)
let posmap_tests =
  [
    Alcotest.test_case "skip_row: par posmap == seq posmap, fetch agrees"
      `Quick (fun () ->
        let path = fresh_path ".csv" in
        let oc = open_out_bin path in
        for i = 0 to 399 do
          if i mod 50 = 0 then Printf.fprintf oc "%d,xx\n" i
          else Printf.fprintf oc "%d,%d\n" i (i * 7)
        done;
        close_out oc;
        let schema = Schema.of_pairs [ ("a", Dtype.Int); ("b", Dtype.Int) ] in
        let scan scanner =
          Scan_errors.reset ();
          let r = scanner () in
          Scan_errors.reset ();
          r
        in
        let file_s = Mmap_file.open_file path in
        let cols_s, pm_s =
          scan (fun () ->
              Scan_csv.seq_scan ~mode:Scan_csv.Interpreted
                ~policy:Scan_errors.Skip_row ~file:file_s ~sep:',' ~schema
                ~needed:[ 0; 1 ] ~tracked:[ 0; 1 ] ())
        in
        let file_p = Mmap_file.open_file path in
        let cols_p, pm_p =
          scan (fun () ->
              Scan_csv.par_scan ~mode:Scan_csv.Jit
                ~policy:Scan_errors.Skip_row ~parallelism:4 ~file:file_p
                ~sep:',' ~schema ~needed:[ 0; 1 ] ~tracked:[ 0; 1 ] ())
        in
        let survivors =
          List.filter (fun i -> i mod 50 <> 0) (List.init 400 Fun.id)
        in
        check_column "column a"
          (Column.of_int_array (Array.of_list survivors))
          cols_s.(0);
        check_column "column b"
          (Column.of_int_array
             (Array.of_list (List.map (fun i -> i * 7) survivors)))
          cols_s.(1);
        Array.iteri
          (fun k c -> check_column "par == seq column" c cols_p.(k))
          cols_s;
        let pm_s = Option.get pm_s and pm_p = Option.get pm_p in
        Alcotest.(check int) "posmap rows" (List.length survivors)
          (Posmap.n_rows pm_s);
        Alcotest.(check int) "par posmap rows" (Posmap.n_rows pm_s)
          (Posmap.n_rows pm_p);
        List.iter
          (fun col ->
            Alcotest.(check (array int)) "positions align"
              (Posmap.positions pm_s col)
              (Posmap.positions pm_p col))
          [ 0; 1 ];
        (* row identity end-to-end: fetching b through the stitched par
           posmap returns the same values the scan produced *)
        let rowids = [| 0; 1; 49; 50; 99; 195; 391 |] in
        let fetched =
          Scan_csv.fetch ~mode:Scan_csv.Jit ~file:file_p ~sep:',' ~schema
            ~posmap:pm_p ~cols:[ 1 ] ~rowids ()
        in
        check_column "fetch through posmap"
          (Column.of_int_array
             (Array.map (fun r -> (List.nth survivors r) * 7) rowids))
          fetched.(0));
    Alcotest.test_case "row_aligned_ranges partition the file" `Quick
      (fun () ->
        let path = fresh_path ".csv" in
        let oc = open_out_bin path in
        for i = 0 to 399 do
          Printf.fprintf oc "%d,%d\n" i (i * 7)
        done;
        close_out oc;
        let file = Mmap_file.open_file path in
        let ranges = Csv.row_aligned_ranges file ~n:4 in
        let rec check_contiguous at = function
          | [] -> Alcotest.(check int) "covers file" (Mmap_file.length file) at
          | (lo, hi) :: rest ->
            Alcotest.(check int) "contiguous" at lo;
            Alcotest.(check bool) "non-empty" true (hi > lo);
            check_contiguous hi rest
        in
        check_contiguous 0 ranges);
  ]

(* ------------------------------------------------------------------ *)
(* Byte-mutation properties                                            *)
(* ------------------------------------------------------------------ *)

let clean_csv ~n ~m =
  String.concat ""
    (List.init n (fun r ->
         String.concat ","
           (List.init m (fun c -> string_of_int ((r * 100) + c)))
         ^ "\n"))

(* Mutations never touch row structure: positions holding '\n'/'\r' are
   left alone and replacement bytes are printable ASCII, so the physical
   row count is invariant and the policies' row-count contracts are exact. *)
let prop_tests =
  let n = 30 and m = 3 in
  let clean = clean_csv ~n ~m in
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 12)
        (pair (int_bound (String.length clean - 1)) (int_range 33 126)))
  in
  let mutate muts =
    let b = Bytes.of_string clean in
    List.iter
      (fun (pos, c) ->
        match Bytes.get b pos with
        | '\n' | '\r' -> ()
        | _ -> Bytes.set b pos (Char.chr c))
      muts;
    Bytes.to_string b
  in
  let query_counts policy data =
    let path = fresh_path ".csv" in
    let oc = open_out_bin path in
    output_string oc data;
    close_out oc;
    let db =
      db_with ~policy (fun db ->
          Raw_db.register_csv db ~name:"t" ~path ~columns:(int_cols m) ())
    in
    let count = as_int (Raw_db.scalar db "SELECT COUNT(*) FROM t") in
    (* also drive a real scan + aggregate over the mutated bytes *)
    let (_ : Executor.report) = Raw_db.query db "SELECT SUM(col2) FROM t" in
    count
  in
  [
    qtest ~count:60 "mutations: skip_row never raises, never adds rows" gen
      (fun muts ->
        let rows = query_counts Scan_errors.Skip_row (mutate muts) in
        rows >= 0 && rows <= n);
    qtest ~count:60 "mutations: null_fill never raises, keeps physical rows"
      gen (fun muts ->
        query_counts Scan_errors.Null_fill (mutate muts) = n);
  ]

let suites =
  [
    ("faults:corpus", corpus_tests);
    ("faults:overflow", overflow_tests);
    ("faults:injection", injection_tests);
    ("faults:posmap", posmap_tests);
    ("faults:props", prop_tests);
  ]
