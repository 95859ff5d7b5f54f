open Raw_vector
open Raw_core
open Test_util

(* ---------------- Table_stats ---------------- *)

let stats_tests =
  [
    Alcotest.test_case "observe records min/max/counts" `Quick (fun () ->
        let t = Table_stats.create () in
        Table_stats.observe t ~table:"t" ~col:0
          (Column.of_int_array [| 5; 1; 9 |]);
        (match Table_stats.get t ~table:"t" ~col:0 with
         | Some s ->
           Alcotest.(check (float 0.)) "min" 1. s.min_v;
           Alcotest.(check (float 0.)) "max" 9. s.max_v;
           Alcotest.(check int) "rows" 3 s.n_rows;
           Alcotest.(check int) "valid" 3 s.n_valid
         | None -> Alcotest.fail "no stats"));
    Alcotest.test_case "nulls excluded" `Quick (fun () ->
        let t = Table_stats.create () in
        let c = Column.invalidate_all (Column.of_float_array [| 0.; 0.; 0. |]) in
        Column.set c 1 (Float 4.5);
        Table_stats.observe t ~table:"t" ~col:1 c;
        (match Table_stats.get t ~table:"t" ~col:1 with
         | Some s ->
           Alcotest.(check (float 0.)) "min=max" 4.5 s.min_v;
           Alcotest.(check int) "one valid" 1 s.n_valid
         | None -> Alcotest.fail "no stats"));
    Alcotest.test_case "non-numeric columns ignored" `Quick (fun () ->
        let t = Table_stats.create () in
        Table_stats.observe t ~table:"t" ~col:2
          (Column.of_string_array [| "a" |]);
        Alcotest.(check bool) "ignored" true
          (Table_stats.get t ~table:"t" ~col:2 = None));
    Alcotest.test_case "selectivity under uniformity" `Quick (fun () ->
        let s = { Table_stats.min_v = 0.; max_v = 100.; n_rows = 10; n_valid = 10 } in
        Alcotest.(check (float 1e-9)) "lt mid" 0.5
          (Table_stats.selectivity s Kernels.Lt 50.);
        Alcotest.(check (float 1e-9)) "lt below range" 0.
          (Table_stats.selectivity s Kernels.Lt (-10.));
        Alcotest.(check (float 1e-9)) "lt above range" 1.
          (Table_stats.selectivity s Kernels.Lt 200.);
        Alcotest.(check (float 1e-9)) "ge complement" 0.75
          (Table_stats.selectivity s Kernels.Ge 25.));
    Alcotest.test_case "constant column selectivity" `Quick (fun () ->
        let s = { Table_stats.min_v = 7.; max_v = 7.; n_rows = 3; n_valid = 3 } in
        Alcotest.(check (float 0.)) "eq hit" 1. (Table_stats.selectivity s Kernels.Eq 7.);
        Alcotest.(check (float 0.)) "eq miss" 0. (Table_stats.selectivity s Kernels.Eq 8.);
        Alcotest.(check (float 0.)) "lt" 1. (Table_stats.selectivity s Kernels.Lt 8.));
  ]

(* ---------------- Cost_model ---------------- *)

let cost_tests =
  [
    Alcotest.test_case "shreds win at low selectivity, full at high" `Quick
      (fun () ->
        let costs sel =
          Cost_model.selection_costs ~n_rows:100_000 ~n_filter_cols:1
            ~n_post_cols:1 ~selectivity:sel ~textual:true
        in
        Alcotest.(check bool) "low sel -> shreds" true
          (Cost_model.choose (costs 0.05) = Cost_model.Shreds);
        Alcotest.(check bool) "full never beaten by much at 100%" true
          (let c = costs 1.0 in
           c.full <= c.shreds));
    Alcotest.test_case "multi-shreds win with many post columns" `Quick (fun () ->
        let c =
          Cost_model.selection_costs ~n_rows:100_000 ~n_filter_cols:1
            ~n_post_cols:6 ~selectivity:0.3 ~textual:true
        in
        Alcotest.(check bool) "multi cheapest" true
          (Cost_model.choose c = Cost_model.Multi_shreds || Cost_model.choose c = Cost_model.Shreds);
        Alcotest.(check bool) "multi <= shreds" true (c.multi_shreds <= c.shreds));
    Alcotest.test_case "selectivity estimation from stats" `Quick (fun () ->
        let stats = Table_stats.create () in
        Table_stats.observe stats ~table:"t" ~col:3
          (Column.of_int_array (Array.init 101 (fun i -> i)));
        let open Raw_engine in
        let sel =
          Cost_model.estimate_selectivity stats ~table:"t" ~columns:[ 3 ]
            [ Expr.(col 0 < int 25) ]
        in
        Alcotest.(check (float 0.01)) "~25%" 0.25 sel;
        (* flipped constant side *)
        let sel2 =
          Cost_model.estimate_selectivity stats ~table:"t" ~columns:[ 3 ]
            [ Expr.(int 25 > col 0) ]
        in
        Alcotest.(check (float 0.01)) "flip" 0.25 sel2;
        (* no stats: default 0.5; two unknown conjuncts multiply *)
        let sel3 =
          Cost_model.estimate_selectivity stats ~table:"t" ~columns:[ 9 ]
            [ Expr.(col 0 < int 25); Expr.(col 0 > int 5) ]
        in
        Alcotest.(check (float 1e-9)) "defaults multiply" 0.25 sel3);
  ]

(* ---------------- Adaptive strategy end-to-end ---------------- *)

let adaptive_opts = { Planner.default with shreds = Planner.Adaptive }

let adaptive_tests =
  [
    Alcotest.test_case "adaptive picks shreds at low selectivity" `Quick
      (fun () ->
        let db = grid_csv_db ~n:200 ~m:8 () in
        Raw_db.set_options db adaptive_opts;
        (* first query: builds stats for col0 (values 0..19900) *)
        ignore (Raw_db.query db "SELECT MAX(col0) FROM t");
        Raw_storage.Io_stats.reset "planner.adaptive_chose_shreds";
        Raw_storage.Io_stats.reset "planner.adaptive_chose_full";
        ignore (Raw_db.query db "SELECT MAX(col3) FROM t WHERE col0 < 1000");
        Alcotest.(check int) "chose shreds" 1
          (Raw_storage.Io_stats.get "planner.adaptive_chose_shreds"));
    Alcotest.test_case "adaptive avoids shreds at ~100% selectivity" `Quick
      (fun () ->
        let db = grid_csv_db ~n:200 ~m:8 () in
        Raw_db.set_options db adaptive_opts;
        ignore (Raw_db.query db "SELECT MAX(col0) FROM t");
        Raw_storage.Io_stats.reset "planner.adaptive_chose_full";
        ignore (Raw_db.query db "SELECT MAX(col3) FROM t WHERE col0 < 99999999");
        Alcotest.(check int) "chose full" 1
          (Raw_storage.Io_stats.get "planner.adaptive_chose_full"));
    Alcotest.test_case "adaptive answers match fixed strategies" `Quick (fun () ->
        let q = "SELECT MAX(col5) FROM t WHERE col0 < 7000 AND col2 < 15000" in
        let run shreds =
          let db = grid_csv_db ~n:150 ~m:8 () in
          Raw_db.set_options db { Planner.default with shreds };
          ignore (Raw_db.query db "SELECT MAX(col0) FROM t");
          Raw_db.scalar db q
        in
        let want = run Planner.Full_columns in
        check_value "adaptive" want (run Planner.Adaptive);
        check_value "shreds" want (run Planner.Shreds);
        check_value "multi" want (run Planner.Multi_shreds));
    Alcotest.test_case "stats accumulate from scans and reset" `Quick (fun () ->
        let db = grid_csv_db ~n:50 ~m:4 () in
        ignore (Raw_db.query db "SELECT MAX(col1) FROM t");
        let stats = Catalog.stats (Raw_db.catalog db) in
        (match Table_stats.get stats ~table:"t" ~col:1 with
         | Some s ->
           Alcotest.(check (float 0.)) "max" 4901. s.max_v;
           Alcotest.(check (float 0.)) "min" 1. s.min_v
         | None -> Alcotest.fail "no stats after scan");
        Raw_db.forget_adaptive_state db;
        Alcotest.(check int) "cleared" 0 (Table_stats.size stats));
  ]

let suites =
  [
    ("cost.stats", stats_tests);
    ("cost.model", cost_tests);
    ("cost.adaptive", adaptive_tests);
  ]
