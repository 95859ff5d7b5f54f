open Raw_vector
open Raw_core
open Test_util

(* ---------------- Catalog ---------------- *)

let catalog_tests =
  [
    Alcotest.test_case "register and lookup" `Quick (fun () ->
        let cat = Catalog.create () in
        let path = write_csv_rows (grid_rows 3 2) in
        Catalog.register cat ~name:"t" ~path ~format:(Format_kind.Csv { sep = ',' })
          ~schema:(Schema.of_pairs (int_cols 2));
        Alcotest.(check bool) "mem" true (Catalog.mem cat "t");
        Alcotest.(check (list string)) "tables" [ "t" ] (Catalog.tables cat);
        let e = Catalog.get cat "t" in
        Alcotest.(check int) "n_rows" 3 (Catalog.n_rows cat e));
    Alcotest.test_case "duplicate name rejected" `Quick (fun () ->
        let cat = Catalog.create () in
        let path = write_csv_rows [ [ 1 ] ] in
        let reg () =
          Catalog.register cat ~name:"t" ~path
            ~format:(Format_kind.Csv { sep = ',' })
            ~schema:(Schema.of_pairs (int_cols 1))
        in
        reg ();
        Alcotest.check_raises "dup" (Invalid_argument "Catalog.register: duplicate table t")
          reg);
    Alcotest.test_case "fwb with string column rejected" `Quick (fun () ->
        let cat = Catalog.create () in
        Alcotest.check_raises "string"
          (Invalid_argument "Catalog.register: FWB tables cannot have String columns")
          (fun () ->
            Catalog.register cat ~name:"b" ~path:"/nonexistent"
              ~format:Format_kind.Fwb
              ~schema:(Schema.of_pairs [ ("s", Dtype.String) ])));
    Alcotest.test_case "fwb n_rows from layout" `Quick (fun () ->
        let cat = Catalog.create () in
        let path = fresh_path ".fwb" in
        Raw_formats.Fwb.generate ~path ~n_rows:17 ~dtypes:[| Dtype.Int; Dtype.Float |]
          ~seed:1 ();
        Catalog.register cat ~name:"b" ~path ~format:Format_kind.Fwb
          ~schema:(Schema.of_pairs [ ("a", Dtype.Int); ("x", Dtype.Float) ]);
        Alcotest.(check int) "rows" 17 (Catalog.n_rows cat (Catalog.get cat "b")));
    Alcotest.test_case "register_hep creates four tables" `Quick (fun () ->
        let cat = Catalog.create () in
        let path = fresh_path ".hep" in
        Raw_formats.Hep.generate ~path ~n_events:20 ~seed:2 ();
        Catalog.register_hep cat ~name_prefix:"atlas" ~path;
        Alcotest.(check (list string)) "tables"
          [ "atlas_electrons"; "atlas_events"; "atlas_jets"; "atlas_muons" ]
          (Catalog.tables cat);
        let ev = Catalog.get cat "atlas_events" in
        Alcotest.(check int) "events" 20 (Catalog.n_rows cat ev);
        Alcotest.(check int) "event schema arity" 2 (Schema.arity ev.schema);
        let mu = Catalog.get cat "atlas_muons" in
        let n_mu = Catalog.n_rows cat mu in
        let entry_of, item_of = Catalog.hep_index cat mu in
        Alcotest.(check int) "index length" n_mu (Array.length entry_of);
        Alcotest.(check int) "items too" n_mu (Array.length item_of);
        (* dense ids are (entry, item) in lexicographic order *)
        let ok = ref true in
        for i = 1 to n_mu - 1 do
          if
            not
              (entry_of.(i) > entry_of.(i - 1)
              || (entry_of.(i) = entry_of.(i - 1) && item_of.(i) = item_of.(i - 1) + 1))
          then ok := false
        done;
        Alcotest.(check bool) "index ordered" true !ok);
    Alcotest.test_case "hep tables reject user schema" `Quick (fun () ->
        let cat = Catalog.create () in
        Alcotest.check_raises "schema"
          (Invalid_argument "Catalog.register: HEP schemas are fixed; use register_hep")
          (fun () ->
            Catalog.register cat ~name:"h" ~path:"/x" ~format:Format_kind.Hep_events
              ~schema:(Schema.of_pairs [ ("a", Dtype.Int) ])));
    Alcotest.test_case "forget_adaptive_state clears caches" `Quick (fun () ->
        let db = grid_csv_db () in
        ignore (Raw_db.query db "SELECT MAX(col1) FROM t WHERE col0 < 1000");
        let cat = Raw_db.catalog db in
        Alcotest.(check bool) "posmap built" true
          ((Catalog.get cat "t").state.posmap <> None);
        Alcotest.(check bool) "pool populated" true (Shred_pool.size (Catalog.shreds cat) > 0);
        Catalog.forget_adaptive_state cat;
        Alcotest.(check bool) "posmap gone" true ((Catalog.get cat "t").state.posmap = None);
        Alcotest.(check int) "pool empty" 0 (Shred_pool.size (Catalog.shreds cat));
        Alcotest.(check int) "templates empty" 0
          (Template_cache.size (Catalog.templates cat)));
  ]

(* ---------------- Template cache ---------------- *)

let template_tests =
  [
    Alcotest.test_case "first get compiles, second hits" `Quick (fun () ->
        let tc = Template_cache.create ~compile_seconds:2.0 in
        let calls = ref 0 in
        let v1 = Template_cache.get tc ~kind:"test.int" ~key:"k" (fun () -> incr calls; 42) in
        let v2 = Template_cache.get tc ~kind:"test.int" ~key:"k" (fun () -> incr calls; 43) in
        Alcotest.(check int) "compiled once" 1 !calls;
        Alcotest.(check int) "same artifact" 42 v1;
        Alcotest.(check int) "cached" 42 v2;
        Alcotest.(check int) "hits" 1 (Template_cache.hits tc);
        Alcotest.(check int) "misses" 1 (Template_cache.misses tc));
    Alcotest.test_case "charges simulated seconds per miss" `Quick (fun () ->
        let tc = Template_cache.create ~compile_seconds:0.5 in
        ignore (Template_cache.get tc ~kind:"test.unit" ~key:"a" (fun () -> ()));
        ignore (Template_cache.get tc ~kind:"test.unit" ~key:"b" (fun () -> ()));
        ignore (Template_cache.get tc ~kind:"test.unit" ~key:"a" (fun () -> ()));
        Alcotest.(check (float 1e-9)) "total" 1.0 (Template_cache.charged_seconds tc);
        Alcotest.(check (float 1e-9)) "pending" 1.0 (Template_cache.take_charged_seconds tc);
        Alcotest.(check (float 1e-9)) "drained" 0.0 (Template_cache.take_charged_seconds tc));
    Alcotest.test_case "clear resets" `Quick (fun () ->
        let tc = Template_cache.create ~compile_seconds:1.0 in
        ignore (Template_cache.get tc ~kind:"test.unit" ~key:"a" (fun () -> ()));
        Template_cache.clear tc;
        Alcotest.(check int) "size" 0 (Template_cache.size tc);
        ignore (Template_cache.get tc ~kind:"test.unit" ~key:"a" (fun () -> ()));
        Alcotest.(check int) "recompiles (counters were reset)" 1
          (Template_cache.misses tc));
    Alcotest.test_case "same key, different kinds coexist" `Quick (fun () ->
        (* the slot is (kind, key): two kernels of different artifact types
           must never alias each other's cached Obj.t *)
        let tc = Template_cache.create ~compile_seconds:1.0 in
        let vi = Template_cache.get tc ~kind:"test.int" ~key:"k" (fun () -> 7) in
        let vs = Template_cache.get tc ~kind:"test.str" ~key:"k" (fun () -> "seven") in
        Alcotest.(check int) "int artifact" 7 vi;
        Alcotest.(check string) "string artifact" "seven" vs;
        Alcotest.(check int) "two slots" 2 (Template_cache.size tc);
        Alcotest.(check int) "both compiled" 2 (Template_cache.misses tc);
        (* re-gets hit their own slot and return the right type *)
        let vi' = Template_cache.get tc ~kind:"test.int" ~key:"k" (fun () -> 0) in
        let vs' = Template_cache.get tc ~kind:"test.str" ~key:"k" (fun () -> "") in
        Alcotest.(check int) "int cached" 7 vi';
        Alcotest.(check string) "string cached" "seven" vs';
        Alcotest.(check int) "hits" 2 (Template_cache.hits tc));
  ]

(* ---------------- Shred pool ---------------- *)

let pool_tests =
  [
    Alcotest.test_case "ensure creates uncovered column" `Quick (fun () ->
        let p = Shred_pool.create ~capacity:4 in
        let key = { Shred_pool.table = "t"; column = 1 } in
        let s = Shred_pool.ensure p key ~n_rows:5 ~dtype:Dtype.Int in
        Alcotest.(check int) "length" 5 (Column.length (Shred_pool.column s));
        Alcotest.(check (array int)) "nothing covered" [| 0; 1; 2; 3; 4 |]
          (Shred_pool.missing s [| 0; 1; 2; 3; 4 |]);
        Alcotest.(check bool) "same instance back" true
          (Shred_pool.ensure p key ~n_rows:5 ~dtype:Dtype.Int == s));
    Alcotest.test_case "subsumes and missing" `Quick (fun () ->
        let p = Shred_pool.create ~capacity:4 in
        let key = { Shred_pool.table = "t"; column = 0 } in
        let s = Shred_pool.ensure p key ~n_rows:6 ~dtype:Dtype.Float in
        Shred_pool.fill s [| 1; 3 |] (Column.of_float_array [| 1.0; 3.0 |]);
        Alcotest.(check bool) "subsumed" true (Shred_pool.subsumes s [| 1; 3 |]);
        Alcotest.(check bool) "not subsumed" false (Shred_pool.subsumes s [| 1; 2 |]);
        Alcotest.(check (array int)) "missing" [| 2; 5 |]
          (Shred_pool.missing s [| 1; 2; 3; 5 |]));
    Alcotest.test_case "fetched NULLs stay covered" `Quick (fun () ->
        let p = Shred_pool.create ~capacity:4 in
        let key = { Shred_pool.table = "t"; column = 0 } in
        let s = Shred_pool.ensure p key ~n_rows:4 ~dtype:Dtype.Int in
        Shred_pool.fill s [| 0; 2 |] (Column.of_values Dtype.Int [ Null; Int 7 ]);
        Alcotest.(check bool) "NULL row covered" true (Shred_pool.subsumes s [| 0; 2 |]);
        Alcotest.(check (array int)) "missing" [| 1; 3 |]
          (Shred_pool.missing s [| 0; 1; 2; 3 |]);
        check_value "NULL kept" Null (Column.get (Shred_pool.column s) 0);
        check_value "value kept" (Int 7) (Column.get (Shred_pool.column s) 2));
    Alcotest.test_case "progressive fill converges" `Quick (fun () ->
        let p = Shred_pool.create ~capacity:4 in
        let key = { Shred_pool.table = "t"; column = 0 } in
        let s = Shred_pool.ensure p key ~n_rows:4 ~dtype:Dtype.Int in
        Shred_pool.fill s [| 0; 1 |] (Column.of_int_array [| 10; 11 |]);
        Shred_pool.fill s [| 2; 3 |] (Column.of_int_array [| 12; 13 |]);
        Alcotest.(check (array int)) "fully loaded" [||]
          (Shred_pool.missing s [| 0; 1; 2; 3 |]);
        check_value "kept earlier fill" (Int 10) (Column.get (Shred_pool.column s) 0));
    Alcotest.test_case "grow keeps old rows and covers no new one" `Quick
      (fun () ->
        let p = Shred_pool.create ~capacity:4 in
        let key = { Shred_pool.table = "t"; column = 0 } in
        Shred_pool.put p key (Column.of_int_array [| 1; 2; 3 |]);
        let s = Option.get (Shred_pool.find p key) in
        Shred_pool.grow s ~n_rows:12;
        Alcotest.(check (array int)) "only new rows missing"
          [| 3; 4; 5; 6; 7; 8; 9; 10; 11 |]
          (Shred_pool.missing s (Array.init 12 Fun.id));
        check_value "old value" (Int 3) (Column.get (Shred_pool.column s) 2);
        Shred_pool.fill s [| 9 |] (Column.of_values Dtype.Int [ Null ]);
        Shred_pool.grow s ~n_rows:20;
        Alcotest.(check (array int)) "partial grows too" [| 8; 10; 19 |]
          (Shred_pool.missing s [| 2; 8; 9; 10; 19 |]);
        check_value "fetched NULL kept" Null (Column.get (Shred_pool.column s) 9));
    Alcotest.test_case "LRU eviction at capacity" `Quick (fun () ->
        let p = Shred_pool.create ~capacity:2 in
        let k i = { Shred_pool.table = "t"; column = i } in
        ignore (Shred_pool.ensure p (k 0) ~n_rows:1 ~dtype:Dtype.Int);
        ignore (Shred_pool.ensure p (k 1) ~n_rows:1 ~dtype:Dtype.Int);
        ignore (Shred_pool.find p (k 0));
        ignore (Shred_pool.ensure p (k 2) ~n_rows:1 ~dtype:Dtype.Int);
        Alcotest.(check int) "size bounded" 2 (Shred_pool.size p);
        Alcotest.(check bool) "LRU victim gone" true (Shred_pool.find p (k 1) = None);
        Alcotest.(check bool) "recent kept" true (Shred_pool.find p (k 0) <> None));
    Alcotest.test_case "hit/miss accounting" `Quick (fun () ->
        let p = Shred_pool.create ~capacity:2 in
        Shred_pool.record_hit p;
        Shred_pool.record_miss p;
        Shred_pool.record_miss p;
        Alcotest.(check int) "hits" 1 (Shred_pool.hits p);
        Alcotest.(check int) "misses" 2 (Shred_pool.misses p);
        Shred_pool.clear p;
        Alcotest.(check int) "cleared" 0 (Shred_pool.hits p));
    Alcotest.test_case "put replaces" `Quick (fun () ->
        let p = Shred_pool.create ~capacity:2 in
        let key = { Shred_pool.table = "t"; column = 0 } in
        Shred_pool.put p key (Column.of_int_array [| 1; 2 |]);
        (match Shred_pool.find p key with
         | Some s ->
           Alcotest.(check bool) "full column" true (Shred_pool.subsumes s [| 0; 1 |])
         | None -> Alcotest.fail "missing");
        Shred_pool.remove p key;
        Alcotest.(check bool) "removed" true (Shred_pool.find p key = None));
  ]

(* ---------------- Logical ---------------- *)

let logical_tests =
  [
    Alcotest.test_case "scan schema projects and renumbers" `Quick (fun () ->
        let db = grid_csv_db ~m:4 () in
        let s =
          Logical.output_schema (Raw_db.catalog db)
            (Logical.Scan { table = "t"; columns = [ 2; 0 ] })
        in
        Alcotest.(check string) "first" "col2" (Schema.name s 0);
        Alcotest.(check string) "second" "col0" (Schema.name s 1));
    Alcotest.test_case "join schema uniquifies collisions" `Quick (fun () ->
        let db = grid_csv_db () in
        let scan = Logical.Scan { table = "t"; columns = [ 0; 1 ] } in
        let s =
          Logical.output_schema (Raw_db.catalog db)
            (Logical.Join { left = scan; right = scan; left_key = 0; right_key = 0 })
        in
        Alcotest.(check string) "left name" "col0" (Schema.name s 0);
        Alcotest.(check string) "right renamed" "col0#2" (Schema.name s 2));
    Alcotest.test_case "aggregate schema types" `Quick (fun () ->
        let db = grid_csv_db () in
        let plan =
          Logical.Aggregate
            {
              keys = [ 0 ];
              aggs =
                [
                  { Logical.op = Raw_vector.Kernels.Avg; expr = Raw_engine.Expr.col 1; name = "a" };
                  { Logical.op = Raw_vector.Kernels.Count; expr = Raw_engine.Expr.col 1; name = "c" };
                  { Logical.op = Raw_vector.Kernels.Max; expr = Raw_engine.Expr.col 1; name = "m" };
                ];
              input = Logical.Scan { table = "t"; columns = [ 0; 1 ] };
            }
        in
        let s = Logical.output_schema (Raw_db.catalog db) plan in
        Alcotest.(check bool) "avg is float" true (Dtype.equal (Schema.dtype s 1) Dtype.Float);
        Alcotest.(check bool) "count is int" true (Dtype.equal (Schema.dtype s 2) Dtype.Int);
        Alcotest.(check bool) "max keeps int" true (Dtype.equal (Schema.dtype s 3) Dtype.Int));
    Alcotest.test_case "tables collects scans" `Quick (fun () ->
        let scan t = Logical.Scan { table = t; columns = [ 0 ] } in
        let plan =
          Logical.Join
            { left = Logical.Filter (Raw_engine.Expr.bool true, scan "a");
              right = scan "b"; left_key = 0; right_key = 0 }
        in
        Alcotest.(check (list string)) "both" [ "a"; "b" ] (Logical.tables plan));
  ]

let suites =
  [
    ("core.catalog", catalog_tests);
    ("core.template_cache", template_tests);
    ("core.shred_pool", pool_tests);
    ("core.logical", logical_tests);
  ]
