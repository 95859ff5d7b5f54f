open Raw_vector
open Raw_engine
open Test_util

let chunk_ab =
  Chunk.of_columns
    [
      Column.of_int_array [| 1; 2; 3; 4; 5 |];
      Column.of_float_array [| 0.5; 1.5; 2.5; 3.5; 4.5 |];
    ]

(* ---------------- Expr ---------------- *)

let expr_tests =
  [
    Alcotest.test_case "eval columns and constants" `Quick (fun () ->
        check_column "col" (Chunk.column chunk_ab 0) (Expr.eval (Expr.col 0) chunk_ab);
        check_column "const" (Column.const Dtype.Int (Int 7) 5)
          (Expr.eval (Expr.int 7) chunk_ab));
    Alcotest.test_case "eval arithmetic" `Quick (fun () ->
        let e = Expr.(col 0 + int 10) in
        check_column "added" (Column.of_int_array [| 11; 12; 13; 14; 15 |])
          (Expr.eval e chunk_ab);
        let e = Expr.(col 0 * col 1) in
        check_column "promoted"
          (Column.of_float_array [| 0.5; 3.; 7.5; 14.; 22.5 |])
          (Expr.eval e chunk_ab));
    Alcotest.test_case "eval_filter comparison kernels" `Quick (fun () ->
        let s = Expr.eval_filter Expr.(col 0 < int 3) chunk_ab None in
        Alcotest.(check (array int)) "lt" [| 0; 1 |] (Sel.to_array s);
        let s = Expr.eval_filter Expr.(int 3 <= col 0) chunk_ab None in
        Alcotest.(check (array int)) "flipped const side" [| 2; 3; 4 |]
          (Sel.to_array s));
    Alcotest.test_case "eval_filter col vs col" `Quick (fun () ->
        let c =
          Chunk.of_columns
            [ Column.of_int_array [| 1; 5 |]; Column.of_int_array [| 3; 3 |] ]
        in
        let s = Expr.eval_filter Expr.(col 0 < col 1) c None in
        Alcotest.(check (array int)) "lt" [| 0 |] (Sel.to_array s));
    Alcotest.test_case "eval_filter AND chains selections" `Quick (fun () ->
        let e = Expr.(col 0 > int 1 && col 0 < int 5) in
        let s = Expr.eval_filter e chunk_ab None in
        Alcotest.(check (array int)) "conj" [| 1; 2; 3 |] (Sel.to_array s));
    Alcotest.test_case "eval_filter OR merges sorted" `Quick (fun () ->
        let e = Expr.(col 0 < int 2 || col 0 > int 4) in
        let s = Expr.eval_filter e chunk_ab None in
        Alcotest.(check (array int)) "disj" [| 0; 4 |] (Sel.to_array s);
        (* overlap dedup *)
        let e = Expr.(col 0 < int 3 || col 0 < int 4) in
        let s = Expr.eval_filter e chunk_ab None in
        Alcotest.(check (array int)) "dedup" [| 0; 1; 2 |] (Sel.to_array s));
    Alcotest.test_case "eval_filter NOT complements candidates" `Quick (fun () ->
        let e = Expr.(not_ (col 0 < int 3)) in
        let s = Expr.eval_filter e chunk_ab None in
        Alcotest.(check (array int)) "not" [| 2; 3; 4 |] (Sel.to_array s);
        let sel = Some (Sel.of_array [| 0; 2 |]) in
        let s = Expr.eval_filter e chunk_ab sel in
        Alcotest.(check (array int)) "not within sel" [| 2 |] (Sel.to_array s));
    Alcotest.test_case "eval_filter boolean constants" `Quick (fun () ->
        Alcotest.(check int) "true = all" 5
          (Sel.length (Expr.eval_filter (Expr.bool true) chunk_ab None));
        Alcotest.(check int) "false = none" 0
          (Sel.length (Expr.eval_filter (Expr.bool false) chunk_ab None)));
    Alcotest.test_case "columns_used and remap" `Quick (fun () ->
        let e = Expr.(col 3 < col 1 && col 3 + col 7 > int 0) in
        Alcotest.(check (list int)) "used" [ 1; 3; 7 ] (Expr.columns_used e);
        let r = Expr.remap (fun i -> i * 10) e in
        Alcotest.(check (list int)) "remapped" [ 10; 30; 70 ] (Expr.columns_used r));
    Alcotest.test_case "infer types" `Quick (fun () ->
        let ty = function 0 -> Dtype.Int | _ -> Dtype.Float in
        Alcotest.(check bool) "int" true (Expr.infer ty Expr.(col 0 + int 1) = Dtype.Int);
        Alcotest.(check bool) "promote" true
          (Expr.infer ty Expr.(col 0 + col 1) = Dtype.Float);
        Alcotest.(check bool) "cmp is bool" true
          (Expr.infer ty Expr.(col 0 < col 1) = Dtype.Bool));
    Alcotest.test_case "eval_filter equals mask-based eval" `Quick (fun () ->
        (* generic fallback vs kernel path must agree *)
        let e = Expr.(col 0 >= int 2 && col 1 < float 4.0) in
        let fast = Expr.eval_filter e chunk_ab None in
        let mask = Column.bool_array (Expr.eval e chunk_ab) in
        Alcotest.(check (array int)) "agree" (Sel.to_array (Sel.of_bool_mask mask))
          (Sel.to_array fast));
  ]

(* ---------------- Operators ---------------- *)

let to_rows op = rows_of_chunk (Operator.to_chunk op)

let int_chunk a = Chunk.of_columns [ Column.of_int_array a ]

let op_tests =
  [
    Alcotest.test_case "of_chunks streams in order" `Quick (fun () ->
        let op = Operator.of_chunks [ int_chunk [| 1 |]; int_chunk [| 2 |] ] in
        let c = Operator.to_chunk op in
        check_chunk "concat" (int_chunk [| 1; 2 |]) c);
    Alcotest.test_case "filter materializes survivors" `Quick (fun () ->
        let op =
          Operator.filter Expr.(col 0 > int 2) (Operator.of_chunks [ chunk_ab ])
        in
        let c = Operator.to_chunk op in
        Alcotest.(check int) "rows" 3 (Chunk.n_rows c);
        check_column "col0" (Column.of_int_array [| 3; 4; 5 |]) (Chunk.column c 0));
    Alcotest.test_case "filter drops fully-empty chunks" `Quick (fun () ->
        let op =
          Operator.filter (Expr.bool false) (Operator.of_chunks [ chunk_ab; chunk_ab ])
        in
        Alcotest.(check int) "no rows" 0 (Operator.row_count op));
    Alcotest.test_case "project evaluates expressions" `Quick (fun () ->
        let op =
          Operator.project [ Expr.(col 0 * int 2) ] (Operator.of_chunks [ chunk_ab ])
        in
        check_chunk "doubled" (int_chunk [| 2; 4; 6; 8; 10 |]) (Operator.to_chunk op));
    Alcotest.test_case "limit spans chunk boundary" `Quick (fun () ->
        let op =
          Operator.limit 3 (Operator.of_chunks [ int_chunk [| 1; 2 |]; int_chunk [| 3; 4 |] ])
        in
        check_chunk "limited" (int_chunk [| 1; 2; 3 |]) (Operator.to_chunk op));
    Alcotest.test_case "limit zero" `Quick (fun () ->
        let op = Operator.limit 0 (Operator.of_chunks [ chunk_ab ]) in
        Alcotest.(check int) "none" 0 (Operator.row_count op));
    Alcotest.test_case "scalar aggregate across chunks" `Quick (fun () ->
        let op =
          Operator.aggregate
            [ (Kernels.Max, Expr.col 0); (Kernels.Sum, Expr.col 0);
              (Kernels.Count, Expr.col 0) ]
            (Operator.of_chunks [ int_chunk [| 1; 5 |]; int_chunk [| 3 |] ])
        in
        let c = Operator.to_chunk op in
        Alcotest.(check bool) "row" true
          (Chunk.row c 0 = [ Value.Int 5; Value.Int 9; Value.Int 3 ]));
    Alcotest.test_case "scalar aggregate over empty input" `Quick (fun () ->
        let op =
          Operator.aggregate
            [ (Kernels.Max, Expr.col 0); (Kernels.Count, Expr.col 0) ]
            Operator.empty
        in
        let c = Operator.to_chunk op in
        Alcotest.(check bool) "null max, zero count" true
          (Chunk.row c 0 = [ Value.Null; Value.Int 0 ]));
    Alcotest.test_case "avg across chunks" `Quick (fun () ->
        let op =
          Operator.aggregate
            [ (Kernels.Avg, Expr.col 0) ]
            (Operator.of_chunks [ int_chunk [| 1; 2 |]; int_chunk [| 9 |] ])
        in
        check_value "avg" (Float 4.) (Column.get (Chunk.column (Operator.to_chunk op) 0) 0));
    Alcotest.test_case "group_by computes per-key aggregates" `Quick (fun () ->
        let keys = Column.of_int_array [| 1; 2; 1; 2; 1 |] in
        let vals = Column.of_int_array [| 10; 20; 30; 40; 50 |] in
        let op =
          Operator.group_by ~keys:[ Expr.col 0 ]
            ~aggs:[ (Kernels.Sum, Expr.col 1); (Kernels.Count, Expr.col 1) ]
            (Operator.of_chunks [ Chunk.of_columns [ keys; vals ] ])
        in
        let rows = to_rows op in
        Alcotest.(check bool) "groups" true
          (rows
          = [ [ Value.Int 1; Value.Int 90; Value.Int 3 ];
              [ Value.Int 2; Value.Int 60; Value.Int 2 ] ]));
    Alcotest.test_case "group_by across chunk boundary" `Quick (fun () ->
        let c1 = Chunk.of_columns [ Column.of_int_array [| 1 |]; Column.of_int_array [| 5 |] ] in
        let c2 = Chunk.of_columns [ Column.of_int_array [| 1 |]; Column.of_int_array [| 7 |] ] in
        let op =
          Operator.group_by ~keys:[ Expr.col 0 ]
            ~aggs:[ (Kernels.Max, Expr.col 1) ]
            (Operator.of_chunks [ c1; c2 ])
        in
        Alcotest.(check bool) "merged group" true
          (to_rows op = [ [ Value.Int 1; Value.Int 7 ] ]));
    Alcotest.test_case "group_by empty input yields no groups" `Quick (fun () ->
        let op =
          Operator.group_by ~keys:[ Expr.col 0 ] ~aggs:[ (Kernels.Count, Expr.col 0) ]
            Operator.empty
        in
        Alcotest.(check int) "none" 0 (Operator.row_count op));
    Alcotest.test_case "hash_join inner matches" `Quick (fun () ->
        let probe =
          Chunk.of_columns
            [ Column.of_int_array [| 1; 2; 3 |]; Column.of_string_array [| "a"; "b"; "c" |] ]
        in
        let build =
          Chunk.of_columns
            [ Column.of_int_array [| 2; 3; 9 |]; Column.of_float_array [| 0.2; 0.3; 0.9 |] ]
        in
        let op =
          Operator.hash_join
            ~build:(Operator.of_chunks [ build ])
            ~probe:(Operator.of_chunks [ probe ])
            ~build_key:(Expr.col 0) ~probe_key:(Expr.col 0)
        in
        let rows = to_rows op in
        Alcotest.(check bool) "two matches" true
          (rows
          = [ [ Value.Int 2; Value.String "b"; Value.Int 2; Value.Float 0.2 ];
              [ Value.Int 3; Value.String "c"; Value.Int 3; Value.Float 0.3 ] ]));
    Alcotest.test_case "hash_join duplicates multiply" `Quick (fun () ->
        let probe = int_chunk [| 1; 1 |] in
        let build = int_chunk [| 1; 1; 1 |] in
        let op =
          Operator.hash_join
            ~build:(Operator.of_chunks [ build ])
            ~probe:(Operator.of_chunks [ probe ])
            ~build_key:(Expr.col 0) ~probe_key:(Expr.col 0)
        in
        Alcotest.(check int) "2*3" 6 (Operator.row_count op));
    Alcotest.test_case "hash_join preserves probe order" `Quick (fun () ->
        let probe = int_chunk [| 5; 3; 5; 1 |] in
        let build = int_chunk [| 1; 3; 5 |] in
        let op =
          Operator.hash_join
            ~build:(Operator.of_chunks [ build ])
            ~probe:(Operator.of_chunks [ probe ])
            ~build_key:(Expr.col 0) ~probe_key:(Expr.col 0)
        in
        let c = Operator.to_chunk op in
        check_column "probe side order" (Column.of_int_array [| 5; 3; 5; 1 |])
          (Chunk.column c 0));
    Alcotest.test_case "hash_join null keys never match" `Quick (fun () ->
        let null_col = Column.invalidate_all (Column.of_int_array [| 1; 2 |]) in
        let op =
          Operator.hash_join
            ~build:(Operator.of_chunks [ Chunk.of_columns [ null_col ] ])
            ~probe:(Operator.of_chunks [ int_chunk [| 1; 2 |] ])
            ~build_key:(Expr.col 0) ~probe_key:(Expr.col 0)
        in
        Alcotest.(check int) "no matches" 0 (Operator.row_count op));
    Alcotest.test_case "aggregate skips nulls (accumulator path)" `Quick
      (fun () ->
        let c = Column.invalidate_all (Column.of_int_array [| 0; 0; 0 |]) in
        Column.set c 1 (Int 42);
        let op =
          Operator.aggregate
            [ (Kernels.Max, Expr.col 0); (Kernels.Sum, Expr.col 0);
              (Kernels.Count, Expr.col 0); (Kernels.Avg, Expr.col 0) ]
            (Operator.of_chunks [ Chunk.of_columns [ c ] ])
        in
        let r = Operator.to_chunk op in
        Alcotest.(check bool) "row" true
          (Chunk.row r 0
          = [ Value.Int 42; Value.Int 42; Value.Int 1; Value.Float 42. ]));
    Alcotest.test_case "aggregate float and string accumulators" `Quick (fun () ->
        let f = Column.of_float_array [| 2.5; -1.5 |] in
        let op =
          Operator.aggregate
            [ (Kernels.Min, Expr.col 0); (Kernels.Sum, Expr.col 0) ]
            (Operator.of_chunks [ Chunk.of_columns [ f ] ])
        in
        Alcotest.(check bool) "floats" true
          (Chunk.row (Operator.to_chunk op) 0 = [ Value.Float (-1.5); Value.Float 1.0 ]);
        let s = Column.of_string_array [| "pear"; "apple" |] in
        let op =
          Operator.aggregate
            [ (Kernels.Max, Expr.col 0) ]
            (Operator.of_chunks [ Chunk.of_columns [ s ] ])
        in
        check_value "string max" (String "pear")
          (Column.get (Chunk.column (Operator.to_chunk op) 0) 0));
    Alcotest.test_case "group_by string keys (generic path)" `Quick (fun () ->
        let keys = Column.of_string_array [| "a"; "b"; "a" |] in
        let vals = Column.of_int_array [| 1; 2; 3 |] in
        let op =
          Operator.group_by ~keys:[ Expr.col 0 ]
            ~aggs:[ (Kernels.Sum, Expr.col 1) ]
            (Operator.of_chunks [ Chunk.of_columns [ keys; vals ] ])
        in
        Alcotest.(check bool) "groups" true
          (to_rows op
          = [ [ Value.String "a"; Value.Int 4 ]; [ Value.String "b"; Value.Int 2 ] ]));
    Alcotest.test_case "group_by null keys form their own group" `Quick (fun () ->
        let keys = Column.invalidate_all (Column.of_int_array [| 0; 0; 0 |]) in
        Column.set keys 1 (Int 7);
        let vals = Column.of_int_array [| 10; 20; 30 |] in
        let op =
          Operator.group_by ~keys:[ Expr.col 0 ]
            ~aggs:[ (Kernels.Sum, Expr.col 1) ]
            (Operator.of_chunks [ Chunk.of_columns [ keys; vals ] ])
        in
        Alcotest.(check bool) "null bucket + key bucket" true
          (to_rows op
          = [ [ Value.Null; Value.Int 40 ]; [ Value.Int 7; Value.Int 20 ] ]));
    Alcotest.test_case "group_by multi-key (generic path)" `Quick (fun () ->
        let k1 = Column.of_int_array [| 1; 1; 2 |] in
        let k2 = Column.of_int_array [| 1; 1; 1 |] in
        let op =
          Operator.group_by
            ~keys:[ Expr.col 0; Expr.col 1 ]
            ~aggs:[ (Kernels.Count, Expr.col 0) ]
            (Operator.of_chunks [ Chunk.of_columns [ k1; k2 ] ])
        in
        Alcotest.(check int) "two groups" 2 (Operator.row_count op));
    Alcotest.test_case "hash_join float keys (generic path)" `Quick (fun () ->
        let mk a = Operator.of_chunks [ Chunk.of_columns [ Column.of_float_array a ] ] in
        let op =
          Operator.hash_join ~build:(mk [| 1.5; 2.5 |]) ~probe:(mk [| 2.5; 9.0 |])
            ~build_key:(Expr.col 0) ~probe_key:(Expr.col 0)
        in
        Alcotest.(check int) "one match" 1 (Operator.row_count op));
    Alcotest.test_case "hash_join agg-result column as build side" `Quick
      (fun () ->
        (* join output of a group_by (Int fast path feeding the join) *)
        let data =
          Chunk.of_columns
            [ Column.of_int_array [| 1; 1; 2 |]; Column.of_int_array [| 5; 6; 7 |] ]
        in
        let grouped =
          Operator.group_by ~keys:[ Expr.col 0 ]
            ~aggs:[ (Kernels.Count, Expr.col 1) ]
            (Operator.of_chunks [ data ])
        in
        let probe = Operator.of_chunks [ Chunk.of_columns [ Column.of_int_array [| 1; 2; 3 |] ] ] in
        let op =
          Operator.hash_join ~build:grouped ~probe ~build_key:(Expr.col 0)
            ~probe_key:(Expr.col 0)
        in
        Alcotest.(check bool) "counts joined" true
          (to_rows op
          = [ [ Value.Int 1; Value.Int 1; Value.Int 2 ];
              [ Value.Int 2; Value.Int 2; Value.Int 1 ] ]));
    Alcotest.test_case "sort asc/desc and stability" `Quick (fun () ->
        let c =
          Chunk.of_columns
            [ Column.of_int_array [| 2; 1; 2; 1 |];
              Column.of_string_array [| "x"; "y"; "z"; "w" |] ]
        in
        let op = Operator.sort ~by:[ (0, `Asc) ] (Operator.of_chunks [ c ]) in
        let out = Operator.to_chunk op in
        check_column "keys sorted" (Column.of_int_array [| 1; 1; 2; 2 |])
          (Chunk.column out 0);
        check_column "stable payload"
          (Column.of_string_array [| "y"; "w"; "x"; "z" |])
          (Chunk.column out 1);
        let op = Operator.sort ~by:[ (0, `Desc) ] (Operator.of_chunks [ c ]) in
        check_column "desc" (Column.of_int_array [| 2; 2; 1; 1 |])
          (Chunk.column (Operator.to_chunk op) 0));
    Alcotest.test_case "map_chunks transforms each chunk" `Quick (fun () ->
        let op =
          Operator.map_chunks
            (fun c -> Chunk.append_column c (Column.const Dtype.Int (Int 9) (Chunk.n_rows c)))
            (Operator.of_chunks [ int_chunk [| 1; 2 |] ])
        in
        let c = Operator.to_chunk op in
        Alcotest.(check int) "appended" 2 (Chunk.n_cols c));
    Alcotest.test_case "of_chunk slices at chunk_rows; empty stays one chunk"
      `Quick (fun () ->
        let sizes chunk =
          List.map Chunk.n_rows (Operator.collect (Operator.of_chunk ~chunk_rows:4 chunk))
        in
        let ten = int_chunk (Array.init 10 Fun.id) in
        Alcotest.(check (list int)) "4 + 4 + 2" [ 4; 4; 2 ] (sizes ten);
        check_chunk "concat is the input" ten
          (Operator.to_chunk (Operator.of_chunk ~chunk_rows:4 ten));
        Alcotest.(check (list int)) "exact multiple" [ 4; 4 ]
          (sizes (int_chunk (Array.init 8 Fun.id)));
        Alcotest.(check (list int)) "empty: one chunk" [ 0 ] (sizes (int_chunk [||])));
  ]

let suites = [ ("engine.expr", expr_tests); ("engine.operator", op_tests) ]
