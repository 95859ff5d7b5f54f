open Raw_vector
open Test_util

(* ---------------- Dtype ---------------- *)

let dtype_tests =
  [
    Alcotest.test_case "to/of_string roundtrip" `Quick (fun () ->
        List.iter
          (fun dt ->
            Alcotest.(check (option string))
              "roundtrip"
              (Some (Dtype.to_string dt))
              (Option.map Dtype.to_string (Dtype.of_string (Dtype.to_string dt))))
          [ Dtype.Int; Dtype.Float; Dtype.Bool; Dtype.String ]);
    Alcotest.test_case "of_string synonyms" `Quick (fun () ->
        Alcotest.(check bool) "integer" true (Dtype.of_string "integer" = Some Dtype.Int);
        Alcotest.(check bool) "DOUBLE" true (Dtype.of_string "DOUBLE" = Some Dtype.Float);
        Alcotest.(check bool) "text" true (Dtype.of_string "text" = Some Dtype.String);
        Alcotest.(check bool) "junk" true (Dtype.of_string "junk" = None));
    Alcotest.test_case "fixed widths" `Quick (fun () ->
        Alcotest.(check (option int)) "int" (Some 8) (Dtype.fixed_width Dtype.Int);
        Alcotest.(check (option int)) "float" (Some 8) (Dtype.fixed_width Dtype.Float);
        Alcotest.(check (option int)) "bool" (Some 1) (Dtype.fixed_width Dtype.Bool);
        Alcotest.(check (option int)) "string" None (Dtype.fixed_width Dtype.String));
  ]

(* ---------------- Value ---------------- *)

let value_tests =
  [
    Alcotest.test_case "compare numeric cross-type" `Quick (fun () ->
        Alcotest.(check bool) "int<float" true (Value.compare (Int 1) (Float 1.5) < 0);
        Alcotest.(check bool) "float=int" true (Value.compare (Float 2.0) (Int 2) = 0);
        Alcotest.(check bool) "null first" true (Value.compare Null (Int min_int) < 0));
    Alcotest.test_case "equal discriminates" `Quick (fun () ->
        Alcotest.(check bool) "int/float differ" false (Value.equal (Int 1) (Float 1.));
        Alcotest.(check bool) "null=null" true (Value.equal Null Null);
        Alcotest.(check bool) "strings" true (Value.equal (String "a") (String "a")));
    Alcotest.test_case "accessors raise on mismatch" `Quick (fun () ->
        Alcotest.check_raises "as_int of float" (Invalid_argument "Value.as_int: 1.5")
          (fun () -> ignore (Value.as_int (Float 1.5)));
        Alcotest.(check int) "as_int ok" 7 (Value.as_int (Int 7));
        Alcotest.(check (float 0.)) "to_float of int" 3. (Value.to_float (Int 3)));
    Alcotest.test_case "to_string" `Quick (fun () ->
        Alcotest.(check string) "null" "NULL" (Value.to_string Null);
        Alcotest.(check string) "bool" "true" (Value.to_string (Bool true));
        Alcotest.(check string) "int" "-42" (Value.to_string (Int (-42))));
    Alcotest.test_case "dtype of values" `Quick (fun () ->
        Alcotest.(check bool) "int" true (Value.dtype (Int 1) = Some Dtype.Int);
        Alcotest.(check bool) "null" true (Value.dtype Null = None));
  ]

(* ---------------- Column ---------------- *)

let column_tests =
  [
    Alcotest.test_case "get and dtype" `Quick (fun () ->
        let c = Column.of_int_array [| 1; 2; 3 |] in
        check_value "first" (Int 1) (Column.get c 0);
        Alcotest.(check bool) "dtype" true (Dtype.equal (Column.dtype c) Dtype.Int);
        Alcotest.(check int) "length" 3 (Column.length c));
    Alcotest.test_case "bounds checked" `Quick (fun () ->
        let c = Column.of_int_array [| 1 |] in
        Alcotest.check_raises "oob" (Invalid_argument "Column.get: index out of bounds")
          (fun () -> ignore (Column.get c 1)));
    Alcotest.test_case "validity bitmap" `Quick (fun () ->
        let c = Column.make ~valid:(Bytes.of_string "\001\000\001")
            (Column.Int_data [| 1; 2; 3 |]) in
        check_value "valid row" (Int 1) (Column.get c 0);
        check_value "invalid row is NULL" Null (Column.get c 1);
        Alcotest.(check int) "valid_count" 2 (Column.valid_count c);
        Alcotest.(check bool) "all_valid" false (Column.all_valid c));
    Alcotest.test_case "bitmap length mismatch rejected" `Quick (fun () ->
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Column.make: validity bitmap length mismatch")
          (fun () ->
            ignore
              (Column.make ~valid:(Bytes.make 2 '\001')
                 (Column.Int_data [| 1; 2; 3 |]))));
    Alcotest.test_case "of_values with nulls" `Quick (fun () ->
        let c = Column.of_values Dtype.Float [ Float 1.5; Null; Int 2 ] in
        check_value "coerced int" (Float 2.) (Column.get c 2);
        check_value "null kept" Null (Column.get c 1));
    Alcotest.test_case "of_values type mismatch raises" `Quick (fun () ->
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Column.of_values: type mismatch") (fun () ->
            ignore (Column.of_values Dtype.Int [ Value.String "x" ])));
    Alcotest.test_case "set marks valid" `Quick (fun () ->
        let c = Column.invalidate_all (Column.of_int_array [| 0; 0 |]) in
        Alcotest.(check int) "initially empty" 0 (Column.valid_count c);
        Column.set c 1 (Int 9);
        check_value "set value" (Int 9) (Column.get c 1);
        check_value "other still null" Null (Column.get c 0));
    Alcotest.test_case "slice" `Quick (fun () ->
        let c = Column.of_int_array [| 0; 1; 2; 3; 4 |] in
        check_column "middle" (Column.of_int_array [| 1; 2; 3 |]) (Column.slice c 1 3);
        Alcotest.check_raises "oob" (Invalid_argument "Column.slice: out of bounds")
          (fun () -> ignore (Column.slice c 3 3)));
    Alcotest.test_case "gather" `Quick (fun () ->
        let c = Column.of_string_array [| "a"; "b"; "c" |] in
        check_column "picked"
          (Column.of_string_array [| "c"; "a"; "c" |])
          (Column.gather c [| 2; 0; 2 |]));
    Alcotest.test_case "scatter fills and validates" `Quick (fun () ->
        let dst = Column.invalidate_all (Column.of_float_array (Array.make 4 0.)) in
        Column.scatter dst [| 3; 1 |] (Column.of_float_array [| 9.5; 8.5 |]);
        check_value "row3" (Float 9.5) (Column.get dst 3);
        check_value "row1" (Float 8.5) (Column.get dst 1);
        check_value "row0 untouched" Null (Column.get dst 0);
        Alcotest.(check int) "two valid" 2 (Column.valid_count dst));
    Alcotest.test_case "scatter type mismatch raises" `Quick (fun () ->
        let dst = Column.of_int_array [| 0 |] in
        Alcotest.check_raises "mismatch" (Invalid_argument "Column.scatter: type mismatch")
          (fun () -> Column.scatter dst [| 0 |] (Column.of_float_array [| 1. |])));
    Alcotest.test_case "const column" `Quick (fun () ->
        let c = Column.const Dtype.Bool (Bool true) 3 in
        Alcotest.(check int) "len" 3 (Column.length c);
        check_value "v" (Bool true) (Column.get c 2));
    Alcotest.test_case "concat typed blits" `Quick (fun () ->
        let a = Column.of_int_array [| 1; 2 |] in
        let b = Column.of_int_array [| 3 |] in
        check_column "ints" (Column.of_int_array [| 1; 2; 3 |])
          (Column.concat [ a; b ]);
        let s1 = Column.of_string_array [| "x" |] in
        let s2 = Column.of_string_array [| "y"; "z" |] in
        check_column "strings" (Column.of_string_array [| "x"; "y"; "z" |])
          (Column.concat [ s1; s2 ]));
    Alcotest.test_case "concat propagates validity" `Quick (fun () ->
        let a = Column.of_int_array [| 1 |] in
        let b = Column.invalidate_all (Column.of_int_array [| 2; 3 |]) in
        Column.set b 1 (Int 3);
        let c = Column.concat [ a; b ] in
        check_value "valid from a" (Int 1) (Column.get c 0);
        check_value "invalid kept" Null (Column.get c 1);
        check_value "filled kept" (Int 3) (Column.get c 2));
    Alcotest.test_case "concat rejects mismatch and empty" `Quick (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Column.concat: empty list")
          (fun () -> ignore (Column.concat []));
        Alcotest.check_raises "types" (Invalid_argument "Column.concat: type mismatch")
          (fun () ->
            ignore
              (Column.concat
                 [ Column.of_int_array [| 1 |]; Column.of_float_array [| 1. |] ])));
  ]

(* ---------------- Builder ---------------- *)

let builder_tests =
  [
    Alcotest.test_case "grows past initial capacity" `Quick (fun () ->
        let b = Builder.create ~capacity:2 Dtype.Int in
        for i = 0 to 999 do
          Builder.add_int b i
        done;
        let c = Builder.to_column b in
        Alcotest.(check int) "len" 1000 (Column.length c);
        check_value "last" (Int 999) (Column.get c 999));
    Alcotest.test_case "typed add mismatch raises" `Quick (fun () ->
        let b = Builder.create Dtype.Float in
        Alcotest.check_raises "int into float"
          (Invalid_argument "Builder.add_int: not an Int builder") (fun () ->
            Builder.add_int b 1));
    Alcotest.test_case "nulls tracked across growth" `Quick (fun () ->
        let b = Builder.create ~capacity:1 Dtype.String in
        Builder.add_string b "x";
        Builder.add_null b;
        Builder.add_string b "y";
        let c = Builder.to_column b in
        check_value "null mid" Null (Column.get c 1);
        check_value "after null" (String "y") (Column.get c 2));
    Alcotest.test_case "add_value dispatch" `Quick (fun () ->
        let b = Builder.create Dtype.Bool in
        Builder.add_value b (Bool false);
        Builder.add_value b Null;
        let c = Builder.to_column b in
        Alcotest.(check int) "len" 2 (Column.length c);
        check_value "null" Null (Column.get c 1));
    Alcotest.test_case "clear resets" `Quick (fun () ->
        let b = Builder.create Dtype.Int in
        Builder.add_int b 1;
        Builder.add_null b;
        Builder.clear b;
        Builder.add_int b 5;
        let c = Builder.to_column b in
        Alcotest.(check int) "len" 1 (Column.length c);
        Alcotest.(check bool) "no stale null" true (Column.all_valid c));
    Alcotest.test_case "to_column leaves builder usable" `Quick (fun () ->
        let b = Builder.create Dtype.Int in
        Builder.add_int b 1;
        let c1 = Builder.to_column b in
        Builder.add_int b 2;
        let c2 = Builder.to_column b in
        Alcotest.(check int) "first frozen" 1 (Column.length c1);
        Alcotest.(check int) "second grew" 2 (Column.length c2));
  ]

(* ---------------- Sel ---------------- *)

let sel_tests =
  [
    Alcotest.test_case "of_array enforces ascending" `Quick (fun () ->
        Alcotest.check_raises "descending"
          (Invalid_argument "Sel.of_array: indices must be strictly ascending")
          (fun () -> ignore (Sel.of_array [| 3; 1 |])));
    Alcotest.test_case "all / empty" `Quick (fun () ->
        Alcotest.(check int) "all len" 4 (Sel.length (Sel.all 4));
        Alcotest.(check int) "last" 3 (Sel.get (Sel.all 4) 3);
        Alcotest.(check int) "empty" 0 (Sel.length Sel.empty));
    Alcotest.test_case "of_bool_mask" `Quick (fun () ->
        let s = Sel.of_bool_mask [| true; false; true; true |] in
        Alcotest.(check (array int)) "indices" [| 0; 2; 3 |] (Sel.to_array s));
    Alcotest.test_case "complement" `Quick (fun () ->
        let s = Sel.of_array [| 1; 3 |] in
        Alcotest.(check (array int)) "rest" [| 0; 2; 4 |]
          (Sel.to_array (Sel.complement s 5)));
    Alcotest.test_case "compose" `Quick (fun () ->
        (* inner selects rows 10,20,30,40 of a chunk; outer picks positions
           0 and 3 of that view *)
        let inner = Sel.of_array [| 10; 20; 30; 40 |] in
        let outer = Sel.of_array [| 0; 3 |] in
        Alcotest.(check (array int)) "composed" [| 10; 40 |]
          (Sel.to_array (Sel.compose outer inner)));
  ]

(* ---------------- Schema ---------------- *)

let schema_tests =
  [
    Alcotest.test_case "duplicate names rejected" `Quick (fun () ->
        Alcotest.check_raises "dup" (Invalid_argument "Schema.make: duplicate field a")
          (fun () ->
            ignore
              (Schema.of_pairs [ ("a", Dtype.Int); ("a", Dtype.Float) ])));
    Alcotest.test_case "index_of / find" `Quick (fun () ->
        let s = Schema.of_pairs [ ("a", Dtype.Int); ("b", Dtype.Float) ] in
        Alcotest.(check (option int)) "b" (Some 1) (Schema.index_of s "b");
        Alcotest.(check (option int)) "missing" None (Schema.index_of s "z");
        Alcotest.(check bool) "find dtype" true
          (match Schema.find s "b" with
           | Some f -> Dtype.equal f.dtype Dtype.Float
           | None -> false));
    Alcotest.test_case "partial schema keeps source indexes" `Quick (fun () ->
        let s =
          Schema.make
            [
              { Schema.name = "id"; dtype = Dtype.Int; source_index = 0 };
              { Schema.name = "x"; dtype = Dtype.Float; source_index = 17 };
            ]
        in
        Alcotest.(check int) "max source" 17 (Schema.max_source_index s);
        Alcotest.(check int) "arity" 2 (Schema.arity s));
    Alcotest.test_case "project and append" `Quick (fun () ->
        let s = Schema.of_pairs [ ("a", Dtype.Int); ("b", Dtype.Float); ("c", Dtype.Bool) ] in
        let p = Schema.project s [ 2; 0 ] in
        Alcotest.(check string) "first" "c" (Schema.name p 0);
        Alcotest.check_raises "dup append"
          (Invalid_argument "Schema.append: duplicate field a") (fun () ->
            ignore (Schema.append s { Schema.name = "a"; dtype = Dtype.Int; source_index = 9 })));
  ]

(* ---------------- Chunk ---------------- *)

let chunk_tests =
  [
    Alcotest.test_case "create checks lengths" `Quick (fun () ->
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Chunk.create: column length mismatch") (fun () ->
            ignore
              (Chunk.create
                 [| Column.of_int_array [| 1 |]; Column.of_int_array [| 1; 2 |] |])));
    Alcotest.test_case "row and project" `Quick (fun () ->
        let c =
          Chunk.of_columns
            [ Column.of_int_array [| 1; 2 |]; Column.of_string_array [| "a"; "b" |] ]
        in
        Alcotest.(check bool) "row" true
          (Chunk.row c 1 = [ Value.Int 2; Value.String "b" ]);
        let p = Chunk.project c [ 1 ] in
        Alcotest.(check int) "projected arity" 1 (Chunk.n_cols p));
    Alcotest.test_case "take materializes selection" `Quick (fun () ->
        let c = Chunk.of_columns [ Column.of_int_array [| 10; 20; 30 |] ] in
        let t = Chunk.take c (Sel.of_array [| 0; 2 |]) in
        check_chunk "taken" (Chunk.of_columns [ Column.of_int_array [| 10; 30 |] ]) t);
    Alcotest.test_case "concat" `Quick (fun () ->
        let a = Chunk.of_columns [ Column.of_int_array [| 1 |] ] in
        let b = Chunk.of_columns [ Column.of_int_array [| 2; 3 |] ] in
        check_chunk "joined"
          (Chunk.of_columns [ Column.of_int_array [| 1; 2; 3 |] ])
          (Chunk.concat [ a; b ]);
        Alcotest.(check int) "empty concat" 0 (Chunk.n_rows (Chunk.concat [])));
    Alcotest.test_case "concat arity mismatch raises" `Quick (fun () ->
        let a = Chunk.of_columns [ Column.of_int_array [| 1 |] ] in
        let b =
          Chunk.of_columns
            [ Column.of_int_array [| 1 |]; Column.of_int_array [| 1 |] ]
        in
        Alcotest.check_raises "mismatch" (Invalid_argument "Chunk.concat: arity mismatch")
          (fun () -> ignore (Chunk.concat [ a; b ])));
    Alcotest.test_case "append_column and slice" `Quick (fun () ->
        let c = Chunk.of_columns [ Column.of_int_array [| 1; 2; 3 |] ] in
        let c = Chunk.append_column c (Column.of_bool_array [| true; false; true |]) in
        Alcotest.(check int) "arity" 2 (Chunk.n_cols c);
        let s = Chunk.slice c 1 2 in
        Alcotest.(check bool) "slice row" true
          (Chunk.row s 0 = [ Value.Int 2; Value.Bool false ]));
  ]

(* ---------------- Kernels ---------------- *)

let sel_check name expected sel =
  Alcotest.(check (array int)) name expected (Sel.to_array sel)

let kernel_tests =
  [
    Alcotest.test_case "filter_const int all ops" `Quick (fun () ->
        let c = Column.of_int_array [| 5; 1; 9; 5 |] in
        sel_check "lt" [| 1 |] (Kernels.filter_const Kernels.Lt c (Int 5) None);
        sel_check "le" [| 0; 1; 3 |] (Kernels.filter_const Kernels.Le c (Int 5) None);
        sel_check "gt" [| 2 |] (Kernels.filter_const Kernels.Gt c (Int 5) None);
        sel_check "ge" [| 0; 2; 3 |] (Kernels.filter_const Kernels.Ge c (Int 5) None);
        sel_check "eq" [| 0; 3 |] (Kernels.filter_const Kernels.Eq c (Int 5) None);
        sel_check "ne" [| 1; 2 |] (Kernels.filter_const Kernels.Ne c (Int 5) None));
    Alcotest.test_case "filter_const numeric coercion" `Quick (fun () ->
        let c = Column.of_int_array [| 1; 2; 3 |] in
        sel_check "int col, float const" [| 0; 1 |]
          (Kernels.filter_const Kernels.Lt c (Float 2.5) None);
        let f = Column.of_float_array [| 0.5; 2.5 |] in
        sel_check "float col, int const" [| 0 |]
          (Kernels.filter_const Kernels.Lt f (Int 2) None));
    Alcotest.test_case "filter_const float extremes, negated" `Quick (fun () ->
        let f = Column.of_float_array [| neg_infinity; 0.; infinity; nan |] in
        let check name op x ~negate expected =
          sel_check name expected (Kernels.filter_const ~negate op f (Float x) None)
        in
        check "below -inf" Kernels.Lt neg_infinity ~negate:false [||];
        check "above inf" Kernels.Gt infinity ~negate:false [||];
        check "NOT below -inf" Kernels.Lt neg_infinity ~negate:true [| 0; 1; 2; 3 |];
        check "NOT above inf" Kernels.Gt infinity ~negate:true [| 0; 1; 2; 3 |];
        check "NOT >= 0 keeps NaN" Kernels.Ge 0. ~negate:true [| 0; 3 |];
        check "NOT <> NaN" Kernels.Ne nan ~negate:true [||]);
    Alcotest.test_case "filter respects selection vector" `Quick (fun () ->
        let c = Column.of_int_array [| 1; 1; 1; 9 |] in
        let sel = Some (Sel.of_array [| 1; 3 |]) in
        sel_check "only candidates" [| 1 |]
          (Kernels.filter_const Kernels.Eq c (Int 1) sel));
    Alcotest.test_case "filter skips invalid rows" `Quick (fun () ->
        let c =
          Column.make ~valid:(Bytes.of_string "\001\000\001")
            (Column.Int_data [| 1; 1; 1 |])
        in
        sel_check "null dropped" [| 0; 2 |]
          (Kernels.filter_const Kernels.Eq c (Int 1) None));
    Alcotest.test_case "filter vs NULL constant selects nothing" `Quick (fun () ->
        let c = Column.of_int_array [| 1 |] in
        sel_check "empty" [||] (Kernels.filter_const Kernels.Eq c Null None));
    Alcotest.test_case "filter strings" `Quick (fun () ->
        let c = Column.of_string_array [| "apple"; "pear"; "fig" |] in
        sel_check "lt" [| 0; 2 |]
          (Kernels.filter_const Kernels.Lt c (String "pear") None));
    Alcotest.test_case "filter_col" `Quick (fun () ->
        let a = Column.of_int_array [| 1; 5; 3 |] in
        let b = Column.of_int_array [| 2; 4; 3 |] in
        sel_check "lt" [| 0 |] (Kernels.filter_col Kernels.Lt a b None);
        sel_check "eq" [| 2 |] (Kernels.filter_col Kernels.Eq a b None);
        let f = Column.of_float_array [| 0.5; 6.; 3. |] in
        sel_check "int vs float" [| 1 |] (Kernels.filter_col Kernels.Lt a f None));
    Alcotest.test_case "filter_col length mismatch raises" `Quick (fun () ->
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Kernels.filter_col: length mismatch") (fun () ->
            ignore
              (Kernels.filter_col Kernels.Eq
                 (Column.of_int_array [| 1 |])
                 (Column.of_int_array [| 1; 2 |])
                 None)));
    Alcotest.test_case "arith_const int and promote" `Quick (fun () ->
        let c = Column.of_int_array [| 1; 2 |] in
        check_column "add" (Column.of_int_array [| 11; 12 |])
          (Kernels.arith_const Kernels.Add c (Int 10));
        check_column "promote to float" (Column.of_float_array [| 0.5; 1. |])
          (Kernels.arith_const Kernels.Mul c (Float 0.5)));
    Alcotest.test_case "arith_col" `Quick (fun () ->
        let a = Column.of_int_array [| 7; 9 |] in
        let b = Column.of_int_array [| 2; 3 |] in
        check_column "div" (Column.of_int_array [| 3; 3 |])
          (Kernels.arith_col Kernels.Div a b);
        check_column "mod" (Column.of_int_array [| 1; 0 |])
          (Kernels.arith_col Kernels.Mod a b));
    Alcotest.test_case "arith validity propagates" `Quick (fun () ->
        let a =
          Column.make ~valid:(Bytes.of_string "\001\000")
            (Column.Int_data [| 1; 2 |])
        in
        let r = Kernels.arith_const Kernels.Add a (Int 1) in
        check_value "valid" (Int 2) (Column.get r 0);
        check_value "null" Null (Column.get r 1));
    Alcotest.test_case "aggregate max/min/sum/count/avg" `Quick (fun () ->
        let c = Column.of_int_array [| 4; 1; 7; 2 |] in
        check_value "max" (Int 7) (Kernels.aggregate Kernels.Max c None);
        check_value "min" (Int 1) (Kernels.aggregate Kernels.Min c None);
        check_value "sum" (Int 14) (Kernels.aggregate Kernels.Sum c None);
        check_value "count" (Int 4) (Kernels.aggregate Kernels.Count c None);
        check_value "avg" (Float 3.5) (Kernels.aggregate Kernels.Avg c None));
    Alcotest.test_case "aggregate with selection" `Quick (fun () ->
        let c = Column.of_int_array [| 4; 1; 7; 2 |] in
        let sel = Some (Sel.of_array [| 1; 3 |]) in
        check_value "max of subset" (Int 2) (Kernels.aggregate Kernels.Max c sel));
    Alcotest.test_case "aggregate over empty / nulls" `Quick (fun () ->
        let empty = Column.of_int_array [||] in
        check_value "max empty" Null (Kernels.aggregate Kernels.Max empty None);
        check_value "count empty" (Int 0) (Kernels.aggregate Kernels.Count empty None);
        let nulls = Column.invalidate_all (Column.of_int_array [| 1; 2 |]) in
        check_value "sum of nulls" Null (Kernels.aggregate Kernels.Sum nulls None);
        check_value "count skips nulls" (Int 0)
          (Kernels.aggregate Kernels.Count nulls None));
    Alcotest.test_case "aggregate float column" `Quick (fun () ->
        let c = Column.of_float_array [| 1.5; -0.5 |] in
        check_value "max" (Float 1.5) (Kernels.aggregate Kernels.Max c None);
        check_value "sum" (Float 1.0) (Kernels.aggregate Kernels.Sum c None));
    Alcotest.test_case "max over strings" `Quick (fun () ->
        let c = Column.of_string_array [| "b"; "a"; "c" |] in
        check_value "max" (String "c") (Kernels.aggregate Kernels.Max c None);
        check_value "min" (String "a") (Kernels.aggregate Kernels.Min c None));
    Alcotest.test_case "sum over strings raises" `Quick (fun () ->
        let c = Column.of_string_array [| "a" |] in
        Alcotest.check_raises "sum"
          (Invalid_argument "Kernels.aggregate: SUM over non-numeric column")
          (fun () -> ignore (Kernels.aggregate Kernels.Sum c None)));
  ]

let suites =
  [
    ("vector.dtype", dtype_tests);
    ("vector.value", value_tests);
    ("vector.column", column_tests);
    ("vector.builder", builder_tests);
    ("vector.sel", sel_tests);
    ("vector.schema", schema_tests);
    ("vector.chunk", chunk_tests);
    ("vector.kernels", kernel_tests);
  ]
