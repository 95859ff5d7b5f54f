open Raw_vector
open Raw_storage
open Raw_formats
open Test_util

(* ---------------- reference parser ---------------- *)

let parser_tests =
  [
    Alcotest.test_case "scalars and composites" `Quick (fun () ->
        (match Jsonl.parse "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"x\"}}" with
         | Jsonl.Object
             [ ("a", Jsonl.Number 1.); ("b", Jsonl.Array [ Bool true; Null ]);
               ("c", Object [ ("d", String "x") ]) ] -> ()
         | _ -> Alcotest.fail "parse shape");
        (match Jsonl.parse "  [1, 2.5, -3]  " with
         | Jsonl.Array [ Number 1.; Number 2.5; Number -3. ] -> ()
         | _ -> Alcotest.fail "array shape"));
    Alcotest.test_case "string escapes" `Quick (fun () ->
        (match Jsonl.parse {|{"s":"a\"b\\c\nd"}|} with
         | Jsonl.Object [ ("s", String "a\"b\\c\nd") ] -> ()
         | _ -> Alcotest.fail "escapes");
        (match Jsonl.parse {|"é"|} with
         | Jsonl.String "\xc3\xa9" -> ()
         | _ -> Alcotest.fail "raw UTF-8");
        List.iter
          (fun (body, want) ->
            (match Jsonl.parse ("\"" ^ body ^ "\"") with
             | Jsonl.String got -> Alcotest.(check string) ("parse " ^ body) want got
             | _ -> Alcotest.fail "not a string");
            Alcotest.(check string) ("unescape " ^ body) want
              (Jsonl.unescape (Bytes.of_string body) 0 (String.length body)))
          [
            ({|\u00e9|}, "\xc3\xa9");
            ({|\u00E9|}, "\xc3\xa9");
            (* a surrogate pair is one 4-byte sequence, not two 3-byte ones *)
            ({|\ud83d\ude00|}, "\xf0\x9f\x98\x80");
            ({|a\uD83D\uDE00b|}, "a\xf0\x9f\x98\x80b");
            (* lone surrogates decode to U+FFFD *)
            ({|\ud83d|}, "\xef\xbf\xbd");
            ({|\ud83dA|}, "\xef\xbf\xbdA");
            ({|\ud83d\u0041|}, "\xef\xbf\xbdA");
            ({|\ude00\ud83d|}, "\xef\xbf\xbd\xef\xbf\xbd");
          ]);
    Alcotest.test_case "empty object and array" `Quick (fun () ->
        Alcotest.(check bool) "obj" true (Jsonl.parse "{}" = Jsonl.Object []);
        Alcotest.(check bool) "arr" true (Jsonl.parse "[]" = Jsonl.Array []));
    Alcotest.test_case "malformed input raises" `Quick (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check bool) ("reject " ^ s) true
              (try
                 ignore (Jsonl.parse s);
                 false
               with Scan_errors.Error _ -> true))
          [ "{"; "{\"a\" 1}"; "{\"a\":}"; "[1,"; "\"unterminated"; "{} junk";
            (* exactly four hex digits: int_of_string would take the '_' *)
            {|"\u1_23"|}; {|"\u+123"|}; {|"\u12g4"|}; {|"\ud83d\u1_23"|} ]);
    Alcotest.test_case "writer roundtrips through parser" `Quick (fun () ->
        let path = fresh_path ".jsonl" in
        Jsonl.write_file ~path
          (List.to_seq
             [
               [ ("id", Value.Int 7); ("name", Value.String "it's \"x\"");
                 ("user.age", Value.Int 30); ("user.vip", Value.Bool true);
                 ("score", Value.Float 1.5) ];
             ]);
        let line = In_channel.with_open_bin path In_channel.input_all in
        match Jsonl.parse (String.trim line) with
        | Jsonl.Object
            [ ("id", Number 7.); ("name", String "it's \"x\"");
              ("user", Object [ ("age", Number 30.); ("vip", Bool true) ]);
              ("score", Number 1.5) ] -> ()
        | _ -> Alcotest.fail "roundtrip shape");
  ]

(* ---------------- extraction ---------------- *)

let extract_one src paths =
  let buf = Bytes.of_string src in
  let out = Hashtbl.create 8 in
  let trie = Jsonl.Extract.compile (List.map (fun p -> (String.split_on_char '.' p, p)) paths) in
  let emit name (kind : Jsonl.Extract.kind) s l =
    let v =
      match kind with
      | Nul -> "NULL"
      | Scalar -> Bytes.sub_string buf s l
      | Quoted false -> Bytes.sub_string buf s l
      | Quoted true -> Jsonl.unescape buf s l
    in
    Hashtbl.replace out name v
  in
  ignore (Jsonl.Extract.run buf ~pos:0 ~wanted:trie ~emit);
  fun name -> Hashtbl.find_opt out name

let extract_tests =
  [
    Alcotest.test_case "flat fields in any order" `Quick (fun () ->
        let get = extract_one "{\"b\":2,\"a\":1,\"c\":3}" [ "a"; "c" ] in
        Alcotest.(check (option string)) "a" (Some "1") (get "a");
        Alcotest.(check (option string)) "c" (Some "3") (get "c");
        Alcotest.(check (option string)) "b skipped" None (get "b"));
    Alcotest.test_case "nested paths" `Quick (fun () ->
        let get =
          extract_one "{\"u\":{\"id\":9,\"tags\":[1,2]},\"x\":0}" [ "u.id"; "x" ]
        in
        Alcotest.(check (option string)) "u.id" (Some "9") (get "u.id");
        Alcotest.(check (option string)) "x" (Some "0") (get "x"));
    Alcotest.test_case "missing fields emit nothing" `Quick (fun () ->
        let get = extract_one "{\"a\":1}" [ "a"; "zz" ] in
        Alcotest.(check (option string)) "zz" None (get "zz"));
    Alcotest.test_case "null and strings with escapes" `Quick (fun () ->
        let get = extract_one {|{"s":"x\ny","n":null}|} [ "s"; "n" ] in
        Alcotest.(check (option string)) "s" (Some "x\ny") (get "s");
        Alcotest.(check (option string)) "n" (Some "NULL") (get "n"));
    Alcotest.test_case "skips composites containing braces in strings" `Quick
      (fun () ->
        let get =
          extract_one {|{"junk":{"s":"}{][","d":[1,{"x":2}]},"a":5}|} [ "a" ]
        in
        Alcotest.(check (option string)) "a" (Some "5") (get "a"));
    Alcotest.test_case "conflicting paths rejected" `Quick (fun () ->
        Alcotest.(check bool) "leaf+prefix" true
          (try
             ignore (Jsonl.Extract.compile [ ([ "a" ], 0); ([ "a"; "b" ], 1) ]);
             false
           with Invalid_argument _ -> true);
        Alcotest.(check bool) "duplicate" true
          (try
             ignore (Jsonl.Extract.compile [ ([ "a" ], 0); ([ "a" ], 1) ]);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "run returns end position" `Quick (fun () ->
        let src = "{\"a\":1} trailing" in
        let buf = Bytes.of_string src in
        let trie = Jsonl.Extract.compile [ ([ "a" ], ()) ] in
        let stop = Jsonl.Extract.run buf ~pos:0 ~wanted:trie ~emit:(fun _ _ _ _ -> ()) in
        Alcotest.(check int) "pos after object" 7 stop);
  ]

(* ---------------- rows / generation ---------------- *)

let rows_tests =
  [
    Alcotest.test_case "row_starts and count" `Quick (fun () ->
        let path = fresh_path ".jsonl" in
        Out_channel.with_open_bin path (fun oc ->
            output_string oc "{\"a\":1}\n\n{\"a\":2}\n{\"a\":3}");
        let f = Raw_storage.Mmap_file.open_file path in
        Alcotest.(check int) "count" 3 (Jsonl.count_rows f);
        Alcotest.(check (array int)) "starts" [| 0; 9; 17 |] (Jsonl.row_starts f));
    Alcotest.test_case "generate: parseable, deterministic, missing fields"
      `Quick (fun () ->
        let fields =
          [ ("id", Dtype.Int); ("user.name", Dtype.String); ("score", Dtype.Float) ]
        in
        let p1 = fresh_path ".jsonl" and p2 = fresh_path ".jsonl" in
        Jsonl.generate ~path:p1 ~n_rows:50 ~fields ~missing_probability:0.3
          ~seed:8 ();
        Jsonl.generate ~path:p2 ~n_rows:50 ~fields ~missing_probability:0.3
          ~seed:8 ();
        let read p = In_channel.with_open_bin p In_channel.input_all in
        Alcotest.(check string) "deterministic" (read p1) (read p2);
        String.split_on_char '\n' (read p1)
        |> List.filter (fun l -> String.trim l <> "")
        |> List.iter (fun line ->
               match Jsonl.parse line with
               | Jsonl.Object _ -> ()
               | _ -> Alcotest.fail "non-object row"));
  ]

(* ---------------- scan kernels + SQL ---------------- *)

let jsonl_db ?(missing = 0.) () =
  let path = fresh_path ".jsonl" in
  let fields =
    [ ("id", Dtype.Int); ("user.name", Dtype.String); ("user.score", Dtype.Float);
      ("active", Dtype.Bool) ]
  in
  Jsonl.generate ~path ~n_rows:300 ~fields ~missing_probability:missing ~seed:77 ();
  let db = Raw_core.Raw_db.create () in
  Raw_core.Raw_db.register_jsonl db ~name:"logs" ~path ~columns:fields;
  (db, path, fields)

let reference_rows path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map Jsonl.parse

let field_of_json json path =
  let rec go j = function
    | [] -> None
    | k :: rest ->
      (match j with
       | Jsonl.Object fields ->
         (match List.assoc_opt k fields with
          | Some v -> if rest = [] then Some v else go v rest
          | None -> None)
       | _ -> None)
  in
  go json (String.split_on_char '.' path)

let sql_tests =
  [
    Alcotest.test_case "count and max agree with reference parse" `Quick (fun () ->
        let db, path, _ = jsonl_db () in
        let rows = reference_rows path in
        check_value "count" (Int (List.length rows))
          (Raw_core.Raw_db.scalar db "SELECT COUNT(*) FROM logs");
        let want_max =
          List.fold_left
            (fun acc j ->
              match field_of_json j "id" with
              | Some (Jsonl.Number x) -> max acc (int_of_float x)
              | _ -> acc)
            min_int rows
        in
        check_value "max id" (Int want_max)
          (Raw_core.Raw_db.scalar db "SELECT MAX(id) FROM logs"));
    Alcotest.test_case "dotted paths in SQL" `Quick (fun () ->
        let db, path, _ = jsonl_db () in
        let rows = reference_rows path in
        let want =
          List.fold_left
            (fun acc j ->
              match field_of_json j "user.score" with
              | Some (Jsonl.Number x) -> max acc x
              | _ -> acc)
            neg_infinity rows
        in
        let got =
          Value.to_float
            (Raw_core.Raw_db.scalar db "SELECT MAX(user.score) FROM logs")
        in
        Alcotest.(check (float 1e-6)) "max user.score" want got);
    Alcotest.test_case "missing fields are NULL (skipped by filters/aggs)"
      `Quick (fun () ->
        let db, path, _ = jsonl_db ~missing:0.4 () in
        let rows = reference_rows path in
        let present =
          List.length
            (List.filter (fun j -> field_of_json j "id" <> None) rows)
        in
        check_value "count of non-null ids" (Int present)
          (Raw_core.Raw_db.scalar db "SELECT COUNT(*) FROM logs WHERE id >= 0"));
    Alcotest.test_case "all access modes agree" `Quick (fun () ->
        let reference = ref None in
        List.iter
          (fun access ->
            let db, _, _ = jsonl_db ~missing:0.2 () in
            Raw_core.Raw_db.set_options db { Raw_core.Planner.default with access };
            let got =
              rows_of_chunk
                (Raw_core.Raw_db.sql db
                   "SELECT user.name, id FROM logs WHERE user.score > \
                    500000000.0 ORDER BY id LIMIT 20")
            in
            match !reference with
            | None -> reference := Some got
            | Some want ->
              Alcotest.(check bool)
                (Raw_core.Access.mode_to_string access ^ " agrees")
                true (got = want))
          [ Raw_core.Access.Dbms; Raw_core.Access.External;
            Raw_core.Access.In_situ; Raw_core.Access.Jit ]);
    Alcotest.test_case "second query hits shreds (no re-extraction)" `Quick
      (fun () ->
        let db, _, _ = jsonl_db () in
        let q = "SELECT MAX(user.score) FROM logs WHERE id < 900000000" in
        ignore (Raw_core.Raw_db.query db q);
        let r2 = Raw_core.Raw_db.query db q in
        Alcotest.(check (option (float 0.))) "no new extraction" None
          (List.assoc_opt "jsonl.values_extracted" r2.counters));
    Alcotest.test_case "join jsonl with csv" `Quick (fun () ->
        let jpath = fresh_path ".jsonl" in
        Jsonl.write_file ~path:jpath
          (Seq.init 20 (fun i ->
               [ ("key", Value.Int i); ("payload", Value.Int (i * 11)) ]));
        let cpath = write_csv_rows (List.init 10 (fun i -> [ i * 2; i ])) in
        let db = Raw_core.Raw_db.create () in
        Raw_core.Raw_db.register_jsonl db ~name:"j" ~path:jpath
          ~columns:[ ("key", Dtype.Int); ("payload", Dtype.Int) ];
        Raw_core.Raw_db.register_csv db ~name:"c" ~path:cpath
          ~columns:[ ("k", Dtype.Int); ("v", Dtype.Int) ] ();
        check_value "matches" (Int 10)
          (Raw_core.Raw_db.scalar db "SELECT COUNT(*) FROM j JOIN c ON j.key = c.k");
        check_value "payload of matched" (Int (18 * 11))
          (Raw_core.Raw_db.scalar db
             "SELECT MAX(j.payload) FROM j JOIN c ON j.key = c.k"));
    Alcotest.test_case "escaped surrogate pair matches its SQL literal" `Quick
      (fun () ->
        (* the form Python's default json.dumps writes for U+1F600 *)
        let path = fresh_path ".jsonl" in
        Out_channel.with_open_bin path (fun oc ->
            output_string oc
              "{\"id\": 1, \"s\": \"\\ud83d\\ude00\"}\n{\"id\": 2, \"s\": \"x\"}\n");
        let db = Raw_core.Raw_db.create () in
        Raw_core.Raw_db.register_jsonl db ~name:"e" ~path
          ~columns:[ ("id", Dtype.Int); ("s", Dtype.String) ];
        check_value "row found" (Int 1)
          (Raw_core.Raw_db.scalar db
             "SELECT MAX(id) FROM e WHERE s = '\xf0\x9f\x98\x80'"));
  ]

(* ---------------- flattened child tables (arrays of objects) --------- *)

let orders_file () =
  let path = fresh_path ".jsonl" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        ({|{"id":0,"items":[{"sku":"a","qty":2},{"sku":"b","qty":5}],"x":1}|}
        ^ "\n"
        ^ {|{"id":1,"items":[],"x":2}|}
        ^ "\n" ^ {|{"id":2,"x":3}|} ^ "\n"
        ^ {|{"id":3,"items":[{"sku":"c","qty":1},7,{"qty":9}],"x":4}|}
        ^ "\n"));
  path

let array_tests =
  [
    Alcotest.test_case "iter_array_objects finds element offsets" `Quick
      (fun () ->
        let src = {|{"a":{"arr":[{"x":1},2,{"x":3}]},"z":0}|} in
        let buf = Bytes.of_string src in
        let hits = ref [] in
        let stop =
          Jsonl.Extract.iter_array_objects buf ~pos:0 ~path:[ "a"; "arr" ]
            ~f:(fun p -> hits := p :: !hits)
        in
        Alcotest.(check int) "two objects" 2 (List.length !hits);
        Alcotest.(check int) "row end" (String.length src) stop;
        (* each hit starts an object *)
        List.iter
          (fun p -> Alcotest.(check char) "brace" '{' (Bytes.get buf p))
          !hits);
    Alcotest.test_case "missing path or non-array yields nothing" `Quick
      (fun () ->
        let run src path =
          let hits = ref 0 in
          ignore
            (Jsonl.Extract.iter_array_objects (Bytes.of_string src) ~pos:0
               ~path ~f:(fun _ -> incr hits));
          !hits
        in
        Alcotest.(check int) "missing" 0 (run {|{"a":1}|} [ "b" ]);
        Alcotest.(check int) "not array" 0 (run {|{"a":1}|} [ "a" ]));
    Alcotest.test_case "child table scans and joins with parent" `Quick
      (fun () ->
        let path = orders_file () in
        let db = Raw_core.Raw_db.create () in
        Raw_core.Raw_db.register_jsonl db ~name:"orders" ~path
          ~columns:[ ("id", Dtype.Int); ("x", Dtype.Int) ];
        Raw_core.Raw_db.register_jsonl_array db ~name:"items" ~path
          ~array_path:"items"
          ~columns:[ ("sku", Dtype.String); ("qty", Dtype.Int) ];
        check_value "element count (non-object skipped)" (Int 4)
          (Raw_core.Raw_db.scalar db "SELECT COUNT(*) FROM items");
        check_value "qty sum" (Int 17)
          (Raw_core.Raw_db.scalar db "SELECT SUM(qty) FROM items");
        (* missing sku in last element reads as NULL *)
        check_value "skus present" (Int 3)
          (Raw_core.Raw_db.scalar db
             "SELECT COUNT(*) FROM items WHERE sku >= ''");
        (* join child to parent through the parent row id *)
        let c =
          Raw_core.Raw_db.sql db
            "SELECT orders.id, SUM(items.qty) AS total FROM items JOIN orders \
             ON items.parent = orders.id GROUP BY orders.id ORDER BY id"
        in
        Alcotest.(check bool) "grouped join" true
          (rows_of_chunk c
          = [ [ Value.Int 0; Value.Int 7 ]; [ Value.Int 3; Value.Int 10 ] ]));
    Alcotest.test_case "child table all access modes agree" `Quick (fun () ->
        let reference = ref None in
        List.iter
          (fun access ->
            let path = orders_file () in
            let db = Raw_core.Raw_db.create () in
            Raw_core.Raw_db.set_options db { Raw_core.Planner.default with access };
            Raw_core.Raw_db.register_jsonl_array db ~name:"items" ~path
              ~array_path:"items"
              ~columns:[ ("sku", Dtype.String); ("qty", Dtype.Int) ];
            let got =
              rows_of_chunk
                (Raw_core.Raw_db.sql db
                   "SELECT parent, qty FROM items WHERE qty > 1 ORDER BY qty")
            in
            match !reference with
            | None -> reference := Some got
            | Some want ->
              Alcotest.(check bool)
                (Raw_core.Access.mode_to_string access)
                true (got = want))
          [ Raw_core.Access.Dbms; Raw_core.Access.External;
            Raw_core.Access.In_situ; Raw_core.Access.Jit ]);
  ]

(* jit/interp parity on the raw kernels *)
let kernel_tests =
  [
    Alcotest.test_case "seq_scan modes agree" `Quick (fun () ->
        let path = fresh_path ".jsonl" in
        let fields = [ ("a", Dtype.Int); ("n.b", Dtype.Float); ("s", Dtype.String) ] in
        Jsonl.generate ~path ~n_rows:100 ~fields ~missing_probability:0.2 ~seed:3 ();
        let file = Raw_storage.Mmap_file.open_file path in
        let schema = Schema.of_pairs fields in
        let run mode =
          Raw_core.Scan_jsonl.seq_scan ~mode ~file ~schema ~needed:[ 0; 1; 2 ] ()
        in
        let ji, js = run Raw_core.Scan_csv.Jit in
        let ii, is_ = run Raw_core.Scan_csv.Interpreted in
        Alcotest.(check (array int)) "row starts equal" js is_;
        Array.iteri (fun k c -> check_column "columns equal" c ii.(k)) ji);
    Alcotest.test_case "fetch subset equals scan gather" `Quick (fun () ->
        let path = fresh_path ".jsonl" in
        let fields = [ ("a", Dtype.Int); ("b", Dtype.Int) ] in
        Jsonl.generate ~path ~n_rows:60 ~fields ~seed:4 ();
        let file = Raw_storage.Mmap_file.open_file path in
        let schema = Schema.of_pairs fields in
        let full, starts =
          Raw_core.Scan_jsonl.seq_scan ~mode:Raw_core.Scan_csv.Jit ~file ~schema
            ~needed:[ 1 ] ()
        in
        let rowids = [| 3; 17; 42; 59 |] in
        let fetched =
          Raw_core.Scan_jsonl.fetch ~mode:Raw_core.Scan_csv.Jit ~file ~schema
            ~row_starts:starts ~cols:[ 1 ] ~rowids ()
        in
        check_column "subset" (Column.gather full.(0) rowids) fetched.(0));
  ]

let suites =
  [
    ("jsonl.parser", parser_tests);
    ("jsonl.extract", extract_tests);
    ("jsonl.rows", rows_tests);
    ("jsonl.sql", sql_tests);
    ("jsonl.arrays", array_tests);
    ("jsonl.kernels", kernel_tests);
  ]
