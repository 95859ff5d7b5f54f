open Raw_vector
open Raw_storage
open Raw_formats

let mmap_of_string s = Mmap_file.of_bytes ~name:"mem" (Bytes.of_string s)

(* ---------------- CSV parsers ---------------- *)

let b s = Bytes.of_string s

let csv_parser_tests =
  [
    Alcotest.test_case "parse_int basics" `Quick (fun () ->
        Alcotest.(check int) "plain" 123 (Csv.parse_int (b "123") 0 3);
        Alcotest.(check int) "negative" (-45) (Csv.parse_int (b "-45") 0 3);
        Alcotest.(check int) "plus" 45 (Csv.parse_int (b "+45") 0 3);
        Alcotest.(check int) "substring" 23 (Csv.parse_int (b "x23y") 1 2);
        Alcotest.(check int) "zero" 0 (Csv.parse_int (b "0") 0 1));
    Alcotest.test_case "parse_int failures" `Quick (fun () ->
        (* malformed user data raises the typed scan error, carrying the
           byte offset of the bad field *)
        let rejects name s off len =
          Alcotest.(check bool) name true
            (try
               ignore (Csv.parse_int (b s) off len);
               false
             with Scan_errors.Error e -> e.Scan_errors.offset = off)
        in
        rejects "empty" "" 0 0;
        rejects "bad digit" "12a" 0 3;
        rejects "lone sign" "-" 0 1);
    Alcotest.test_case "parse_float basics" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "int-ish" 42. (Csv.parse_float (b "42") 0 2);
        Alcotest.(check (float 1e-9)) "frac" 3.25 (Csv.parse_float (b "3.25") 0 4);
        Alcotest.(check (float 1e-9)) "neg" (-0.5) (Csv.parse_float (b "-0.5") 0 4));
    Alcotest.test_case "parse_float falls back for exponents" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "exp" 1500. (Csv.parse_float (b "1.5e3") 0 5));
    Alcotest.test_case "parse_float matches float_of_string on rendered values"
      `Quick (fun () ->
        let st = Random.State.make [| 7 |] in
        for _ = 1 to 200 do
          let x = Random.State.float st 1e9 in
          let s = Printf.sprintf "%.3f" x in
          Alcotest.(check (float 1e-9))
            s
            (float_of_string s)
            (Csv.parse_float (b s) 0 (String.length s))
        done);
    Alcotest.test_case "parse_bool variants" `Quick (fun () ->
        Alcotest.(check bool) "1" true (Csv.parse_bool (b "1") 0 1);
        Alcotest.(check bool) "0" false (Csv.parse_bool (b "0") 0 1);
        Alcotest.(check bool) "true" true (Csv.parse_bool (b "true") 0 4);
        Alcotest.(check bool) "FALSE" false (Csv.parse_bool (b "FALSE") 0 5));
    Alcotest.test_case "render_value formats" `Quick (fun () ->
        Alcotest.(check string) "int" "7" (Csv.render_value (Int 7));
        Alcotest.(check string) "float" "1.500" (Csv.render_value (Float 1.5));
        Alcotest.(check string) "bool" "1" (Csv.render_value (Bool true)));
  ]

(* ---------------- CSV cursor ---------------- *)

let cursor_tests =
  [
    Alcotest.test_case "walk fields of a row" `Quick (fun () ->
        let f = mmap_of_string "ab,c,def\nxy,z,w\n" in
        let cur = Csv.Cursor.create f in
        let p, l = Csv.Cursor.next_field cur in
        Alcotest.(check (pair int int)) "field1" (0, 2) (p, l);
        let p, l = Csv.Cursor.next_field cur in
        Alcotest.(check (pair int int)) "field2" (3, 1) (p, l);
        let p, l = Csv.Cursor.next_field cur in
        Alcotest.(check (pair int int)) "field3" (5, 3) (p, l);
        Alcotest.(check bool) "at eol" true (Csv.Cursor.at_end_of_line cur);
        Csv.Cursor.skip_line cur;
        Alcotest.(check int) "next row" 9 (Csv.Cursor.pos cur));
    Alcotest.test_case "next_field at EOL yields empty field" `Quick (fun () ->
        (* a missing trailing field reads as empty; the cursor stays put *)
        let f = mmap_of_string "a\nb\n" in
        let cur = Csv.Cursor.create f in
        ignore (Csv.Cursor.next_field cur);
        let p, l = Csv.Cursor.next_field cur in
        Alcotest.(check (pair int int)) "empty at eol" (1, 0) (p, l);
        Alcotest.(check int) "cursor unmoved" 1 (Csv.Cursor.pos cur);
        Csv.Cursor.skip_line cur;
        Alcotest.(check int) "next row" 2 (Csv.Cursor.pos cur));
    Alcotest.test_case "crlf and empty final field" `Quick (fun () ->
        let f = mmap_of_string "ab,\r\ncd,x\r\n" in
        let cur = Csv.Cursor.create f in
        let p, l = Csv.Cursor.next_field cur in
        Alcotest.(check (pair int int)) "field1" (0, 2) (p, l);
        let _, l = Csv.Cursor.next_field cur in
        Alcotest.(check int) "empty final field" 0 l;
        Alcotest.(check bool) "at eol before CR" true
          (Csv.Cursor.at_end_of_line cur);
        Csv.Cursor.skip_line cur;
        Alcotest.(check int) "CRLF fully consumed" 5 (Csv.Cursor.pos cur);
        Csv.Cursor.skip_field cur;
        let p, l = Csv.Cursor.next_field cur in
        Alcotest.(check string) "second row field" "x"
          (Bytes.sub_string (Mmap_file.bytes f) p l));
    Alcotest.test_case "row_aligned_ranges partition the file" `Quick (fun () ->
        let f = mmap_of_string "1,a\n22,bb\n333,ccc\n4,d\n5,e\n" in
        let len = Mmap_file.length f in
        List.iter
          (fun n ->
            let ranges = Csv.row_aligned_ranges f ~n in
            (* ordered, non-empty, contiguous, covering [0, len) *)
            let last =
              List.fold_left
                (fun expect (lo, hi) ->
                  Alcotest.(check int) "contiguous" expect lo;
                  Alcotest.(check bool) "non-empty" true (hi > lo);
                  (* each cut lands just past a newline *)
                  if lo > 0 then
                    Alcotest.(check char) "row-aligned" '\n'
                      (Bytes.get (Mmap_file.bytes f) (lo - 1));
                  hi)
                0 ranges
            in
            Alcotest.(check int) "covers file" len last)
          [ 1; 2; 3; 4; 16 ];
        Alcotest.(check (list (pair int int))) "empty file"
          []
          (Csv.row_aligned_ranges (mmap_of_string "") ~n:4));
    Alcotest.test_case "split and seek" `Quick (fun () ->
        let f = mmap_of_string "1,2,3,4\n" in
        let cur = Csv.Cursor.create f in
        let starts = Array.make 2 0 and ends = Array.make 2 0 in
        Csv.Cursor.split cur 2 starts ends;
        Alcotest.(check (list (pair int int))) "spans" [ (0, 1); (2, 3) ]
          [ (starts.(0), ends.(0)); (starts.(1), ends.(1)) ];
        let p, l = Csv.Cursor.next_field cur in
        Alcotest.(check string) "third" "3"
          (Bytes.sub_string (Mmap_file.bytes f) p l);
        Csv.Cursor.seek cur 2;
        let p, l = Csv.Cursor.next_field cur in
        Alcotest.(check string) "after seek" "2"
          (Bytes.sub_string (Mmap_file.bytes f) p l));
    Alcotest.test_case "last field without trailing newline" `Quick (fun () ->
        let f = mmap_of_string "1,2" in
        let cur = Csv.Cursor.create f in
        Csv.Cursor.skip_field cur;
        let p, l = Csv.Cursor.next_field cur in
        Alcotest.(check string) "tail field" "2"
          (Bytes.sub_string (Mmap_file.bytes f) p l);
        Alcotest.(check bool) "eof" true (Csv.Cursor.at_eof cur));
    Alcotest.test_case "custom separator" `Quick (fun () ->
        let f = mmap_of_string "a|b\n" in
        let cur = Csv.Cursor.create ~sep:'|' f in
        ignore (Csv.Cursor.next_field cur);
        let p, l = Csv.Cursor.next_field cur in
        Alcotest.(check string) "b" "b" (Bytes.sub_string (Mmap_file.bytes f) p l));
    Alcotest.test_case "count_rows" `Quick (fun () ->
        Alcotest.(check int) "terminated" 2 (Csv.count_rows (mmap_of_string "a\nb\n"));
        Alcotest.(check int) "unterminated" 2 (Csv.count_rows (mmap_of_string "a\nb"));
        Alcotest.(check int) "empty" 0 (Csv.count_rows (mmap_of_string "")));
    Alcotest.test_case "generate writes parseable rows" `Quick (fun () ->
        let path = Test_util.fresh_path ".csv" in
        Csv.generate ~path ~n_rows:10
          ~dtypes:[| Dtype.Int; Dtype.Float; Dtype.Bool; Dtype.String |]
          ~seed:3 ();
        let f = Mmap_file.open_file path in
        Alcotest.(check int) "rows" 10 (Csv.count_rows f);
        let cur = Csv.Cursor.create f in
        let buf = Mmap_file.bytes f in
        for _ = 1 to 10 do
          let p, l = Csv.Cursor.next_field cur in
          ignore (Csv.parse_int buf p l);
          let p, l = Csv.Cursor.next_field cur in
          ignore (Csv.parse_float buf p l);
          let p, l = Csv.Cursor.next_field cur in
          ignore (Csv.parse_bool buf p l);
          ignore (Csv.Cursor.next_field cur);
          Csv.Cursor.skip_line cur
        done;
        Alcotest.(check bool) "eof" true (Csv.Cursor.at_eof cur));
    Alcotest.test_case "generate is deterministic" `Quick (fun () ->
        let p1 = Test_util.fresh_path ".csv" and p2 = Test_util.fresh_path ".csv" in
        let dtypes = [| Dtype.Int; Dtype.Int |] in
        Csv.generate ~path:p1 ~n_rows:20 ~dtypes ~seed:9 ();
        Csv.generate ~path:p2 ~n_rows:20 ~dtypes ~seed:9 ();
        let read p = Bytes.to_string (Mmap_file.bytes (Mmap_file.open_file p)) in
        Alcotest.(check string) "identical" (read p1) (read p2));
  ]

(* ---------------- Posmap ---------------- *)

let build_map rows =
  (* rows: (col * pos * len) list list, tracked inferred from first row *)
  let tracked = List.map (fun (c, _, _) -> c) (List.hd rows) in
  let b = Posmap.Build.create ~tracked in
  List.iter
    (fun row ->
      List.iter (fun (col, pos, len) -> Posmap.Build.record b ~col ~pos ~len) row;
      Posmap.Build.end_row b)
    rows;
  Posmap.Build.finish b

let posmap_tests =
  [
    Alcotest.test_case "positions and lengths" `Quick (fun () ->
        let pm = build_map [ [ (0, 0, 2); (5, 10, 3) ]; [ (0, 20, 1); (5, 25, 4) ] ] in
        Alcotest.(check (array int)) "col0" [| 0; 20 |] (Posmap.positions pm 0);
        Alcotest.(check (array int)) "col5" [| 10; 25 |] (Posmap.positions pm 5);
        Alcotest.(check (option (array int))) "lens" (Some [| 3; 4 |]) (Posmap.lengths pm 5);
        Alcotest.(check int) "rows" 2 (Posmap.n_rows pm);
        Alcotest.(check int) "point" 25 (Posmap.position pm ~row:1 ~col:5));
    Alcotest.test_case "untracked column raises" `Quick (fun () ->
        let pm = build_map [ [ (0, 0, 1) ] ] in
        Alcotest.check_raises "untracked"
          (Invalid_argument "Posmap.positions: column 3 untracked") (fun () ->
            ignore (Posmap.positions pm 3)));
    Alcotest.test_case "nearest_at_or_before" `Quick (fun () ->
        let pm = build_map [ [ (0, 0, 1); (10, 5, 1); (20, 9, 1) ] ] in
        let check col expect =
          Alcotest.(check (option int)) (Printf.sprintf "col %d" col) expect
            (Option.map fst (Posmap.nearest_at_or_before pm col))
        in
        check 0 (Some 0);
        check 9 (Some 0);
        check 10 (Some 10);
        check 15 (Some 10);
        check 25 (Some 20));
    Alcotest.test_case "nearest before first tracked is None" `Quick (fun () ->
        let pm = build_map [ [ (5, 0, 1) ] ] in
        Alcotest.(check bool) "none" true (Posmap.nearest_at_or_before pm 3 = None));
    Alcotest.test_case "record out of order raises" `Quick (fun () ->
        let b = Posmap.Build.create ~tracked:[ 0; 5 ] in
        Alcotest.check_raises "wrong col"
          (Invalid_argument "Posmap.Build.record: column 5 out of order") (fun () ->
            Posmap.Build.record b ~col:5 ~pos:0 ~len:1));
    Alcotest.test_case "end_row with missing columns raises" `Quick (fun () ->
        let b = Posmap.Build.create ~tracked:[ 0; 5 ] in
        Posmap.Build.record b ~col:0 ~pos:0 ~len:1;
        Alcotest.check_raises "missing"
          (Invalid_argument "Posmap.Build.end_row: missing tracked columns")
          (fun () -> Posmap.Build.end_row b));
    Alcotest.test_case "every_k heuristic" `Quick (fun () ->
        Alcotest.(check (list int)) "every 10 of 30" [ 0; 10; 20 ]
          (Posmap.every_k ~k:10 ~n_cols:30);
        Alcotest.(check (list int)) "every 7 of 30" [ 0; 7; 14; 21; 28 ]
          (Posmap.every_k ~k:7 ~n_cols:30);
        Alcotest.check_raises "k=0" (Invalid_argument "Posmap.every_k: k must be positive")
          (fun () -> ignore (Posmap.every_k ~k:0 ~n_cols:5)));
    Alcotest.test_case "tracked dedup and sort" `Quick (fun () ->
        let b = Posmap.Build.create ~tracked:[ 5; 0; 5 ] in
        Alcotest.(check (array int)) "sorted" [| 0; 5 |] (Posmap.Build.tracked b));
  ]

(* ---------------- FWB ---------------- *)

let fwb_tests =
  [
    Alcotest.test_case "layout offsets" `Quick (fun () ->
        let l = Fwb.layout [| Dtype.Int; Dtype.Bool; Dtype.Float |] in
        Alcotest.(check int) "row size" 17 (Fwb.row_size l);
        Alcotest.(check int) "f0" 0 (Fwb.field_offset l 0);
        Alcotest.(check int) "f1" 8 (Fwb.field_offset l 1);
        Alcotest.(check int) "f2" 9 (Fwb.field_offset l 2);
        Alcotest.(check int) "offset_of" ((3 * 17) + 9)
          (Fwb.offset_of l ~row:3 ~field:2));
    Alcotest.test_case "string columns rejected" `Quick (fun () ->
        Alcotest.check_raises "string"
          (Invalid_argument "Fwb.layout: field 1 has variable-width type VARCHAR")
          (fun () -> ignore (Fwb.layout [| Dtype.Int; Dtype.String |])));
    Alcotest.test_case "write/read roundtrip" `Quick (fun () ->
        let l = Fwb.layout [| Dtype.Int; Dtype.Float; Dtype.Bool |] in
        let path = Test_util.fresh_path ".fwb" in
        let rows =
          [
            [| Value.Int (-7); Value.Float 2.5; Value.Bool true |];
            [| Value.Int max_int; Value.Float (-0.125); Value.Bool false |];
          ]
        in
        Fwb.write_file ~path l (List.to_seq rows);
        let f = Mmap_file.open_file path in
        Alcotest.(check int) "rows" 2 (Fwb.n_rows l f);
        Alcotest.(check int) "int" (-7) (Fwb.read_int f (Fwb.offset_of l ~row:0 ~field:0));
        Alcotest.(check int) "max_int" max_int
          (Fwb.read_int f (Fwb.offset_of l ~row:1 ~field:0));
        Alcotest.(check (float 0.)) "float" (-0.125)
          (Fwb.read_float f (Fwb.offset_of l ~row:1 ~field:1));
        Alcotest.(check bool) "bool" true
          (Fwb.read_bool f (Fwb.offset_of l ~row:0 ~field:2)));
    Alcotest.test_case "ragged file rejected" `Quick (fun () ->
        let l = Fwb.layout [| Dtype.Int |] in
        let f = Mmap_file.of_bytes ~name:"bad" (Bytes.make 12 '\000') in
        Alcotest.(check bool) "ragged" true
          (try
             ignore (Fwb.n_rows l f);
             false
           with Scan_errors.Error e ->
             e.Scan_errors.cause = "fwb: trailing bytes"
             && e.Scan_errors.offset = 8);
        Alcotest.(check int) "floor" 1 (Fwb.n_rows_floor l f);
        Alcotest.(check int) "trailing" 4 (Fwb.trailing_bytes l f));
    Alcotest.test_case "row arity mismatch raises" `Quick (fun () ->
        let l = Fwb.layout [| Dtype.Int; Dtype.Int |] in
        let path = Test_util.fresh_path ".fwb" in
        Alcotest.check_raises "arity" (Invalid_argument "Fwb.write_file: row arity mismatch")
          (fun () ->
            Fwb.write_file ~path l (List.to_seq [ [| Value.Int 1 |] ])));
    Alcotest.test_case "generate matches CSV twin data" `Quick (fun () ->
        let dtypes = [| Dtype.Int; Dtype.Float; Dtype.Int |] in
        let csv_path, fwb_path = Test_util.twin_files ~n_rows:30 ~dtypes ~seed:11 in
        let l = Fwb.layout dtypes in
        let ff = Mmap_file.open_file fwb_path in
        let cf = Mmap_file.open_file csv_path in
        let cur = Csv.Cursor.create cf in
        let buf = Mmap_file.bytes cf in
        for row = 0 to 29 do
          let p, len = Csv.Cursor.next_field cur in
          Alcotest.(check int) "int col" (Csv.parse_int buf p len)
            (Fwb.read_int ff (Fwb.offset_of l ~row ~field:0));
          let p, len = Csv.Cursor.next_field cur in
          Alcotest.(check (float 1e-9)) "float col" (Csv.parse_float buf p len)
            (Fwb.read_float ff (Fwb.offset_of l ~row ~field:1));
          let p, len = Csv.Cursor.next_field cur in
          Alcotest.(check int) "int col 2" (Csv.parse_int buf p len)
            (Fwb.read_int ff (Fwb.offset_of l ~row ~field:2));
          Csv.Cursor.skip_line cur
        done);
  ]

(* ---------------- HEP ---------------- *)

let sample_events =
  [
    {
      Hep.event_id = 0;
      run_number = 3;
      aux = [| 0.25; 0.5 |];
      muons = [| { Hep.pt = 30.; eta = 1.0; phi = 0.5 } |];
      electrons = [||];
      jets =
        [|
          { Hep.pt = 50.; eta = -1.5; phi = 2.0 };
          { Hep.pt = 20.; eta = 0.2; phi = -2.0 };
        |];
    };
    {
      Hep.event_id = 1;
      run_number = 7;
      aux = [||];
      muons = [||];
      electrons = [| { Hep.pt = 10.; eta = 2.0; phi = 1.0 } |];
      jets = [||];
    };
  ]

let write_sample () =
  let path = Test_util.fresh_path ".hep" in
  Hep.write_file ~path (List.to_seq sample_events);
  path

let hep_tests =
  [
    Alcotest.test_case "object roundtrip" `Quick (fun () ->
        let r = Hep.Reader.open_file (write_sample ()) in
        Alcotest.(check int) "n_events" 2 (Hep.Reader.n_events r);
        let e0 = Hep.Reader.get_entry r 0 in
        Alcotest.(check int) "run" 3 e0.run_number;
        Alcotest.(check int) "jets" 2 (Array.length e0.jets);
        Alcotest.(check (float 0.)) "jet pt" 20. e0.jets.(1).pt;
        let e1 = Hep.Reader.get_entry r 1 in
        Alcotest.(check int) "electrons" 1 (Array.length e1.electrons);
        Alcotest.(check (float 0.)) "el eta" 2.0 e1.electrons.(0).eta);
    Alcotest.test_case "field API agrees with object API" `Quick (fun () ->
        let r = Hep.Reader.open_file (write_sample ()) in
        Alcotest.(check int) "event_id" 1 (Hep.Reader.read_event_id r 1);
        Alcotest.(check int) "run" 7 (Hep.Reader.read_run_number r 1);
        Alcotest.(check int) "n jets e0" 2 (Hep.Reader.collection_length r 0 Hep.Jets);
        Alcotest.(check int) "n mu e1" 0 (Hep.Reader.collection_length r 1 Hep.Muons);
        Alcotest.(check (float 0.)) "jet1 phi" (-2.0)
          (Hep.Reader.read_particle_field r ~entry:0 Hep.Jets ~item:1 Hep.Phi);
        Alcotest.(check (float 0.)) "mu pt" 30.
          (Hep.Reader.read_particle_field r ~entry:0 Hep.Muons ~item:0 Hep.Pt));
    Alcotest.test_case "object cache hits on repeat" `Quick (fun () ->
        let r = Hep.Reader.open_file (write_sample ()) in
        ignore (Hep.Reader.get_entry r 0);
        ignore (Hep.Reader.get_entry r 0);
        Alcotest.(check int) "one miss" 1 (Hep.Reader.object_cache_misses r);
        Alcotest.(check int) "one hit" 1 (Hep.Reader.object_cache_hits r);
        Hep.Reader.clear_object_cache r;
        ignore (Hep.Reader.get_entry r 0);
        Alcotest.(check int) "miss after clear" 1 (Hep.Reader.object_cache_misses r));
    Alcotest.test_case "bounded object cache evicts" `Quick (fun () ->
        let r = Hep.Reader.open_file ~object_cache_capacity:1 (write_sample ()) in
        ignore (Hep.Reader.get_entry r 0);
        ignore (Hep.Reader.get_entry r 1);
        ignore (Hep.Reader.get_entry r 0);
        Alcotest.(check int) "all misses" 3 (Hep.Reader.object_cache_misses r));
    Alcotest.test_case "bad entry raises" `Quick (fun () ->
        let r = Hep.Reader.open_file (write_sample ()) in
        Alcotest.check_raises "range" (Invalid_argument "Hep.Reader: entry 2 out of range")
          (fun () -> ignore (Hep.Reader.get_entry r 2));
        Alcotest.check_raises "item range"
          (Invalid_argument "Hep.Reader.read_particle_field: item 5/1") (fun () ->
            ignore (Hep.Reader.read_particle_field r ~entry:0 Hep.Muons ~item:5 Hep.Pt)));
    Alcotest.test_case "not a HEP file" `Quick (fun () ->
        let path = Test_util.fresh_path ".hep" in
        let oc = open_out_bin path in
        output_string oc "definitely not a hep file";
        close_out oc;
        Alcotest.(check bool) "raises" true
          (try
             ignore (Hep.Reader.open_file path);
             false
           with Scan_errors.Error _ -> true));
    Alcotest.test_case "generate is deterministic and well-formed" `Quick (fun () ->
        let p1 = Test_util.fresh_path ".hep" in
        let p2 = Test_util.fresh_path ".hep" in
        Hep.generate ~path:p1 ~n_events:50 ~seed:5 ();
        Hep.generate ~path:p2 ~n_events:50 ~seed:5 ();
        let read p = Bytes.to_string (Mmap_file.bytes (Mmap_file.open_file p)) in
        Alcotest.(check string) "identical bytes" (read p1) (read p2);
        let r = Hep.Reader.open_file p1 in
        Alcotest.(check int) "n_events" 50 (Hep.Reader.n_events r);
        for e = 0 to 49 do
          let ev = Hep.Reader.get_entry r e in
          Alcotest.(check int) "sequential ids" e ev.event_id;
          Array.iter
            (fun (p : Hep.particle) ->
              Alcotest.(check bool) "pt positive" true (p.pt >= 0.);
              Alcotest.(check bool) "eta range" true (Float.abs p.eta <= 2.5))
            ev.muons
        done);
    Alcotest.test_case "empty file roundtrip" `Quick (fun () ->
        let path = Test_util.fresh_path ".hep" in
        Hep.write_file ~path Seq.empty;
        let r = Hep.Reader.open_file path in
        Alcotest.(check int) "no events" 0 (Hep.Reader.n_events r));
  ]

let suites =
  [
    ("formats.csv_parsers", csv_parser_tests);
    ("formats.csv_cursor", cursor_tests);
    ("formats.posmap", posmap_tests);
    ("formats.fwb", fwb_tests);
    ("formats.hep", hep_tests);
  ]
