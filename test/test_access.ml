open Raw_vector
open Raw_core
open Test_util

let all_modes = [ Access.Dbms; Access.External; Access.In_situ; Access.Jit ]

(* A catalog over a deterministic 20x6 int grid CSV, cell = r*100+c. *)
let grid_cat () =
  let path = write_csv_rows (grid_rows 20 6) in
  let cat = Catalog.create () in
  Catalog.register cat ~name:"t" ~path ~format:(Format_kind.Csv { sep = ',' })
    ~schema:(Schema.of_pairs (int_cols 6));
  cat

let expected_col c rowids =
  Column.of_int_array (Array.map (fun r -> (r * 100) + c) rowids)

let fetch cat mode cols rowids =
  Access.fetch_columns cat ~mode ~entry:(Catalog.get cat "t")
    ~tracked:(Raw_formats.Posmap.every_k ~k:2 ~n_cols:6)
    ~cols ~rowids

let fwb_cat () =
  let path = fresh_path ".fwb" in
  let dtypes = [| Dtype.Int; Dtype.Float; Dtype.Int |] in
  Raw_formats.Fwb.generate ~path ~n_rows:25 ~dtypes ~seed:21 ();
  let cat = Catalog.create () in
  Catalog.register cat ~name:"t" ~path ~format:Format_kind.Fwb
    ~schema:(Schema.of_pairs [ ("a", Dtype.Int); ("x", Dtype.Float); ("b", Dtype.Int) ]);
  cat

let hep_cat () =
  let path = fresh_path ".hep" in
  Raw_formats.Hep.generate ~path ~n_events:30 ~seed:22 ();
  let cat = Catalog.create () in
  Catalog.register_hep cat ~name_prefix:"h" ~path;
  cat

let table_over format path pairs =
  let cat = Catalog.create () in
  Catalog.register cat ~name:"t" ~path ~format ~schema:(Schema.of_pairs pairs);
  (cat, "t")

let jsonl_table format pairs line =
  let path = fresh_path ".jsonl" in
  Out_channel.with_open_bin path (fun oc ->
      for i = 0 to 9 do output_string oc (line i ^ "\n") done);
  table_over format path pairs

let ibx_table () =
  let path = fresh_path ".ibx" in
  Raw_formats.Ibx.write_file ~path ~dtypes:[| Dtype.Int; Dtype.Int |]
    ~indexed_field:0
    (Seq.init 20 (fun i -> [| Value.Int i; Value.Int (i * 3) |]));
  table_over Format_kind.Ibx path (int_cols 2)

(* The decisions of a full read and two same-shape fetches of column 1:
   [key] is the template key up to its phase (e.g. ["fwb|ibx-"]), [extra]
   its attributes before [needed], and [posmap] the number of columns a
   CSV positional map tracks. *)
let expected_reads ?(extra = "") ?posmap ~table ~format key =
  let kind = List.hd (String.split_on_char '|' key) in
  let kernel phase =
    Printf.sprintf "scan.kernel: jit (table=%s, format=%s, phase=%s)" table
      format phase
  in
  let pm choice =
    Option.to_list
      (Option.map
         (Printf.sprintf "posmap: %s (table=%s, tracked=%d)" choice table)
         posmap)
  in
  let template choice phase charged =
    Printf.sprintf
      "template_cache: %s (kind=%s.jit, key=%s%s|%s|%sneeded=1|err=fail%s)"
      choice kind key phase table extra charged
  in
  let compile phase = template "compile" phase ", charged_seconds=0.01" in
  let fetch = kernel "fetch, rows=2" in
  List.concat
    [ kernel "full" :: pm "build"; [ compile "seq"; fetch ]; pm "use";
      [ compile "fetch"; fetch ]; pm "use"; [ template "hit" "fetch" "" ] ]

(* A full read compiles, the first fetch compiles, a second fetch of the
   same shape at other rows hits. The kernel, posmap and template-cache
   decisions are pinned verbatim, so a changed template key or kernel
   choice shows here. *)
let reads_once_per_shape (name, table, expected) =
  let cat, table = table () in
  let entry = Catalog.get cat table in
  let read rows =
    ignore
      (Access.read cat ~mode:Access.Jit ~entry
         ~tracked:(Raw_formats.Posmap.every_k ~k:2 ~n_cols:6)
         ~cols:[ 1 ] rows)
  in
  let d = Raw_obs.Trace.create () in
  Raw_obs.Trace.with_handle d (fun () ->
      read Access.All;
      read (Access.Ids [| 1; 2 |]);
      read (Access.Ids [| 3; 0 |]));
  let tc = Catalog.templates cat in
  Alcotest.(check (pair int int)) (name ^ ": misses, hits") (2, 1)
    (Template_cache.misses tc, Template_cache.hits tc);
  let pinned = [ "scan.kernel"; "posmap"; "template_cache" ] in
  Alcotest.(check (list string)) (name ^ ": decisions") expected
    (List.filter_map
       (fun (r : Raw_obs.Trace.decision) ->
         if List.mem r.site pinned then
           Some (Format.asprintf "%a" Raw_obs.Trace.pp_decision r)
         else None)
       (Raw_obs.Trace.decisions (Raw_obs.Trace.spans d)))

let every_format =
  [
    ( "csv",
      (fun () -> (grid_cat (), "t")),
      expected_reads ~posmap:3 ~extra:"sep=','|tracked=0,2,4|" ~table:"t"
        ~format:"csv(sep=',')" "csv|" );
    ( "jsonl",
      (fun () ->
        jsonl_table Format_kind.Jsonl (int_cols 2) (fun i ->
            Printf.sprintf {|{"col0":%d,"col1":%d}|} i (i * 7))),
      expected_reads ~table:"t" ~format:"jsonl" "jsonl|" );
    ( "jsonl array",
      (fun () ->
        jsonl_table
          (Format_kind.Jsonl_array { array_path = "items" })
          [ ("parent", Dtype.Int); ("q", Dtype.Int) ]
          (fun i -> Printf.sprintf {|{"items":[{"q":%d},{"q":7}]}|} i)),
      expected_reads ~table:"t" ~format:"jsonl[items]" "jsonl|arr-" );
    ( "fwb",
      (fun () -> (fwb_cat (), "t")),
      expected_reads ~table:"t" ~format:"fwb" "fwb|" );
    ("ibx", ibx_table, expected_reads ~table:"t" ~format:"ibx" "fwb|ibx-");
    ( "hep events",
      (fun () -> (hep_cat (), "h_events")),
      expected_reads ~table:"h_events" ~format:"hep:events" "hep|" );
    ( "hep particles",
      (fun () -> (hep_cat (), "h_muons")),
      expected_reads ~table:"h_muons" ~format:"hep:muons" "hep|" );
  ]

let access_csv_tests =
  List.map
    (fun mode ->
      Alcotest.test_case
        (Printf.sprintf "csv fetch_columns correct (%s)" (Access.mode_to_string mode))
        `Quick
        (fun () ->
          let cat = grid_cat () in
          let rowids = [| 0; 3; 7; 19 |] in
          let out = fetch cat mode [ 1; 4 ] rowids in
          check_column "col1" (expected_col 1 rowids) out.(0);
          check_column "col4" (expected_col 4 rowids) out.(1);
          (* second call: subset of rows, different column *)
          let out2 = fetch cat mode [ 5 ] [| 2; 3 |] in
          check_column "col5" (expected_col 5 [| 2; 3 |]) out2.(0)))
    all_modes
  @ [
      Alcotest.test_case "posmap built once and reused" `Quick (fun () ->
          let cat = grid_cat () in
          let entry = Catalog.get cat "t" in
          Alcotest.(check bool) "no posmap initially" true (entry.state.posmap = None);
          ignore (fetch cat Access.Jit [ 0 ] (Array.init 20 Fun.id));
          (match entry.state.posmap with
           | None -> Alcotest.fail "posmap not built"
           | Some pm ->
             Alcotest.(check (array int)) "tracked every 2" [| 0; 2; 4 |]
               (Raw_formats.Posmap.tracked pm);
             Alcotest.(check int) "rows" 20 (Raw_formats.Posmap.n_rows pm));
          let pm1 = entry.state.posmap in
          ignore (fetch cat Access.Jit [ 3 ] [| 1 |]);
          Alcotest.(check bool) "same posmap" true (entry.state.posmap == pm1));
      Alcotest.test_case "shred pool avoids re-reading the file" `Quick (fun () ->
          let cat = grid_cat () in
          let rowids = [| 1; 5; 9 |] in
          ignore (fetch cat Access.Jit [ 2 ] rowids);
          let f = Catalog.file cat (Catalog.get cat "t") in
          let faults0 = Raw_storage.Mmap_file.faults f in
          let hits0 = Raw_storage.Mmap_file.hits f in
          let out = fetch cat Access.Jit [ 2 ] rowids in
          check_column "still correct" (expected_col 2 rowids) out.(0);
          Alcotest.(check int) "no new faults" faults0 (Raw_storage.Mmap_file.faults f);
          Alcotest.(check int) "no touches at all" hits0 (Raw_storage.Mmap_file.hits f));
      Alcotest.test_case "shred pool serves subset of cached rows" `Quick (fun () ->
          let cat = grid_cat () in
          ignore (fetch cat Access.Jit [ 2 ] [| 1; 5; 9 |]);
          let pool = Catalog.shreds cat in
          let h0 = Shred_pool.hits pool in
          let out = fetch cat Access.Jit [ 2 ] [| 5; 9 |] in
          check_column "subset" (expected_col 2 [| 5; 9 |]) out.(0);
          Alcotest.(check int) "pool hit" (h0 + 1) (Shred_pool.hits pool));
      Alcotest.test_case "pool extends with missing rows only" `Quick (fun () ->
          let cat = grid_cat () in
          (* build the posmap first (pools col0 as a complete column) *)
          ignore (fetch cat Access.Jit [ 0 ] (Array.init 20 Fun.id));
          (* partial shred for col2 via the posmap *)
          ignore (fetch cat Access.Jit [ 2 ] [| 1; 5 |]);
          Raw_storage.Io_stats.reset "csv.values_converted";
          let out = fetch cat Access.Jit [ 2 ] [| 1; 5; 7 |] in
          check_column "extended" (expected_col 2 [| 1; 5; 7 |]) out.(0);
          (* only row 7 converted *)
          Alcotest.(check int) "one conversion" 1
            (Raw_storage.Io_stats.get "csv.values_converted"));
      Alcotest.test_case "external mode re-reads every call" `Quick (fun () ->
          let cat = grid_cat () in
          Raw_storage.Io_stats.reset "csv.values_converted";
          ignore (fetch cat Access.External [ 0 ] [| 0 |]);
          let c1 = Raw_storage.Io_stats.get "csv.values_converted" in
          ignore (fetch cat Access.External [ 0 ] [| 0 |]);
          let c2 = Raw_storage.Io_stats.get "csv.values_converted" in
          Alcotest.(check bool) "full table each time" true (c1 = 20 * 6);
          Alcotest.(check int) "doubled" (2 * c1) c2);
      Alcotest.test_case "dbms loads once then never touches file" `Quick (fun () ->
          let cat = grid_cat () in
          ignore (fetch cat Access.Dbms [ 0 ] [| 0 |]);
          let f = Catalog.file cat (Catalog.get cat "t") in
          let faults0 = Raw_storage.Mmap_file.faults f in
          let hits0 = Raw_storage.Mmap_file.hits f in
          let out = fetch cat Access.Dbms [ 3 ] [| 4; 6 |] in
          check_column "from loaded" (expected_col 3 [| 4; 6 |]) out.(0);
          Alcotest.(check int) "no faults" faults0 (Raw_storage.Mmap_file.faults f);
          Alcotest.(check int) "no hits" hits0 (Raw_storage.Mmap_file.hits f));
      Alcotest.test_case "jit charges template cache once per shape" `Quick (fun () ->
          let cat = grid_cat () in
          let tc = Catalog.templates cat in
          (* builds the posmap, compiles the "seq" template *)
          ignore (fetch cat Access.Jit [ 0 ] (Array.init 20 Fun.id));
          (* compiles the "fetch" template for column 3 *)
          ignore (fetch cat Access.Jit [ 3 ] [| 1; 2 |]);
          let misses_after = Template_cache.misses tc in
          (* same kernel shape, different rows: the pool is cleared so the
             file must be re-read, but no new template is compiled *)
          Shred_pool.clear (Catalog.shreds cat);
          ignore (fetch cat Access.Jit [ 3 ] [| 7; 9 |]);
          Alcotest.(check int) "no new compile for same shape" misses_after
            (Template_cache.misses tc);
          Alcotest.(check bool) "hit recorded" true (Template_cache.hits tc > 0));
      Alcotest.test_case "in_situ mode never charges templates" `Quick (fun () ->
          let cat = grid_cat () in
          let tc = Catalog.templates cat in
          ignore (fetch cat Access.In_situ [ 0; 2 ] [| 0; 1 |]);
          Alcotest.(check int) "no compiles" 0 (Template_cache.misses tc));
      Alcotest.test_case "interpreted and jit produce identical columns" `Quick
        (fun () ->
          (* same catalog state for both: build two fresh catalogs *)
          let run mode =
            let cat = grid_cat () in
            let a = fetch cat mode [ 0; 3; 5 ] (Array.init 20 Fun.id) in
            let b = fetch cat mode [ 1 ] [| 3; 4; 11 |] in
            (a, b)
          in
          let (ja, jb) = run Access.Jit in
          let (ia, ib) = run Access.In_situ in
          Array.iteri (fun k c -> check_column "full scan" c ia.(k)) ja;
          check_column "fetch" jb.(0) ib.(0));
    ]

(* ---------------- base_scan / late_scan ---------------- *)

let op_tests =
  [
    Alcotest.test_case "base_scan streams all rowids in chunks" `Quick (fun () ->
        let config = { Config.default with chunk_rows = 7 } in
        let path = write_csv_rows (grid_rows 20 2) in
        let cat = Catalog.create ~config () in
        Catalog.register cat ~name:"t" ~path ~format:(Format_kind.Csv { sep = ',' })
          ~schema:(Schema.of_pairs (int_cols 2));
        let op = Access.base_scan cat (Catalog.get cat "t") in
        let chunks = Raw_engine.Operator.collect op in
        Alcotest.(check int) "chunk count" 3 (List.length chunks);
        let all = Chunk.concat chunks in
        check_column "identity rowids" (Column.of_int_array (Array.init 20 Fun.id))
          (Chunk.column all 0));
    Alcotest.test_case "late_scan appends fetched columns" `Quick (fun () ->
        let cat = grid_cat () in
        let entry = Catalog.get cat "t" in
        let input =
          Raw_engine.Operator.of_chunks
            [ Chunk.of_columns [ Column.of_int_array [| 2; 4; 9 |] ] ]
        in
        let op =
          Access.late_scan cat ~mode:Access.Jit ~entry ~tracked:[ 0 ] ~cols:[ 1; 3 ]
            ~rowid_pos:0 input
        in
        let c = Raw_engine.Operator.to_chunk op in
        Alcotest.(check int) "arity" 3 (Chunk.n_cols c);
        check_column "col1" (expected_col 1 [| 2; 4; 9 |]) (Chunk.column c 1);
        check_column "col3" (expected_col 3 [| 2; 4; 9 |]) (Chunk.column c 2));
  ]

(* ---------------- FWB / HEP access parity ---------------- *)

let parity_tests =
  [
    Alcotest.test_case "fwb: all modes agree" `Quick (fun () ->
        let reference = ref None in
        List.iter
          (fun mode ->
            let cat = fwb_cat () in
            let out =
              Access.fetch_columns cat ~mode ~entry:(Catalog.get cat "t") ~tracked:[]
                ~cols:[ 0; 1; 2 ] ~rowids:[| 0; 7; 24 |]
            in
            match !reference with
            | None -> reference := Some out
            | Some r -> Array.iteri (fun k c -> check_column "parity" c out.(k)) r)
          all_modes);
    Alcotest.test_case "hep events: all modes agree" `Quick (fun () ->
        let reference = ref None in
        List.iter
          (fun mode ->
            let cat = hep_cat () in
            let out =
              Access.fetch_columns cat ~mode ~entry:(Catalog.get cat "h_events")
                ~tracked:[] ~cols:[ 0; 1 ] ~rowids:[| 0; 5; 29 |]
            in
            match !reference with
            | None -> reference := Some out
            | Some r -> Array.iteri (fun k c -> check_column "parity" c out.(k)) r)
          all_modes);
    Alcotest.test_case "hep particles match object API" `Quick (fun () ->
        let cat = hep_cat () in
        let entry = Catalog.get cat "h_muons" in
        let n = Catalog.n_rows cat entry in
        if n = 0 then Alcotest.fail "no muons generated";
        let rowids = Array.init (min n 10) Fun.id in
        let out =
          Access.fetch_columns cat ~mode:Access.Jit ~entry ~tracked:[]
            ~cols:[ 0; 1; 2 ] ~rowids
        in
        let reader = Catalog.hep_reader cat entry in
        let entry_of, item_of = Catalog.hep_index cat entry in
        Array.iteri
          (fun k r ->
            let ev = Raw_formats.Hep.Reader.get_entry reader entry_of.(r) in
            let mu = ev.muons.(item_of.(r)) in
            check_value "event id" (Int ev.event_id) (Column.get out.(0) k);
            check_value "pt" (Float mu.pt) (Column.get out.(1) k);
            check_value "eta" (Float mu.eta) (Column.get out.(2) k))
          rowids);
  ]

let template_tests =
  List.map
    (fun ((name, _, _) as case) ->
      Alcotest.test_case (name ^ ": jit charges template cache once per shape")
        `Quick (fun () -> reads_once_per_shape case))
    every_format

let suites =
  [
    ("access.csv", access_csv_tests);
    ("access.templates", template_tests);
    ("access.operators", op_tests);
    ("access.parity", parity_tests);
  ]
