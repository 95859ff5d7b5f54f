(* Refresh in proportion to what changed. A verified append extends the
   catalog's per-file state over the new rows; any other change drops it.
   Every case checks the refreshed engine against a fresh engine over the
   same bytes: answers, and the state itself (row starts, positional-map
   positions, row counts, every fetched shred value and validity bit). *)

open Raw_vector
open Raw_storage
open Raw_formats
open Raw_core
open Test_util
module Gen = QCheck2.Gen

let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let append path s =
  Out_channel.with_open_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path
    (fun oc -> output_string oc s)

(* What one refresh of [table] did: "unchanged", "extend", or
   "invalidate:<reason>" — read from its one catalog decision. *)
let refresh db table =
  let h = Raw_obs.Trace.create () in
  let touched =
    Raw_obs.Trace.with_handle h (fun () -> Raw_db.refresh_tables db [ table ])
  in
  match decisions_at "catalog" (Raw_obs.Trace.spans h) with
  | [] ->
    Alcotest.(check (list string)) "nothing touched" [] touched;
    "unchanged"
  | [ { choice = "extend_file"; _ } ] -> "extend"
  | [ { choice = "invalidate_file"; inputs; _ } ] -> "invalidate:" ^ List.assoc "reason" inputs
  | _ -> Alcotest.fail "expected one catalog decision per refresh"

let answer db q =
  match Raw_db.sql db q with
  | c -> Ok (List.init (Chunk.n_rows c) (Chunk.row c))
  | exception _ -> Error "query failed"

let answer_t = Alcotest.(result (list (list value_testable)) string)

let entry db = Catalog.get (Raw_db.catalog db) "t"

let columns = [ ("id", Dtype.Int); ("a", Dtype.Int); ("b", Dtype.Float); ("s", Dtype.String) ]

let make_db ?(policy = Scan_errors.Fail_fast) fmt path =
  let config = { Config.default with Config.on_error = policy; chunk_rows = 64 } in
  let db = Raw_db.create ~config () in
  (match fmt with
   | `Csv -> Raw_db.register_csv db ~name:"t" ~path ~columns ()
   | `Jsonl -> Raw_db.register_jsonl db ~name:"t" ~path ~columns);
  db

(* The refreshed engine's state equals the fresh one's wherever both hold
   it; every row both shred pools cover holds the same value and bit. *)
let check_state ~what ext fresh =
  let e = entry ext and f = entry fresh in
  let both name a b check =
    match (a, b) with Some a, Some b -> check (what ^ ": " ^ name) a b | _ -> ()
  in
  both "n_rows" e.state.n_rows f.state.n_rows Alcotest.(check int);
  both "row starts" e.state.row_starts f.state.row_starts Alcotest.(check (array int));
  both "posmap" e.state.posmap f.state.posmap (fun what a b ->
      Alcotest.(check (array int)) (what ^ " tracked") (Posmap.tracked a) (Posmap.tracked b);
      Array.iter
        (fun c ->
          Alcotest.(check (array int)) (what ^ " positions") (Posmap.positions a c)
            (Posmap.positions b c);
          Alcotest.(check (option (array int))) (what ^ " lengths") (Posmap.lengths a c)
            (Posmap.lengths b c))
        (Posmap.tracked a));
  let pool db = Catalog.shreds (Raw_db.catalog db) in
  List.iteri
    (fun c _ ->
      let key = { Shred_pool.table = "t"; column = c } in
      match (Shred_pool.find (pool ext) key, Shred_pool.find (pool fresh) key) with
      | Some a, Some b ->
        let ca = Shred_pool.column a and cb = Shred_pool.column b in
        Alcotest.(check int) (what ^ ": shred length") (Column.length cb) (Column.length ca);
        for r = 0 to Column.length ca - 1 do
          if Shred_pool.covered a r && Shred_pool.covered b r then begin
            Alcotest.(check bool)
              (Printf.sprintf "%s: col %d row %d validity" what c r)
              (Column.is_valid cb r) (Column.is_valid ca r);
            check_value (Printf.sprintf "%s: col %d row %d" what c r) (Column.get cb r)
              (Column.get ca r)
          end
        done
      | _ -> ())
    columns

let queries =
  [
    "SELECT COUNT(*), SUM(a), MAX(b), COUNT(s) FROM t";
    "SELECT SUM(b), COUNT(a) FROM t WHERE id < 40";
    "SELECT id, s FROM t WHERE a > 500 ORDER BY id LIMIT 4";
  ]

(* Run [queries] on [db] and on a fresh engine over the same bytes;
   compare answers, then state. *)
let check_against_fresh ~what ?policy fmt path db =
  let fresh = make_db ?policy fmt path in
  List.iter
    (fun q -> Alcotest.check answer_t (what ^ ": " ^ q) (answer fresh q) (answer db q))
    queries;
  check_state ~what db fresh

(* ------------------------------------------------------------------ *)
(* Identity is stamped from the bytes read                             *)
(* ------------------------------------------------------------------ *)

let stamped_size db =
  match (entry db).state.identity with
  | Some id -> id.File_id.size
  | None -> Alcotest.fail "no identity after open"

let contents f = Bytes.sub_string (Mmap_file.bytes f) 0 (Mmap_file.length f)

let extend_ok ~old path =
  match Mmap_file.extend ~old path with
  | Ok f -> f
  | Error _ -> Alcotest.fail "expected the file to extend"

let mmap_tests =
  [
    Alcotest.test_case "extend grows in place, never under a newer view" `Quick (fun () ->
        let path = fresh_path ".log" in
        write path "aaaa\n";
        let f0 = Mmap_file.open_file path in
        Mmap_file.touch f0 0 5;
        append path "bbbb\n";
        let f1 = extend_ok ~old:f0 path in
        Alcotest.(check string) "grown" "aaaa\nbbbb\n" (contents f1);
        Alcotest.(check string) "old view unchanged" "aaaa\n" (contents f0);
        Alcotest.(check int) "old page stays resident" 1 (Mmap_file.resident_pages f1);
        append path "c\n";
        let f2 = extend_ok ~old:f1 path in
        Alcotest.(check bool) "second append fills the spare room" true
          (Mmap_file.bytes f2 == Mmap_file.bytes f1);
        Alcotest.(check string) "grown again" "aaaa\nbbbb\nc\n" (contents f2);
        (* the same inode, f1's bytes and a different tail: f1 may extend
           again, but not into the bytes f2 holds *)
        write path "aaaa\nbbbb\nz\n";
        let f1' = extend_ok ~old:f1 path in
        Alcotest.(check bool) "a stale view copies" false
          (Mmap_file.bytes f1' == Mmap_file.bytes f2);
        Alcotest.(check string) "newer view untouched" "aaaa\nbbbb\nc\n" (contents f2);
        Alcotest.(check string) "stale view grown" "aaaa\nbbbb\nz\n" (contents f1');
        write path "xaaa\nbbbb\nc\nd\n";
        Alcotest.(check bool) "an edited prefix is refused" true
          (Mmap_file.extend ~old:f2 path = Error `Prefix);
        write path "aaaa\n";
        Alcotest.(check bool) "a shrunk file is refused" true
          (match Mmap_file.extend ~old:f2 path with Error (`Stamp _) -> true | _ -> false));
  ]

let identity_tests =
  [
    Alcotest.test_case "identity size equals the bytes held, after open and extension"
      `Quick (fun () ->
        let path = fresh_path ".jsonl" in
        write path "{\"id\":1,\"a\":2}\n{\"id\":2,\"a\":3}\n";
        let file = Mmap_file.open_file path in
        Alcotest.(check (option int)) "open_file stamps what it read"
          (Some (Mmap_file.length file))
          (Option.map (fun id -> id.File_id.size) (Mmap_file.identity file));
        let db = make_db `Jsonl path in
        ignore (answer db "SELECT SUM(a) FROM t");
        let held () = Mmap_file.length (Catalog.file (Raw_db.catalog db) (entry db)) in
        Alcotest.(check int) "after open" (held ()) (stamped_size db);
        append path "{\"id\":3,\"a\":4}\n";
        Alcotest.(check string) "append extends" "extend" (refresh db "t");
        Alcotest.(check int) "after extension" (held ()) (stamped_size db);
        Alcotest.(check int) "holds the grown file" (Unix.stat path).Unix.st_size (held ());
        Alcotest.(check string) "stamp is current" "unchanged" (refresh db "t"));
  ]

(* ------------------------------------------------------------------ *)
(* Shred coverage is kept apart from NULLs                             *)
(* ------------------------------------------------------------------ *)

let coverage_tests =
  [
    Alcotest.test_case "fetched NULLs are not fetched again" `Quick (fun () ->
        let path = fresh_path ".jsonl" in
        Out_channel.with_open_bin path (fun oc ->
            for i = 0 to 1999 do
              if i mod 10 = 0 then Printf.fprintf oc "{\"id\":%d}\n" i
              else Printf.fprintf oc "{\"id\":%d,\"b\":%d}\n" i (i * 3)
            done);
        let db = Raw_db.create () in
        Raw_db.register_jsonl db ~name:"t" ~path ~columns:[ ("id", Dtype.Int); ("b", Dtype.Int) ];
        let q = "SELECT SUM(b) FROM t WHERE id < 1500" in
        let expected =
          List.init 1500 Fun.id |> List.filter (fun i -> i mod 10 <> 0) |> List.fold_left (fun a i -> a + (3 * i)) 0
        in
        check_value "first answer" (Int expected) (Raw_db.scalar db q);
        for k = 1 to 3 do
          let extracted = Io_stats.get "jsonl.values_extracted"
          and misses = Io_stats.get "pool.misses" in
          check_value "repeat answer" (Int expected) (Raw_db.scalar db q);
          Alcotest.(check int) (Printf.sprintf "repeat %d extracts nothing" k) 0
            (Io_stats.get "jsonl.values_extracted" - extracted);
          Alcotest.(check int) (Printf.sprintf "repeat %d misses no shred" k) 0
            (Io_stats.get "pool.misses" - misses)
        done);
  ]

(* NULL-heavy files: CSV under Null_fill (a bad cell is NULL), JSONL
   with absent fields. Repeated, overlapping range queries over one
   long-lived engine answer exactly as a fresh engine does. *)
let null_heavy_file fmt cells =
  let path = fresh_path (match fmt with `Csv -> ".csv" | `Jsonl -> ".jsonl") in
  Out_channel.with_open_bin path (fun oc ->
      List.iteri
        (fun i (a, b) ->
          match fmt with
          | `Csv ->
            Printf.fprintf oc "%d,%s,%s,s%d\n" i
              (Option.fold ~none:"x" ~some:string_of_int a)
              (Option.fold ~none:"" ~some:(Printf.sprintf "%d.5") b)
              i
          | `Jsonl ->
            let field k f = Option.fold ~none:"" ~some:(fun v -> Printf.sprintf ",\"%s\":%s" k (f v)) in
            Printf.fprintf oc "{\"id\":%d%s%s,\"s\":\"s%d\"}\n" i
              (field "a" string_of_int a)
              (field "b" (Printf.sprintf "%d.5") b)
              i)
        cells);
  path

let prop_coverage fmt name =
  let cell = Gen.(option ~ratio:0.5 (int_range 0 999)) in
  qtest ~count:25 name
    Gen.(
      pair
        (list_size (int_range 1 300) (pair cell cell))
        (list_size (int_range 1 8) (pair (int_range 0 300) (int_range 0 300))))
    (fun (cells, ranges) ->
      let path = null_heavy_file fmt cells in
      let policy = Scan_errors.Null_fill in
      let db = make_db ~policy fmt path in
      List.for_all
        (fun (lo, hi) ->
          let q =
            Printf.sprintf
              "SELECT COUNT(*), COUNT(a), SUM(a), COUNT(b), SUM(b), MIN(s) FROM t WHERE \
               id >= %d AND id < %d"
              (min lo hi) (max lo hi)
          in
          (* twice: the second run answers from the shreds the first left *)
          let fresh = answer (make_db ~policy fmt path) q in
          answer db q = fresh && answer db q = fresh)
        ranges)

let coverage_props =
  [
    prop_coverage `Csv "repeated range queries over NULL-heavy CSV match a fresh engine";
    prop_coverage `Jsonl "repeated range queries over NULL-heavy JSONL match a fresh engine";
  ]

(* ------------------------------------------------------------------ *)
(* Differential appends                                                *)
(* ------------------------------------------------------------------ *)

(* One appended line. [Partial] writes the first half of a row without its
   newline; the next batch starts with the rest. *)
type line = Row of int option * bool | Crlf | Blank | Broken | Partial

(* CSV has no NULL under Fail_fast: an empty int cell fails the query,
   so CSV rows lose their [a] more rarely *)
let line_gen fmt =
  let ratio = match fmt with `Csv -> 0.95 | `Jsonl -> 0.7 in
  Gen.(
    frequency
      [
        (12, map2 (fun a wide -> Row (a, wide)) (option ~ratio (int_range 0 999)) bool);
        (2, pure Crlf);
        (2, pure Blank);
        (1, pure Broken);
        (1, pure Partial);
      ])

(* a row's text, its id taken from a running counter *)
let render fmt id ~a ~wide =
  match fmt with
  | `Csv ->
    Printf.sprintf "%d,%s,%d.25,%s" id
      (Option.fold ~none:"" ~some:string_of_int a)
      (id mod 7)
      (if wide then "wide-" ^ string_of_int id else "n")
  | `Jsonl ->
    Printf.sprintf "{\"id\":%d%s,\"b\":%d.25,\"s\":\"%s\"}" id
      (Option.fold ~none:"" ~some:(Printf.sprintf ",\"a\":%d") a)
      (id mod 7)
      (if wide then "wide-" ^ string_of_int id else "n")

let broken = function `Csv -> "7,seven,x.5,q" | `Jsonl -> "{\"id\":\"seven\",\"a\":1}"

(* Text of each batch, and whether it ends inside a row: a [Partial]
   line ends its batch, and the next batch starts with the row's rest. *)
let batches_text fmt batches =
  let next = ref 0 and tail = ref None in
  List.map
    (fun lines ->
      let b = Buffer.create 256 in
      Option.iter (fun t -> Buffer.add_string b (t ^ "\n")) !tail;
      tail := None;
      let rec go = function
        | [] -> ()
        | l :: rest -> (
          incr next;
          let row () = render fmt !next ~a:(Some (!next * 13 mod 1000)) ~wide:false in
          match l with
          | Row (a, wide) -> Buffer.add_string b (render fmt !next ~a ~wide ^ "\n"); go rest
          | Crlf -> Buffer.add_string b (row () ^ "\r\n"); go rest
          | Blank -> Buffer.add_string b "\n"; go rest
          | Broken -> Buffer.add_string b (broken fmt ^ "\n"); go rest
          | Partial ->
            let r = row () in
            let cut = String.length r / 2 in
            Buffer.add_string b (String.sub r 0 cut);
            tail := Some (String.sub r cut (String.length r - cut)))
      in
      go lines;
      (Buffer.contents b, !tail <> None))
    batches

let prop_appends fmt policy =
  let fmt_name = match fmt with `Csv -> "CSV" | `Jsonl -> "JSONL" in
  qtest ~count:12
    (Printf.sprintf "%s appends under %s match a fresh engine, state bit for bit" fmt_name
       (Scan_errors.policy_to_string policy))
    Gen.(
      pair (int_range 1 120)
        (list_size (int_range 1 6) (list_size (int_range 1 12) (line_gen fmt))))
    (fun (n0, batches) ->
      let path = fresh_path (match fmt with `Csv -> ".csv" | `Jsonl -> ".jsonl") in
      write path
        (String.concat ""
           (List.init n0 (fun i -> render fmt (1000 + i) ~a:(Some (i * 7 mod 1000)) ~wide:(i mod 3 = 0) ^ "\n")));
      let db = make_db ~policy fmt path in
      check_against_fresh ~what:"initial" ~policy fmt path db;
      let partial = ref false in
      List.iteri
        (fun k (text, ends_partial) ->
          let what = Printf.sprintf "append %d" k in
          append path text;
          Alcotest.(check string) (what ^ " outcome")
            (if !partial then "invalidate:partial_line" else "extend")
            (refresh db "t");
          partial := ends_partial;
          check_against_fresh ~what ~policy fmt path db)
        (batches_text fmt batches);
      true)

let append_props =
  List.concat_map
    (fun fmt ->
      List.map (prop_appends fmt)
        Scan_errors.[ Fail_fast; Skip_row; Null_fill ])
    [ `Csv; `Jsonl ]

(* ------------------------------------------------------------------ *)
(* Every other change falls back                                       *)
(* ------------------------------------------------------------------ *)

let rows fmt lo hi =
  String.concat ""
    (List.init (hi - lo) (fun i -> render fmt (lo + i) ~a:(Some ((lo + i) * 3 mod 1000)) ~wide:true ^ "\n"))

(* [change] alters the file behind a warmed engine; the refresh must fall
   back for [reason], count it, and the engine then answer as a fresh one. *)
let fallback ?(fmt = `Jsonl) ?(name = "") reason change =
  Alcotest.test_case (Printf.sprintf "%s falls back (%s)" (match fmt with `Csv -> "csv" | `Jsonl -> "jsonl") reason) `Quick
    (fun () ->
      let path = fresh_path (name ^ match fmt with `Csv -> ".csv" | `Jsonl -> ".jsonl") in
      write path (rows fmt 0 100);
      let db = make_db fmt path in
      List.iter (fun q -> ignore (answer db q)) queries;
      change path;
      let ext = Io_stats.get "catalog.extends" and inv = Io_stats.get "catalog.invalidations" in
      Alcotest.(check string) "outcome" ("invalidate:" ^ reason) (refresh db "t");
      Alcotest.(check int) "no extension counted" 0 (Io_stats.get "catalog.extends" - ext);
      Alcotest.(check int) "fallback counted" 1 (Io_stats.get "catalog.invalidations" - inv);
      check_against_fresh ~what:reason fmt path db)

let same_size_rewrite path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let st = Unix.stat path in
  write path (String.map (fun c -> if c = '9' then '8' else c) text);
  Unix.utimes path (st.Unix.st_mtime +. 2.) (st.Unix.st_mtime +. 2.)

let prefix_edit fmt path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  (* same inode: rewritten through O_TRUNC, then grown *)
  write path (String.map (fun c -> if c = '7' then '6' else c) text ^ rows fmt 100 120)

let rename_replace fmt path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let tmp = path ^ ".new" in
  write tmp (text ^ rows fmt 100 120);
  Sys.rename tmp path

(* Fault injection is configured through the environment, read at open
   time; scope it to one file name and restore it afterwards. *)
let with_fault_env f =
  let set =
    [ ("RAW_FAULT_SEED", "7"); ("RAW_FAULT_FLIP", "0"); ("RAW_FAULT_TRUNC", "0");
      ("RAW_FAULT_TRUNCATE", "0"); ("RAW_FAULT_ONLY", "_refresh_injected") ]
  in
  let saved = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) set in
  List.iter (fun (k, v) -> Unix.putenv k v) set;
  Fun.protect f ~finally:(fun () ->
      List.iter (fun (k, v) -> Unix.putenv k (Option.value v ~default:"")) saved)

(* a prefix edit after in-place extensions: the compare runs against
   the shared, grown buffer *)
let prefix_after_extensions =
  Alcotest.test_case "jsonl falls back (prefix, after extensions)" `Quick (fun () ->
      let path = fresh_path ".jsonl" in
      write path (rows `Jsonl 0 100);
      let db = make_db `Jsonl path in
      List.iter (fun q -> ignore (answer db q)) queries;
      List.iteri
        (fun k (lo, hi) ->
          append path (rows `Jsonl lo hi);
          Alcotest.(check string) (Printf.sprintf "append %d" k) "extend" (refresh db "t");
          check_against_fresh ~what:(Printf.sprintf "append %d" k) `Jsonl path db)
        [ (100, 110); (110, 111); (111, 120) ];
      prefix_edit `Jsonl path;
      Alcotest.(check string) "outcome" "invalidate:prefix" (refresh db "t");
      check_against_fresh ~what:"prefix" `Jsonl path db)

let fault_injected_open =
  Alcotest.test_case "jsonl falls back (fault)" `Quick (fun () ->
      with_fault_env (fun () ->
          let path = fresh_path "_refresh_injected.jsonl" in
          write path (rows `Jsonl 0 100);
          let db = make_db `Jsonl path in
          List.iter (fun q -> ignore (answer db q)) queries;
          Alcotest.(check bool) "opened under a fault" true
            (Mmap_file.faulted (Catalog.file (Raw_db.catalog db) (entry db)));
          append path (rows `Jsonl 100 120);
          Alcotest.(check string) "outcome" "invalidate:fault" (refresh db "t");
          check_against_fresh ~what:"fault" `Jsonl path db))

(* Formats with no append-extension fall back for [format], then answer
   as a fresh engine (an error included, for an IBX file whose footer the
   append displaced). *)
let format_fallback name ~make ~register ~table ~query ~grow =
  Alcotest.test_case (name ^ " falls back (format)") `Quick (fun () ->
      let path = make () in
      let db = register path in
      Alcotest.(check bool) "warm query answers" true (Result.is_ok (answer db query));
      grow path;
      let inv = Io_stats.get "catalog.invalidations" in
      Alcotest.(check string) "outcome" "invalidate:format" (refresh db table);
      Alcotest.(check int) "fallback counted" 1 (Io_stats.get "catalog.invalidations" - inv);
      Alcotest.check answer_t "answers as a fresh engine" (answer (register path) query)
        (answer db query))

let int2 = [| Dtype.Int; Dtype.Int |]

let grow_by_first_bytes n path =
  append path (String.sub (In_channel.with_open_bin path In_channel.input_all) 0 n)

let format_fallbacks =
  [
    format_fallback "fwb" ~table:"t" ~query:"SELECT SUM(col0), COUNT(*) FROM t"
      ~make:(fun () ->
        let path = fresh_path ".fwb" in
        Fwb.generate ~path ~n_rows:50 ~dtypes:int2 ~seed:3 ();
        path)
      ~register:(fun path ->
        let db = Raw_db.create () in
        Raw_db.register_fwb db ~name:"t" ~path ~columns:(int_cols 2);
        db)
      ~grow:(grow_by_first_bytes (Fwb.row_size (Fwb.layout int2)));
    format_fallback "ibx" ~table:"t" ~query:"SELECT SUM(col1) FROM t WHERE col0 > 0"
      ~make:(fun () ->
        let path = fresh_path ".ibx" in
        Ibx.generate ~path ~n_rows:50 ~dtypes:int2 ~indexed_field:0 ~seed:3 ();
        path)
      ~register:(fun path ->
        let db = Raw_db.create () in
        Raw_db.register_ibx db ~name:"t" ~path ~columns:(int_cols 2);
        db)
      ~grow:(grow_by_first_bytes 16);
    format_fallback "hep" ~table:"h_muons" ~query:"SELECT COUNT(*), MAX(pt) FROM h_muons"
      ~make:(fun () ->
        let path = fresh_path ".hep" in
        Hep.generate ~path ~n_events:30 ~seed:22 ();
        path)
      ~register:(fun path ->
        let db = Raw_db.create () in
        Raw_db.register_hep db ~name_prefix:"h" ~path;
        db)
      ~grow:(fun path -> append path (String.make 64 '\000'));
    format_fallback "jsonl child table" ~table:"items" ~query:"SELECT COUNT(*), SUM(qty) FROM items"
      ~make:(fun () ->
        let path = fresh_path ".jsonl" in
        write path
          ({|{"id":0,"items":[{"qty":2},{"qty":5}]}|} ^ "\n" ^ {|{"id":1,"items":[]}|} ^ "\n");
        path)
      ~register:(fun path ->
        let db = Raw_db.create () in
        Raw_db.register_jsonl_array db ~name:"items" ~path ~array_path:"items"
          ~columns:[ ("qty", Dtype.Int) ];
        db)
      ~grow:(fun path -> append path ({|{"id":2,"items":[{"qty":9}]}|} ^ "\n"));
  ]

let fallback_tests =
  [
    fallback "truncated" (fun path -> write path (rows `Jsonl 0 60));
    fallback ~fmt:`Csv "truncated" (fun path -> write path (rows `Csv 0 60));
    fallback "rewritten" same_size_rewrite;
    fallback ~fmt:`Csv "rewritten" same_size_rewrite;
    fallback "prefix" (prefix_edit `Jsonl);
    fallback ~fmt:`Csv "prefix" (prefix_edit `Csv);
    fallback "replaced" (rename_replace `Jsonl);
    fallback ~fmt:`Csv "replaced" (rename_replace `Csv);
    prefix_after_extensions;
    fault_injected_open;
  ]
  @ format_fallbacks

let suites =
  [
    ("refresh:mmap", mmap_tests);
    ("refresh:identity", identity_tests);
    ("refresh:coverage", coverage_tests @ coverage_props);
    ("refresh:appends", append_props);
    ("refresh:fallbacks", fallback_tests);
  ]
