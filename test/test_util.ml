(* Shared helpers for the test suites. *)

open Raw_vector

let temp_dir =
  lazy
    (let dir = Filename.temp_file "raw_test" "" in
     Sys.remove dir;
     Unix.mkdir dir 0o755;
     at_exit (fun () ->
         match Sys.readdir dir with
         | files ->
           Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ()) files;
           (try Unix.rmdir dir with _ -> ())
         | exception _ -> ());
     dir)

let fresh_path =
  let counter = ref 0 in
  fun suffix ->
    incr counter;
    Filename.concat (Lazy.force temp_dir)
      (Printf.sprintf "f%d%s" !counter suffix)

(* Write a CSV with explicit integer rows. *)
let write_csv_rows rows =
  let path = fresh_path ".csv" in
  Raw_formats.Csv.write_file ~path ~header:None
    ~rows:(List.to_seq (List.map (List.map string_of_int) rows))
    ();
  path

let int_cols n = List.init n (fun i -> (Printf.sprintf "col%d" i, Dtype.Int))

(* A small deterministic table: n rows, m int columns where
   cell (r, c) = r * 100 + c  — easy to predict in assertions. *)
let grid_rows n m =
  List.init n (fun r -> List.init m (fun c -> (r * 100) + c))

let grid_csv_db ?config ?(n = 50) ?(m = 5) () =
  let path = write_csv_rows (grid_rows n m) in
  let db = Raw_core.Raw_db.create ?config () in
  Raw_core.Raw_db.register_csv db ~name:"t" ~path ~columns:(int_cols m) ();
  db

(* Random generated CSV + FWB twins over the same data. *)
let twin_files ~n_rows ~dtypes ~seed =
  let csv = fresh_path ".csv" in
  let fwb = fresh_path ".fwb" in
  Raw_formats.Csv.generate ~path:csv ~n_rows ~dtypes ~seed ();
  Raw_formats.Fwb.generate ~path:fwb ~n_rows ~dtypes ~seed ();
  (csv, fwb)

let value_testable =
  Alcotest.testable Value.pp Value.equal

let column_testable = Alcotest.testable Column.pp Column.equal

let chunk_testable = Alcotest.testable Chunk.pp Chunk.equal

let check_value = Alcotest.check value_testable
let check_column = Alcotest.check column_testable
let check_chunk = Alcotest.check chunk_testable

let scalar_of (report : Raw_core.Executor.report) =
  Column.get (Chunk.column report.chunk 0) 0

(* The decision events recorded at [site], in recording order. *)
let decisions_at site spans =
  List.filter
    (fun (d : Raw_obs.Trace.decision) -> d.site = site)
    (Raw_obs.Trace.decisions spans)

(* Sorted row-lists make result comparison order-insensitive. *)
let rows_of_chunk c =
  List.init (Chunk.n_rows c) (Chunk.row c) |> List.sort Stdlib.compare

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)
