(* E1-E4: Section 4 of the paper — JIT access paths vs the alternatives. *)

open Raw_vector
open Raw_core
open Bench_util

(* ------------------------------------------------------------------ *)
(* E1 — Figure 1a: first (cold) query over the 30-column CSV file.     *)
(* Expected shape: DBMS ≈ External > In-Situ ≈ JIT; I/O dominates all. *)
(* ------------------------------------------------------------------ *)

let e1 () =
  header "E1 / Figure 1a — CSV cold run: SELECT MAX(col0) WHERE col0 < X"
    "Paper: ~220s DBMS/External vs ~170s In-Situ/JIT (I/O masks the rest).\n\
     Expect: DBMS ~ External > In-Situ ~ JIT; io(sim) dominant everywhere;\n\
     JIT additionally pays one-off compile(sim).";
  let x = sel_to_x 0.5 in
  let q = Printf.sprintf "SELECT MAX(col0) FROM t30 WHERE col0 < %d" x in
  let variants =
    [
      ("DBMS", opts ~access:Access.Dbms ());
      ("External", opts ~access:Access.External ());
      ("In-Situ", opts ~access:Access.In_situ ());
      ("JIT", opts ~access:Access.Jit ());
    ]
  in
  let rows =
    List.map
      (fun (name, o) ->
        (* best of 3 cold runs (fresh engine each time) *)
        let best = ref None in
        for _ = 1 to 3 do
          let db = db_q30 () in
          Raw_db.drop_file_caches db;
          let r = run db o q in
          match !best with
          | Some b when total b <= total r -> ()
          | _ -> best := Some r
        done;
        let r = Option.get !best in
        (name, [ total r; r.cpu_seconds; r.io_seconds; r.compile_seconds ]))
      variants
  in
  print_rows ~columns:[ "total(s)"; "cpu(s)"; "io-sim(s)"; "compile(s)" ] rows

(* ------------------------------------------------------------------ *)
(* E2 — Figure 1b: second (warm) query over CSV, selectivity sweep.    *)
(* ------------------------------------------------------------------ *)

let warm_q2_sweep db variants ~q1 ~q2 =
  (* compile each variant's templates once, off the record — the paper's
     figures plot steady-state times with the generated-library cache warm *)
  List.iter
    (fun (_, o) ->
      Raw_db.forget_data_state db;
      ignore (run db o (q1 (sel_to_x 0.5)));
      ignore (run db o (q2 (sel_to_x 0.5))))
    variants;
  List.map
    (fun sel ->
      let x = sel_to_x sel in
      let values =
        List.map
          (fun (_, o) ->
            min_of (fun () ->
                Raw_db.forget_data_state db;
                ignore (run db o (q1 x));
                total (run db o (q2 x))))
          variants
      in
      (sel, values))
    selectivities

let e2 () =
  header
    "E2 / Figure 1b — CSV warm run: SELECT MAX(col10) WHERE col0 < X (sweep)"
    "Paper: DBMS fastest (data loaded); JIT ~2x faster than In-Situ;\n\
     the posmap-every-7 variants pay incremental parsing to reach col10.";
  let variants =
    [
      ("DBMS", opts ~access:Access.Dbms ());
      ("In-Situ", opts ~access:Access.In_situ ());
      ("JIT", opts ~access:Access.Jit ());
      ("InSitu-c7", opts ~access:Access.In_situ ~tracked:(`Every 7) ());
      ("JIT-c7", opts ~access:Access.Jit ~tracked:(`Every 7) ());
    ]
  in
  let q1 x = Printf.sprintf "SELECT MAX(col0) FROM t30 WHERE col0 < %d" x in
  let q2 x = Printf.sprintf "SELECT MAX(col10) FROM t30 WHERE col0 < %d" x in
  let db = db_q30 () in
  ignore (run db (opts ()) (q1 (sel_to_x 1.0)));
  (* warm the file *)
  let rows = warm_q2_sweep db variants ~q1 ~q2 in
  print_sweep ~col_names:(List.map fst variants) rows

(* ------------------------------------------------------------------ *)
(* E3 — Figure 2: warm second query over the binary file.              *)
(* ------------------------------------------------------------------ *)

let e3 () =
  header "E3 / Figure 2 — binary warm run: SELECT MAX(col10) WHERE col0 < X"
    "Paper: same ordering as CSV but smaller gaps (no data conversion):\n\
     DBMS < JIT < In-Situ.";
  let variants =
    [
      ("DBMS", opts ~access:Access.Dbms ());
      ("In-Situ", opts ~access:Access.In_situ ());
      ("JIT", opts ~access:Access.Jit ());
    ]
  in
  let q1 x = Printf.sprintf "SELECT MAX(col0) FROM b30 WHERE col0 < %d" x in
  let q2 x = Printf.sprintf "SELECT MAX(col10) FROM b30 WHERE col0 < %d" x in
  let db = db_q30_fwb () in
  ignore (run db (opts ()) (q1 (sel_to_x 1.0)));
  let rows = warm_q2_sweep db variants ~q1 ~q2 in
  print_sweep ~col_names:(List.map fst variants) rows

(* ------------------------------------------------------------------ *)
(* E4 — Figure 3: breakdown of query execution costs, In-Situ vs JIT.  *)
(*                                                                      *)
(* Reproduced by ablation: run the scan kernel in cumulative stages     *)
(* (tokenize; +convert; +build columns; full query) and attribute the   *)
(* increments to Parsing / Data Type / Build Columns / Main Loop.       *)
(* ------------------------------------------------------------------ *)

(* Stage kernels, faithful to each style, for the Figure 3 workload shape:
   needed columns {0, 10}, positional map tracking {0, 10, 20}. [convert]
   adds the data-type conversion to the tokenizing walk. *)

let tracked_cols = [ 0; 10; 20 ]
let needed_cols = [ 0; 10 ]
let last_col = 20

let walk_interpreted ~convert file schema =
  let buf = Raw_storage.Mmap_file.bytes file in
  let cur = Raw_formats.Csv.Cursor.create file in
  (* runtime lookup tables consulted per field — the general-purpose way *)
  let needed_mask = Array.make (last_col + 1) false in
  List.iter (fun c -> needed_mask.(c) <- true) needed_cols;
  let tracked_mask = Array.make (last_col + 1) false in
  List.iter (fun c -> tracked_mask.(c) <- true) tracked_cols;
  let sink = ref 0 in
  while not (Raw_formats.Csv.Cursor.at_eof cur) do
    for col = 0 to last_col do
      if needed_mask.(col) || tracked_mask.(col) then begin
        let p, l = Raw_formats.Csv.Cursor.next_field cur in
        if tracked_mask.(col) then sink := !sink + p;
        if needed_mask.(col) then
          if convert then (
            (* per-value data type dispatch against the catalog *)
            match Schema.dtype schema col with
            | Dtype.Int -> sink := !sink + Raw_formats.Csv.parse_int buf p l
            | Dtype.Float ->
              sink := !sink + int_of_float (Raw_formats.Csv.parse_float buf p l)
            | Dtype.Bool ->
              if Raw_formats.Csv.parse_bool buf p l then incr sink
            | Dtype.String ->
              sink := !sink + String.length (Raw_formats.Csv.parse_string buf p l))
          else sink := !sink + l
      end
      else Raw_formats.Csv.Cursor.skip_field cur
    done;
    Raw_formats.Csv.Cursor.skip_line cur
  done;
  !sink

let walk_jit ~convert file _schema =
  let buf = Raw_storage.Mmap_file.bytes file in
  let cur = Raw_formats.Csv.Cursor.create file in
  let sink = ref 0 in
  let starts = Array.make (last_col + 1) 0 and ends = Array.make (last_col + 1) 0 in
  (* the composed row function: one word-at-a-time split of the row,
     then the touched columns unrolled with their conversions baked in *)
  let parse c =
    let p = starts.(c) in
    sink := !sink + p;
    if convert then sink := !sink + Raw_formats.Csv.parse_int buf p (ends.(c) - p)
    else sink := !sink + (ends.(c) - p)
  in
  let row_fn () =
    Raw_formats.Csv.Cursor.split cur (last_col + 1) starts ends;
    parse 0;
    parse 10 (* column 10: needed and tracked *);
    sink := !sink + starts.(20);
    Raw_formats.Csv.Cursor.skip_line cur
  in
  while not (Raw_formats.Csv.Cursor.at_eof cur) do
    row_fn ()
  done;
  !sink

(* min over repetitions: stage deltas are small, so noise must not
   dominate the subtraction *)
let time_s ?(reps = 5) f =
  let best = ref infinity in
  for _ = 1 to reps do
    let _, dt = Raw_storage.Timing.time f in
    if dt < !best then best := dt
  done;
  !best

let e4 () =
  header "E4 / Figure 3 — breakdown of query execution costs (ablation)"
    "Workload shape of the paper's profile: read columns 0 and 10, track\n\
     {0,10,20} in the positional map. Paper: JIT shrinks Main Loop /\n\
     Parsing / Data Type; Build Columns and Parsing remain the dominant\n\
     irreducible costs (motivating shreds).";
  let x = sel_to_x 0.4 in
  let schema = Schema.of_pairs (colnames 30) in
  let file = Raw_storage.Mmap_file.open_file (q30_csv ()) in
  (* warm the (real and simulated) caches *)
  ignore (walk_jit ~convert:false file schema);
  let measure name walk scan_mode access =
    let t_parse = time_s (fun () -> ignore (walk ~convert:false file schema)) in
    let t_conv = time_s (fun () -> ignore (walk ~convert:true file schema)) in
    let t_build =
      time_s (fun () ->
          ignore
            (Scan_csv.seq_scan ~mode:scan_mode ~file ~sep:',' ~schema
               ~needed:needed_cols ~tracked:tracked_cols ()))
    in
    let db = db_q30 () in
    let o = opts ~access ~tracked:(`Cols tracked_cols) () in
    let q = Printf.sprintf "SELECT MAX(col10) FROM t30 WHERE col0 < %d" x in
    ignore (run db o q);
    let t_query =
      (* min of the query's measured cpu over reps; posmap and pool reset so
         every rerun repeats the full scan measured as t_build *)
      let best = ref infinity in
      for _ = 1 to 5 do
        Raw_db.forget_data_state db;
        let r = run db o q in
        if r.cpu_seconds < !best then best := r.cpu_seconds
      done;
      !best
    in
    let parsing = t_parse in
    let datatype = Float.max 0. (t_conv -. t_parse) in
    let build = Float.max 0. (t_build -. t_conv) in
    let main_loop = Float.max 0. (t_query -. t_build) in
    (name, [ parsing; datatype; build; main_loop; t_query ])
  in
  let rows =
    [
      measure "In-Situ" walk_interpreted Scan_csv.Interpreted Access.In_situ;
      measure "JIT" walk_jit Scan_csv.Jit Access.Jit;
    ]
  in
  print_rows
    ~columns:[ "parsing"; "datatype"; "buildcols"; "mainloop"; "total-cpu" ]
    rows
