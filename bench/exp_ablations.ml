(* E14-E17: ablations of RAW's design choices (beyond the paper's figures,
   validating the knobs DESIGN.md calls out). *)

open Raw_core
open Bench_util

(* ------------------------------------------------------------------ *)
(* E14 — §4.2 compile-overhead note: template-cache amortization.      *)
(* ------------------------------------------------------------------ *)

let e14 () =
  header "E14 / §4.2 — JIT compilation overhead amortized by the template cache"
    "Paper: code generation adds ~2s to the first query; RAW caches the\n\
     generated library and reuses it for repeated queries. Expect compile\n\
     cost on query 1 only, and totals dropping as shreds also warm up.";
  let db = db_q30 () in
  let q = Printf.sprintf "SELECT MAX(col10) FROM t30 WHERE col0 < %d" (sel_to_x 0.2) in
  let rows =
    List.map
      (fun i ->
        let r = run db (opts ~shreds:Planner.Shreds ()) q in
        (Printf.sprintf "query %d" i,
         [ total r; r.cpu_seconds; r.io_seconds; r.compile_seconds ]))
      [ 1; 2; 3; 4; 5 ]
  in
  print_rows ~columns:[ "total(s)"; "cpu(s)"; "io-sim(s)"; "compile(s)" ] rows;
  let tc = Catalog.templates (Raw_db.catalog db) in
  Printf.printf "\ntemplate cache: %d compiled, %d hits\n"
    (Template_cache.misses tc) (Template_cache.hits tc)

(* ------------------------------------------------------------------ *)
(* E15 — positional-map granularity (the paper's every-10 vs every-7    *)
(* heuristics, §4.2), swept wider.                                      *)
(* ------------------------------------------------------------------ *)

let e15 () =
  header "E15 / ablation — positional map granularity (track every k columns)"
    "Trade-off (paper §2.3): more tracked columns = bigger map + slower Q1\n\
     bookkeeping, but less incremental parsing in Q2. col10 is tracked\n\
     exactly when k ∈ {1,2,5,10}; otherwise Q2 parses from the nearest\n\
     tracked column.";
  let x = sel_to_x 0.4 in
  let q1 = Printf.sprintf "SELECT MAX(col0) FROM t30 WHERE col0 < %d" x in
  let q2 = Printf.sprintf "SELECT MAX(col10) FROM t30 WHERE col0 < %d" x in
  let db = db_q30 () in
  ignore (run db (opts ()) q1);
  let rows =
    List.map
      (fun k ->
        let o = opts ~shreds:Planner.Full_columns ~tracked:(`Every k) () in
        Raw_db.forget_data_state db;
        let r1 = run db o q1 in
        let r2 = run db o q2 in
        let entries =
          match (Catalog.get (Raw_db.catalog db) "t30").Catalog.state.Catalog.posmap with
          | Some pm ->
            Array.length (Raw_formats.Posmap.tracked pm)
            * Raw_formats.Posmap.n_rows pm
          | None -> 0
        in
        (Printf.sprintf "every %2d" k,
         [ total r1; total r2; float_of_int entries ]))
      [ 1; 2; 5; 7; 10; 15; 30 ]
  in
  print_rows ~columns:[ "q1(s)"; "q2(s)"; "map entries" ] rows

(* ------------------------------------------------------------------ *)
(* E16 — shred-pool capacity.                                           *)
(* ------------------------------------------------------------------ *)

let e16 () =
  header "E16 / ablation — shred pool capacity (LRU, §5.1)"
    "A query sequence cycling over 12 different columns; with too few\n\
     pooled columns the working set thrashes and raw-file reads recur.";
  let x = sel_to_x 0.3 in
  let queries =
    List.concat_map
      (fun _ ->
        List.map
          (fun c ->
            Printf.sprintf "SELECT MAX(col%d) FROM t30 WHERE col0 < %d" c x)
          [ 1; 3; 5; 7; 9; 11; 13; 15; 17; 19; 21; 23 ])
      [ 0; 1; 2 ]
  in
  let rows =
    List.map
      (fun cap ->
        let config = { Config.default with shred_pool_columns = cap } in
        let db = db_q30 ~config () in
        ignore (run db (opts ()) "SELECT MAX(col0) FROM t30");
        let t =
          (* cpu + io only: template compilation is identical across
             capacities and would just add a constant *)
          List.fold_left
            (fun acc q ->
              let r = run db (opts ~shreds:Planner.Shreds ()) q in
              acc +. r.cpu_seconds +. r.io_seconds)
            0. queries
        in
        let pool = Catalog.shreds (Raw_db.catalog db) in
        let hits = Shred_pool.hits pool and misses = Shred_pool.misses pool in
        (Printf.sprintf "capacity %3d" cap,
         [ t; float_of_int hits; float_of_int misses ]))
      [ 2; 4; 8; 16; 64 ]
  in
  print_rows ~columns:[ "36 queries(s)"; "pool hits"; "pool misses" ] rows

(* ------------------------------------------------------------------ *)
(* E17 — vector (chunk) size of the columnar engine.                    *)
(* ------------------------------------------------------------------ *)

let e17 () =
  header "E17 / ablation — vector size (rows per chunk)"
    "Vectorized execution (paper §3, citing MonetDB/X100): chunks too\n\
     small pay per-chunk overhead; too large lose cache locality.";
  let x = sel_to_x 0.4 in
  let q = Printf.sprintf "SELECT MAX(col10) FROM t30 WHERE col0 < %d" x in
  let rows =
    List.map
      (fun chunk_rows ->
        let config = { Config.default with chunk_rows } in
        let db = db_q30 ~config () in
        let o = opts ~shreds:Planner.Shreds () in
        ignore (run db o q);
        (* measure warm, averaged over 3 runs *)
        let t = ref 0. in
        for _ = 1 to 3 do
          Raw_db.forget_data_state db;
          ignore (run db o (Printf.sprintf "SELECT MAX(col0) FROM t30 WHERE col0 < %d" x));
          t := !t +. total (run db o q)
        done;
        (Printf.sprintf "%6d rows/chunk" chunk_rows, [ !t /. 3. ]))
      [ 64; 256; 1024; 4096; 16384; 65536 ]
  in
  print_rows ~columns:[ "warm q2(s)" ] rows
