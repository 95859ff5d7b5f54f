(* Isolated calls into each layer's public functions, timed from the
   benchmark's side on the probe files (seed-identical prefixes of the
   workload tables) and divided by the work units the layer did. *)

open Raw_vector
open Raw_storage
open Raw_formats
open Raw_engine
open Raw_core
open Pb

let counted key f =
  let before = Io_stats.get_float key in
  let (), dt = Util.time f in
  (dt, int_of_float (Io_stats.get_float key -. before))

let t30_schema = Schema.of_pairs (Data.columns Data.T30)
let needed = [ 3; 14; 27 ]

let csv ~budget path =
  let file = Mmap_file.open_file path in
  let per = budget /. 5. in
  let tokenize () =
    let cur = Csv.Cursor.create file in
    let n = ref 0 in
    let (), dt =
      Util.time (fun () ->
          while not (Csv.Cursor.at_eof cur) do
            while not (Csv.Cursor.at_end_of_line cur) do
              ignore (Csv.Cursor.next_field cur);
              incr n
            done;
            Csv.Cursor.skip_line cur
          done)
    in
    (dt, !n)
  in
  (* field spans collected once, so that only the conversion is timed *)
  let spans =
    let cur = Csv.Cursor.create file in
    let acc = ref [] in
    while not (Csv.Cursor.at_eof cur) do
      while not (Csv.Cursor.at_end_of_line cur) do
        acc := Csv.Cursor.next_field cur :: !acc
      done;
      Csv.Cursor.skip_line cur
    done;
    Array.of_list !acc
  in
  let buf = Mmap_file.bytes file in
  let convert () =
    let (), dt = Util.time (fun () -> Array.iter (fun (p, l) -> ignore (Sys.opaque_identity (Csv.parse_int buf p l))) spans) in
    (dt, Array.length spans)
  in
  let seq mode () =
    counted "csv.fields_tokenized" (fun () ->
        ignore (Scan_csv.seq_scan ~mode ~file ~sep:',' ~schema:t30_schema ~needed ~tracked:[ 0; 10; 20 ] ()))
  in
  let _, posmap = Scan_csv.seq_scan ~mode:Jit ~file ~sep:',' ~schema:t30_schema ~needed:[ 0 ] ~tracked:[ 0; 10; 20 ] () in
  let posmap = Option.get posmap in
  let n = Posmap.n_rows posmap in
  let rowids = Array.init (n / 3) (fun i -> i * 3) in
  let fetch () =
    let (), dt =
      Util.time (fun () ->
          ignore (Scan_csv.fetch ~mode:Jit ~file ~sep:',' ~schema:t30_schema ~posmap ~cols:[ 14; 27 ] ~rowids ()))
    in
    (dt, 2 * Array.length rowids)
  in
  [
    ("scan_csv.tokenize_ns_per_field", "ns", Util.ns_per_unit ~budget:per tokenize);
    ("scan_csv.convert_ns_per_value", "ns", Util.ns_per_unit ~budget:per convert);
    ("scan_csv.seq_jit_ns_per_field", "ns", Util.ns_per_unit ~budget:per (seq Scan_csv.Jit));
    ("scan_csv.seq_interp_ns_per_field", "ns", Util.ns_per_unit ~budget:per (seq Scan_csv.Interpreted));
    ("scan_csv.fetch_ns_per_value", "ns", Util.ns_per_unit ~budget:per fetch);
  ]

let fwb ~budget path =
  let file = Mmap_file.open_file path in
  let layout = Fwb.layout (Data.dtypes Data.T30) in
  let n = Fwb.n_rows layout file in
  let seq () =
    let (), dt =
      Util.time (fun () -> ignore (Scan_fwb.seq_scan ~mode:Jit ~file ~layout ~schema:t30_schema ~needed ()))
    in
    (dt, n * List.length needed)
  in
  let rowids = Array.init (n / 3) (fun i -> i * 3) in
  let fetch () =
    let (), dt =
      Util.time (fun () ->
          ignore (Scan_fwb.fetch ~mode:Jit ~file ~layout ~schema:t30_schema ~cols:[ 14; 27 ] ~rowids))
    in
    (dt, 2 * Array.length rowids)
  in
  [
    ("scan_fwb.seq_ns_per_value", "ns", Util.ns_per_unit ~budget:(budget /. 2.) seq);
    ("scan_fwb.fetch_ns_per_value", "ns", Util.ns_per_unit ~budget:(budget /. 2.) fetch);
  ]

let hep ~budget path =
  let cat = Catalog.create () in
  Catalog.register_hep cat ~name_prefix:"h" ~path;
  let muons = Catalog.get cat "h_muons" in
  let reader = Catalog.hep_reader cat muons in
  let index = Catalog.hep_index cat muons in
  let n_events = Hep.Reader.n_events reader in
  let events () =
    let (), dt =
      Util.time (fun () -> ignore (Scan_hep.scan_events ~mode:Jit ~reader ~needed:[ 0; 1 ] ~rowids:None ()))
    in
    (dt, 2 * n_events)
  in
  let particles () =
    let (), dt =
      Util.time (fun () ->
          ignore (Scan_hep.scan_particles ~mode:Jit ~reader ~coll:Hep.Muons ~index ~needed:[ 1; 2 ] ~rowids:None))
    in
    (dt, 2 * Array.length (fst index))
  in
  [
    ("scan_hep.events_ns_per_value", "ns", Util.ns_per_unit ~budget:(budget /. 2.) events);
    ("scan_hep.particles_ns_per_value", "ns", Util.ns_per_unit ~budget:(budget /. 2.) particles);
  ]

let jsonl ~budget path =
  let file = Mmap_file.open_file path in
  let schema = Schema.of_pairs Data.log_columns in
  let needed = [ 2; 4 ] in
  let _, row_starts = Scan_jsonl.seq_scan ~mode:Jit ~file ~schema ~needed:[ 0 ] () in
  let n = Array.length row_starts in
  let seq () =
    let (), dt = Util.time (fun () -> ignore (Scan_jsonl.seq_scan ~mode:Jit ~file ~schema ~needed ())) in
    (dt, n * List.length needed)
  in
  let rowids = Array.init (n / 3) (fun i -> i * 3) in
  let fetch () =
    let (), dt =
      Util.time (fun () -> ignore (Scan_jsonl.fetch ~mode:Jit ~file ~schema ~row_starts ~cols:[ 5 ] ~rowids ()))
    in
    (dt, Array.length rowids)
  in
  [
    ("scan_jsonl.seq_ns_per_value", "ns", Util.ns_per_unit ~budget:(budget /. 2.) seq);
    ("scan_jsonl.fetch_ns_per_value", "ns", Util.ns_per_unit ~budget:(budget /. 2.) fetch);
  ]

(* operators over two int columns of the t30 prefix, in 4096-row chunks *)
let engine ~budget path =
  let file = Mmap_file.open_file path in
  let layout = Fwb.layout (Data.dtypes Data.T30) in
  let cols = Scan_fwb.seq_scan ~mode:Jit ~file ~layout ~schema:t30_schema ~needed:[ 3; 14 ] () in
  let n = Column.length cols.(0) in
  let chunks cols =
    List.init ((n + 4095) / 4096) (fun i ->
        let pos = i * 4096 in
        Chunk.create (Array.map (fun c -> Column.slice c pos (min 4096 (n - pos))) cols))
  in
  let input = chunks cols in
  let shuffled = chunks [| Column.gather cols.(0) (Data.permutation ~seed:1 n); cols.(1) |] in
  let per = budget /. 5. in
  let op ?(units = n) build () =
    let (), dt = Util.time (fun () -> ignore (Operator.to_chunk (build ()))) in
    (dt, units)
  in
  let src () = Operator.of_chunks input in
  [
    ("engine.filter_ns_per_row", "ns", Util.ns_per_unit ~budget:per (op (fun () -> Operator.filter Expr.(col 0 < int 500_000_000) (src ()))));
    ("engine.aggregate_ns_per_row", "ns",
     Util.ns_per_unit ~budget:per (op (fun () -> Operator.aggregate [ (Kernels.Sum, Expr.col 1); (Kernels.Max, Expr.col 0) ] (src ()))));
    ("engine.group_by_ns_per_row", "ns",
     Util.ns_per_unit ~budget:per
       (op (fun () ->
            Operator.group_by ~keys:[ Expr.Arith (Kernels.Mod, Expr.col 0, Expr.int 64) ] ~aggs:[ (Kernels.Count, Expr.col 1); (Kernels.Sum, Expr.col 1) ] (src ()))));
    ("engine.hash_join_ns_per_row", "ns",
     Util.ns_per_unit ~budget:per
       (op ~units:(2 * n) (fun () ->
            Operator.hash_join ~build:(src ()) ~probe:(Operator.of_chunks shuffled) ~build_key:(Expr.col 0) ~probe_key:(Expr.col 0))));
    ("engine.sort_ns_per_row", "ns", Util.ns_per_unit ~budget:per (op (fun () -> Operator.sort ~by:[ (0, `Desc) ] (src ()))));
  ]

(* Parse + bind and planning of the workload's own statements against its
   catalog, and the executor's fixed cost over a cached one-row table. *)
let sql ~budget ~db ~statements ~one =
  let cat = Raw_db.catalog db in
  let plans = List.map (Sql_binder.bind_string cat) statements in
  let k = List.length statements in
  let per = budget /. 3. in
  let bind () = snd (Util.time (fun () -> List.iter (fun s -> ignore (Sql_binder.bind_string cat s)) statements)), k in
  let plan () =
    snd (Util.time (fun () -> List.iter (fun p -> ignore (Planner.plan cat Planner.default p)) plans)), k
  in
  let small = Raw_db.create () in
  Raw_db.register_csv small ~name:"one" ~path:one ~columns:[ ("c0", Dtype.Int) ] ();
  let q = "SELECT COUNT(*), MAX(c0) FROM one" in
  ignore (Raw_db.query small q);
  let fixed () = snd (Util.time (fun () -> ignore (Raw_db.query small q))), 1 in
  [
    ("sql.parse_bind_us", "us", Util.ns_per_unit ~budget:per bind /. 1e3);
    ("planner.plan_us", "us", Util.ns_per_unit ~budget:per plan /. 1e3);
    ("executor.fixed_us", "us", Util.ns_per_unit ~min_reps:20 ~budget:per fixed /. 1e3);
  ]
