(* E13: paper §6 / Table 3 — the Higgs analysis use case.

   A HEP file of synthetic collision events plus a CSV of "good runs".
   Candidate events: run number in the good-runs list, with >=2 muons
   passing (pt > 25, |eta| < 2.4) and >=2 jets passing (pt > 30).

   Two implementations:
   - hand-written: tuple-at-a-time C++-style loop over the HEP object API
     (with the library's internal object cache as its only reuse), like the
     physicists' analysis code;
   - RAW: a relational plan over the four HEP tables joined with the
     good-runs CSV, via JIT access paths and column shreds. *)

open Raw_vector
open Raw_core
open Raw_engine
open Bench_util

let mu_pt_cut = 25.0
let jet_pt_cut = 30.0
let eta_cut = 2.4

(* ---------------- hand-written analysis ---------------- *)

let read_goodruns path =
  let file = Raw_storage.Mmap_file.open_file path in
  let buf = Raw_storage.Mmap_file.bytes file in
  let cur = Raw_formats.Csv.Cursor.create file in
  let set = Hashtbl.create 64 in
  while not (Raw_formats.Csv.Cursor.at_eof cur) do
    let p, l = Raw_formats.Csv.Cursor.next_field cur in
    Hashtbl.replace set (Raw_formats.Csv.parse_int buf p l) ();
    Raw_formats.Csv.Cursor.skip_line cur
  done;
  set

let handwritten reader goodruns =
  let n = Raw_formats.Hep.Reader.n_events reader in
  let candidates = ref 0 in
  for e = 0 to n - 1 do
    (* one event object at a time, like the C++ analysis *)
    let ev = Raw_formats.Hep.Reader.get_entry reader e in
    if Hashtbl.mem goodruns ev.run_number then begin
      let passing cut (ps : Raw_formats.Hep.particle array) =
        let c = ref 0 in
        Array.iter
          (fun (p : Raw_formats.Hep.particle) ->
            if p.pt > cut && Float.abs p.eta < eta_cut then incr c)
          ps;
        !c
      in
      if passing mu_pt_cut ev.muons >= 2 && passing jet_pt_cut ev.jets >= 2 then
        incr candidates
    end
  done;
  !candidates

(* ---------------- RAW version ---------------- *)

(* per-event counts of particles passing the cuts, with HAVING count>=2 *)
let passing_counts table pt_cut =
  (* schema: event_id, pt, eta, phi -> scan [0;1;2] *)
  let filtered =
    Logical.Filter
      ( Expr.(
          col 1 > float pt_cut && col 2 < float eta_cut
          && col 2 > float (-.eta_cut)),
        Logical.Scan { table; columns = [ 0; 1; 2 ] } )
  in
  let grouped =
    Logical.Aggregate
      {
        keys = [ 0 ];
        aggs =
          [ { Logical.op = Kernels.Count; expr = Expr.col 1; name = "n" } ];
        input = filtered;
      }
  in
  Logical.Filter (Expr.(col 1 >= int 2), grouped)

let higgs_plan ~prefix =
  (* events in good runs *)
  let events =
    Logical.Join
      {
        left = Logical.Scan { table = prefix ^ "_events"; columns = [ 0; 1 ] };
        right = Logical.Scan { table = "goodruns"; columns = [ 0 ] };
        left_key = 1;
        right_key = 0;
      }
  in
  let with_muons =
    Logical.Join
      {
        left = events;
        right = passing_counts (prefix ^ "_muons") mu_pt_cut;
        left_key = 0;
        right_key = 0;
      }
  in
  let with_jets =
    Logical.Join
      {
        left = with_muons;
        right = passing_counts (prefix ^ "_jets") jet_pt_cut;
        left_key = 0;
        right_key = 0;
      }
  in
  Logical.Aggregate
    {
      keys = [];
      aggs =
        [ { Logical.op = Kernels.Count; expr = Expr.int 1; name = "candidates" } ];
      input = with_jets;
    }

let hep_db () =
  let db = Raw_db.create () in
  Raw_db.register_hep db ~name_prefix:"atlas" ~path:(hep_file ());
  Raw_db.register_csv db ~name:"goodruns" ~path:(goodruns_csv ())
    ~columns:[ ("run", Dtype.Int) ] ();
  db

let e13 () =
  header "E13 / Table 3 — the Higgs analysis: hand-written vs RAW"
    "Paper: cold (1st query) the two are comparable, I/O-bound (1499s vs\n\
     1431s); warm (2nd query) RAW is ~2 orders of magnitude faster (52s vs\n\
     0.575s) thanks to cached column shreds + vectorized execution.";
  (* --- hand-written --- *)
  let hw_reader =
    Raw_formats.Hep.Reader.open_file
      ~config:Config.default.mmap (hep_file ())
  in
  let goodruns = read_goodruns (goodruns_csv ()) in
  let hw_file = Raw_formats.Hep.Reader.file hw_reader in
  Raw_storage.Mmap_file.drop_cache hw_file;
  let hw1, t_hw1 = Raw_storage.Timing.time (fun () -> handwritten hw_reader goodruns) in
  let hw_cold = t_hw1 +. Raw_storage.Mmap_file.simulated_io_seconds hw_file in
  Raw_storage.Mmap_file.reset_counters hw_file;
  let hw2, t_hw2 = Raw_storage.Timing.time (fun () -> handwritten hw_reader goodruns) in
  let hw_warm = t_hw2 +. Raw_storage.Mmap_file.simulated_io_seconds hw_file in
  (* --- RAW --- *)
  let db = hep_db () in
  Raw_db.drop_file_caches db;
  let plan = higgs_plan ~prefix:"atlas" in
  let r1 = Raw_db.run_plan db plan in
  let r2 = Raw_db.run_plan db plan in
  let raw_count r =
    match Column.get (Chunk.column r.Executor.chunk 0) 0 with
    | Value.Int n -> n
    | v -> failwith ("unexpected count " ^ Value.to_string v)
  in
  Printf.printf "candidates: hand-written=%d/%d  RAW=%d/%d  (must all agree)\n\n"
    hw1 hw2 (raw_count r1) (raw_count r2);
  if not (hw1 = hw2 && hw1 = raw_count r1 && hw1 = raw_count r2) then
    failwith "E13: implementations disagree";
  (* the hand-written loop reads every event through the object API *)
  let record_hw label ~total ~cpu =
    record_raw_sample ~label ~wall_seconds:total ~io_seconds:(total -. cpu)
      ~rows_scanned:(Raw_formats.Hep.Reader.n_events hw_reader) ~result_rows:1 ()
  in
  record_hw "Hand-written (cold)" ~total:hw_cold ~cpu:t_hw1;
  record_sample ~label:"RAW (cold)" r1;
  record_hw "Hand-written (warm)" ~total:hw_warm ~cpu:t_hw2;
  record_sample ~label:"RAW (warm)" r2;
  print_rows ~columns:[ "total(s)"; "cpu(s)"; "io-sim(s)"; "compile(s)" ]
    [
      ("Hand-written (cold)", [ hw_cold; t_hw1; hw_cold -. t_hw1; 0. ]);
      ("RAW (cold)", [ total r1; r1.cpu_seconds; r1.io_seconds; r1.compile_seconds ]);
      ("Hand-written (warm)", [ hw_warm; t_hw2; hw_warm -. t_hw2; 0. ]);
      ("RAW (warm)", [ total r2; r2.cpu_seconds; r2.io_seconds; r2.compile_seconds ]);
    ];
  Printf.printf "\nspeedup warm: %.1fx\n" (hw_warm /. Float.max 1e-9 (total r2))
