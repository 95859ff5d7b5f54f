(* Shared infrastructure for the paper-reproduction experiments. *)

open Raw_vector
open Raw_core

(* ------------------------------------------------------------------ *)
(* Scale                                                                *)
(*                                                                      *)
(* The paper uses 100M-row (28 GB) and 30M-row (45 GB) files; we scale  *)
(* row counts to laptop size (shapes are per-row CPU effects; see       *)
(* DESIGN.md). Override with RAW_BENCH_SCALE=small|default|large.       *)
(* ------------------------------------------------------------------ *)

type scale = { q30_rows : int; q120_rows : int; hep_events : int }

let scale =
  match Sys.getenv_opt "RAW_BENCH_SCALE" with
  | Some "small" -> { q30_rows = 20_000; q120_rows = 5_000; hep_events = 5_000 }
  | Some "large" -> { q30_rows = 500_000; q120_rows = 100_000; hep_events = 100_000 }
  | _ -> { q30_rows = 100_000; q120_rows = 25_000; hep_events = 25_000 }

let data_dir =
  let dir = Filename.concat (Sys.getcwd ()) "_bench_data" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  dir

let cached name generate =
  let path = Filename.concat data_dir name in
  if not (Sys.file_exists path) then begin
    Printf.printf "  [data] generating %s ...\n%!" name;
    generate path
  end;
  path

(* The paper's 30-column integer table (values uniform in [0, 1e9)). *)
let q30_dtypes = Array.make 30 Dtype.Int

let q30_csv () =
  cached
    (Printf.sprintf "q30_%d.csv" scale.q30_rows)
    (fun path ->
      Raw_formats.Csv.generate ~path ~n_rows:scale.q30_rows ~dtypes:q30_dtypes
        ~seed:1001 ())

let q30_fwb () =
  cached
    (Printf.sprintf "q30_%d.fwb" scale.q30_rows)
    (fun path ->
      Raw_formats.Fwb.generate ~path ~n_rows:scale.q30_rows ~dtypes:q30_dtypes
        ~seed:1001 ())

(* The wider table: 120 columns, alternating int/float (the paper's
   "more data types, including floating-point"). Column 0 is the integer
   predicate column; column 1 is a float (the aggregated column). *)
let q120_dtypes =
  Array.init 120 (fun i -> if i mod 2 = 0 then Dtype.Int else Dtype.Float)

let q120_csv () =
  cached
    (Printf.sprintf "q120_%d.csv" scale.q120_rows)
    (fun path ->
      Raw_formats.Csv.generate ~path ~n_rows:scale.q120_rows ~dtypes:q120_dtypes
        ~seed:2002 ())

let q120_fwb () =
  cached
    (Printf.sprintf "q120_%d.fwb" scale.q120_rows)
    (fun path ->
      Raw_formats.Fwb.generate ~path ~n_rows:scale.q120_rows ~dtypes:q120_dtypes
        ~seed:2002 ())

(* Join experiment: file2 holds the same rows as file1, shuffled
   (paper §5.3.2). *)
let q30_shuffled_csv () =
  cached
    (Printf.sprintf "q30_%d_shuffled.csv" scale.q30_rows)
    (fun path ->
      let src = Raw_storage.Mmap_file.open_file (q30_csv ()) in
      let buf = Raw_storage.Mmap_file.bytes src in
      let lines = ref [] in
      let start = ref 0 in
      for i = 0 to Bytes.length buf - 1 do
        if Bytes.get buf i = '\n' then begin
          lines := Bytes.sub_string buf !start (i - !start) :: !lines;
          start := i + 1
        end
      done;
      let lines = Array.of_list !lines in
      let st = Random.State.make [| 777 |] in
      let n = Array.length lines in
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let tmp = lines.(i) in
        lines.(i) <- lines.(j);
        lines.(j) <- tmp
      done;
      let oc = open_out_bin path in
      Array.iter (fun l -> output_string oc l; output_char oc '\n') lines;
      close_out oc)

let hep_file () =
  cached
    (Printf.sprintf "atlas_%d.hep" scale.hep_events)
    (fun path ->
      (* n_aux models the thousands of per-event fields a real ROOT file
         carries that the analysis never touches (paper §3: declare 3 fields,
         "ignore the rest 6 to 12 thousand") — the object-at-a-time baseline
         deserializes them, RAW's field-level access paths skip them *)
      Raw_formats.Hep.generate ~path ~n_events:scale.hep_events ~n_runs:64
        ~mean_particles:3.0 ~n_aux:256 ~seed:3003 ())

(* Good-runs CSV: half of the run numbers qualify (paper §6). *)
let goodruns_csv () =
  cached "goodruns.csv" (fun path ->
      Raw_formats.Csv.write_file ~path ~header:None
        ~rows:(Seq.init 32 (fun i -> [ string_of_int (i * 2) ]))
        ())

(* ------------------------------------------------------------------ *)
(* DB construction                                                     *)
(* ------------------------------------------------------------------ *)

let colnames n = List.init n (fun i -> (Printf.sprintf "col%d" i, Dtype.Int))

let colnames_mixed dtypes =
  Array.to_list (Array.mapi (fun i dt -> (Printf.sprintf "col%d" i, dt)) dtypes)

let db_q30 ?config () =
  let db = Raw_db.create ?config () in
  Raw_db.register_csv db ~name:"t30" ~path:(q30_csv ()) ~columns:(colnames 30) ();
  db

let db_q30_fwb ?config () =
  let db = Raw_db.create ?config () in
  Raw_db.register_fwb db ~name:"b30" ~path:(q30_fwb ()) ~columns:(colnames 30);
  db

let db_q120 ?config () =
  let db = Raw_db.create ?config () in
  Raw_db.register_csv db ~name:"t120" ~path:(q120_csv ())
    ~columns:(colnames_mixed q120_dtypes) ();
  db

let db_q120_fwb ?config () =
  let db = Raw_db.create ?config () in
  Raw_db.register_fwb db ~name:"b120" ~path:(q120_fwb ())
    ~columns:(colnames_mixed q120_dtypes);
  db

(* ------------------------------------------------------------------ *)
(* Options shorthands                                                  *)
(* ------------------------------------------------------------------ *)

let opts ?(access = Access.Jit) ?(shreds = Planner.Full_columns)
    ?(join_policy = Planner.Late) ?(tracked = `Every 10)
    ?(use_indexes = true) () =
  { Planner.access; shreds; join_policy; tracked; use_indexes }

let selectivities = [ 0.01; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]

let sel_to_x sel = int_of_float (sel *. 1e9)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let header title note =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "%s\n" note;
  Printf.printf "================================================================\n%!"

(* A sweep table: one row per selectivity, one column per variant. *)
let print_sweep ~col_names rows =
  let w = 12 in
  Printf.printf "%-6s" "sel%";
  List.iter (fun n -> Printf.printf "%*s" w n) col_names;
  print_newline ();
  List.iter
    (fun (sel, values) ->
      Printf.printf "%-6.0f" (sel *. 100.);
      List.iter (fun v -> Printf.printf "%*.4f" w v) values;
      print_newline ())
    rows;
  print_string "%!"

let print_rows ~columns rows =
  let w = 14 in
  Printf.printf "%-24s" "";
  List.iter (fun c -> Printf.printf "%*s" w c) columns;
  print_newline ();
  List.iter
    (fun (name, values) ->
      Printf.printf "%-24s" name;
      List.iter (fun v -> Printf.printf "%*.4f" w v) values;
      print_newline ())
    rows

let total (r : Executor.report) = r.total_seconds

(* ------------------------------------------------------------------ *)
(* Machine-readable output                                             *)
(*                                                                      *)
(* Each experiment writes BENCH_<id>.json next to the cwd (or under     *)
(* RAW_BENCH_OUT): experiment id/title, scale, harness wall time, one   *)
(* sample per query run through [run] — simulated io/compile split,     *)
(* rows scanned, the per-query counter deltas — and a flat "metrics"    *)
(* map for scalar results that are not query runs (the bechamel ns/run  *)
(* estimates land there). CI parses these, and bench/diff.ml compares   *)
(* them against the committed baselines under bench/baselines/.         *)
(* ------------------------------------------------------------------ *)

type sample = {
  label : string;
  wall_seconds : float;
  io_seconds : float;
  compile_seconds : float;
  rows_scanned : int;
  result_rows : int;
  counters : (string * float) list;
}

let current_samples : sample list ref option ref = ref None
let current_metrics : (string * float) list ref option ref = ref None

(* Scalar result that is not a query run (e.g. a microbenchmark
   estimate); lands in the experiment's "metrics" JSON object. Metrics
   named [micro.*.ns_per_run] double as the machine-speed anchors
   bench/diff.ml normalizes wall-clock comparisons with. *)
let record_metric ~name v =
  match !current_metrics with
  | None -> ()
  | Some acc -> acc := (name, v) :: !acc

let record_sample ~label (r : Executor.report) =
  match !current_samples with
  | None -> ()
  | Some acc ->
    acc :=
      {
        label;
        wall_seconds = r.total_seconds;
        io_seconds = r.io_seconds;
        compile_seconds = r.compile_seconds;
        rows_scanned = r.rows_scanned;
        result_rows = Chunk.n_rows r.chunk;
        counters = r.counters;
      }
      :: !acc

(* A sample that does not come from an [Executor.report] — the serving
   bench times whole client-side passes, where per-query reports live on
   the other side of the socket. *)
let record_raw_sample ~label ~wall_seconds ?(io_seconds = 0.)
    ?(compile_seconds = 0.) ?(rows_scanned = 0) ~result_rows
    ?(counters = []) () =
  match !current_samples with
  | None -> ()
  | Some acc ->
    acc :=
      {
        label;
        wall_seconds;
        io_seconds;
        compile_seconds;
        rows_scanned;
        result_rows;
        counters;
      }
      :: !acc

let bench_out_dir () =
  match Sys.getenv_opt "RAW_BENCH_OUT" with
  | Some dir ->
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    dir
  | None -> Sys.getcwd ()

let sample_json s =
  let open Raw_obs.Jsons in
  Obj
    [
      ("label", Str s.label);
      ("wall_seconds", Float s.wall_seconds);
      ("io_seconds", Float s.io_seconds);
      ("compile_seconds", Float s.compile_seconds);
      ("rows_scanned", Int s.rows_scanned);
      ("result_rows", Int s.result_rows);
      ("counters", Obj (List.map (fun (k, v) -> (k, Float v)) s.counters));
    ]

let with_experiment ~id ~title f =
  let acc = ref [] in
  let macc = ref [] in
  current_samples := Some acc;
  current_metrics := Some macc;
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      current_samples := None;
      current_metrics := None;
      let wall = Unix.gettimeofday () -. t0 in
      let open Raw_obs.Jsons in
      let json =
        Obj
          [
            ("experiment", Str id);
            ("title", Str title);
            ( "scale",
              Obj
                [
                  ("q30_rows", Int scale.q30_rows);
                  ("q120_rows", Int scale.q120_rows);
                  ("hep_events", Int scale.hep_events);
                ] );
            ("wall_seconds", Float wall);
            ("samples", List (List.rev_map sample_json !acc));
            ("metrics", Obj (List.rev_map (fun (k, v) -> (k, Float v)) !macc));
          ]
      in
      let path =
        Filename.concat (bench_out_dir ()) (Printf.sprintf "BENCH_%s.json" id)
      in
      let oc = open_out path in
      output_string oc (to_string json);
      output_char oc '\n';
      close_out oc;
      Printf.printf "  [bench] wrote %s (%d sample(s))\n%!" path
        (List.length !acc))
    f

(* Run a query string, returning the report. *)
let run db options q =
  let r = Raw_db.query ~options db q in
  record_sample ~label:q r;
  r

(* Min over repetitions: the benches run on shared machines, so sweep
   points take the best of [reps] runs of [f] (each run must itself reset
   whatever state it measures). *)
let min_of ?(reps = 3) f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t = f () in
    if t < !best then best := t
  done;
  !best
