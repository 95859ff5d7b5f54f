(* E11-E12: paper §5.3.2 — column shreds and joins.

   file1 = the 30-column CSV; file2 = the same rows shuffled. The probe
   (pipelined) side is file1; file2 builds the hash table. The projected
   aggregate column comes from file1 (E11, pipelined) or file2 (E12,
   pipeline-breaking); the join-policy knob moves its creation point.

   The WHERE selects on file2; the planner pushes it below the join, onto
   the build side, as the paper's plans have it. *)

open Raw_core
open Bench_util

(* join config: smaller pages + bounded residency so that the shuffled
   late-scan access pattern of E12 re-faults pages, the cache/TLB effect
   the paper measures with perf *)
let join_config =
  {
    Config.default with
    mmap =
      {
        Raw_storage.Mmap_file.Config.page_size = 16384;
        (* softer per-page cost: re-faults here model TLB/LLC misses on a
           memory-resident file, not disk reads *)
        io_seconds_per_page = 0.00001;
        residency_capacity = Some 128 (* 2 MiB window *);
      };
  }

let join_db () =
  let db = Raw_db.create ~config:join_config () in
  Raw_db.register_csv db ~name:"f1" ~path:(q30_csv ()) ~columns:(colnames 30) ();
  Raw_db.register_csv db ~name:"f2" ~path:(q30_shuffled_csv ())
    ~columns:(colnames 30) ();
  db

(* the projected aggregate column comes from the probe (f1) or build (f2)
   side; the selection on f2.col1 sits below the join after pushdown *)
let join_sql ~project_side x =
  Printf.sprintf
    "SELECT MAX(%s.col10) FROM f1 JOIN f2 ON f1.col0 = f2.col0 WHERE f2.col1 < %d"
    (match project_side with `Probe -> "f1" | `Build -> "f2")
    x

(* Cache f1.col0 (and f1's posmap), f2.col0/col1 — the paper's "loaded by
   previous queries" setup that isolates the projected column's cost. *)
let prep db o =
  Raw_db.forget_data_state db;
  ignore (run db o "SELECT MAX(col0) FROM f1");
  ignore (run db o "SELECT MAX(col0) FROM f2");
  ignore (run db o "SELECT MAX(col1) FROM f2")

let join_selectivities = [ 0.01; 0.1; 0.2; 0.4; 0.6; 0.8; 1.0 ]

let run_join_sweep ~project_side variants =
  let db = join_db () in
  ignore (run db (opts ()) "SELECT MAX(col0) FROM f1");
  (* steady state: compile each variant's templates once, off the record *)
  List.iter
    (fun (_, o) ->
      prep db o;
      ignore (run db o (join_sql ~project_side (sel_to_x 0.5))))
    variants;
  List.map
    (fun sel ->
      let x = sel_to_x sel in
      let values =
        List.map
          (fun (_, o) ->
            min_of (fun () ->
                prep db o;
                total (run db o (join_sql ~project_side x))))
          variants
      in
      (sel, values))
    join_selectivities

let e11 () =
  header
    "E11 / Figure 11 — join, projected column on the pipelined (probe) side"
    "Paper: Late (shreds) <= Early (full), converging as selectivity grows;\n\
     probe order is preserved so late reads stay near-sequential.";
  let variants =
    [
      ("Early", opts ~shreds:Planner.Shreds ~join_policy:Planner.Early ());
      ("Late", opts ~shreds:Planner.Shreds ~join_policy:Planner.Late ());
      ("DBMS", opts ~access:Access.Dbms ());
    ]
  in
  print_sweep ~col_names:(List.map fst variants)
    (run_join_sweep ~project_side:`Probe variants)

let e12 () =
  header
    "E12 / Figure 12 — join, projected column on the pipeline-breaking (build) side"
    "Paper: the hash join shuffles build-side rows, so Late degrades with\n\
     selectivity (random raw-file accesses re-fault pages) and eventually\n\
     loses to Early; Intermediate sits between.";
  let variants =
    [
      ("Early", opts ~shreds:Planner.Shreds ~join_policy:Planner.Early ());
      ("Intermed",
       opts ~shreds:Planner.Shreds ~join_policy:Planner.Intermediate ());
      ("Late", opts ~shreds:Planner.Shreds ~join_policy:Planner.Late ());
      ("DBMS", opts ~access:Access.Dbms ());
    ]
  in
  print_sweep ~col_names:(List.map fst variants)
    (run_join_sweep ~project_side:`Build variants);
  (* the perf-counter analogue: page re-faults under the bounded residency *)
  Printf.printf
    "\npage faults at 60%% selectivity (proxy for the paper's DTLB/LLC misses):\n";
  let db = join_db () in
  List.iter
    (fun (name, o) ->
      prep db o;
      ignore (run db o (join_sql ~project_side:`Build (sel_to_x 0.6)));
      let faults =
        List.fold_left
          (fun acc t ->
            match (Catalog.get (Raw_db.catalog db) t).Catalog.state.Catalog.file with
            | Some f -> acc + Raw_storage.Mmap_file.faults f
            | None -> acc)
          0 [ "f1"; "f2" ]
      in
      Printf.printf "  %-10s %8d faults\n" name faults)
    [
      ("Early", opts ~shreds:Planner.Shreds ~join_policy:Planner.Early ());
      ("Late", opts ~shreds:Planner.Shreds ~join_policy:Planner.Late ());
    ]
