(* Watching RAW adapt: the same query sequence, three strategies.

     dune exec examples/adaptive_caching.exe

   Runs an exploration-style query sequence (the data-exploration workload
   that motivates in-situ processing) under External Tables, NoDB-style
   In-Situ, and RAW's JIT + column shreds, printing per-query times. The
   interesting shape: External is flat (re-parses everything each time),
   In-Situ improves once the positional map exists, RAW's curve drops
   fastest as the shred pool fills with exactly the columns the analyst
   keeps touching. *)

open Raw_vector
open Raw_core

let () =
  let dir = Filename.temp_file "raw_adaptive" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "events.csv" in
  Raw_formats.Csv.generate ~path ~n_rows:60_000 ~dtypes:(Array.make 20 Dtype.Int)
    ~seed:5 ();

  (* an exploration session: drill into different columns, narrowing down *)
  let session =
    [
      "SELECT COUNT(*) FROM logs WHERE col0 < 500000000";
      "SELECT MAX(col3) FROM logs WHERE col0 < 500000000";
      "SELECT MAX(col3) FROM logs WHERE col0 < 100000000";
      "SELECT MIN(col7) FROM logs WHERE col0 < 100000000";
      "SELECT AVG(col3) FROM logs WHERE col0 < 100000000 AND col7 < 800000000";
      "SELECT MAX(col12) FROM logs WHERE col0 < 50000000";
      "SELECT COUNT(*) FROM logs WHERE col3 > 900000000";
      "SELECT MAX(col3) FROM logs WHERE col3 > 900000000";
    ]
  in
  let strategies =
    [
      ("External Tables", { Planner.default with access = Access.External });
      ("In-Situ (NoDB)", { Planner.default with access = Access.In_situ });
      ("RAW (JIT+shreds)", Planner.default);
    ]
  in
  Format.printf "per-query total seconds (cpu + simulated io/compile):@.";
  Format.printf "%-22s" "query";
  List.iter (fun (name, _) -> Format.printf "%18s" name) strategies;
  Format.printf "@.";
  let dbs =
    List.map
      (fun (name, options) ->
        let db = Raw_db.create ~options () in
        Raw_db.register_csv db ~name:"logs" ~path
          ~columns:(List.init 20 (fun i -> (Printf.sprintf "col%d" i, Dtype.Int)))
          ();
        (name, db))
      strategies
  in
  List.iteri
    (fun i q ->
      Format.printf "%-22s" (Printf.sprintf "q%d" (i + 1));
      List.iter
        (fun (_, db) ->
          let r = Raw_db.query db q in
          Format.printf "%18.4f" r.total_seconds)
        dbs;
      Format.printf "@.")
    session;
  (* show what got cached *)
  List.iter
    (fun (name, db) ->
      let cat = Raw_db.catalog db in
      Format.printf
        "@.%s: %d pooled column shreds, %d compiled templates, posmap: %s@."
        name
        (Shred_pool.size (Catalog.shreds cat))
        (Template_cache.size (Catalog.templates cat))
        (match (Catalog.get cat "logs").state.posmap with
         | Some pm ->
           Printf.sprintf "tracks %d columns"
             (Array.length (Raw_formats.Posmap.tracked pm))
         | None -> "none"))
    dbs
