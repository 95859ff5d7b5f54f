open Raw_vector
open Raw_core
open Test_util

(* Every (access mode, shred strategy, join policy) combination must produce
   the same answers — the paper's strategies trade performance, never
   correctness. The DBMS + full-columns combination is the reference. *)

let modes = [ Access.Dbms; Access.External; Access.In_situ; Access.Jit ]
let strategies =
  [ Planner.Full_columns; Planner.Shreds; Planner.Multi_shreds; Planner.Adaptive ]
let policies = [ Planner.Early; Planner.Intermediate; Planner.Late ]

let opt_name (o : Planner.options) =
  Printf.sprintf "%s/%s/%s"
    (Access.mode_to_string o.access)
    (Cost_model.strategy_to_string o.shreds)
    (Planner.join_policy_to_string o.join_policy)

let all_options =
  List.concat_map
    (fun access ->
      List.concat_map
        (fun shreds ->
          List.map
            (fun join_policy ->
              { Planner.access; shreds; join_policy; tracked = `Every 2; use_indexes = true })
            policies)
        strategies)
    modes

(* fresh DB per option so adaptive state never leaks between variants *)
let make_db () =
  let path1 = write_csv_rows (grid_rows 40 6) in
  (* second table: key = 2*r (so only even col0 values of t match), payload *)
  let path2 = write_csv_rows (List.init 30 (fun r -> [ 200 * r; r; r * 7 ])) in
  let db = Raw_db.create () in
  Raw_db.register_csv db ~name:"t" ~path:path1 ~columns:(int_cols 6) ();
  Raw_db.register_csv db ~name:"u" ~path:path2
    ~columns:[ ("k", Dtype.Int); ("v", Dtype.Int); ("w", Dtype.Int) ] ();
  db

let queries =
  [
    ("selection agg", "SELECT MAX(col3) FROM t WHERE col0 < 2000");
    ("multi-predicate", "SELECT MAX(col5) FROM t WHERE col0 < 3000 AND col4 < 2710");
    ("count", "SELECT COUNT(*) FROM t WHERE col1 >= 1101");
    ("projection", "SELECT col2, col4 FROM t WHERE col0 > 3500 ORDER BY col2 DESC");
    ("join pipelined side",
     "SELECT MAX(t.col3) FROM t JOIN u ON t.col0 = u.k WHERE u.v < 15");
    ("join breaking side",
     "SELECT MAX(u.w) FROM t JOIN u ON t.col0 = u.k WHERE u.v < 15");
    ("group by",
     "SELECT w, COUNT(*), SUM(v) FROM u GROUP BY w HAVING COUNT(*) >= 1 ORDER BY w LIMIT 10");
    ("arith in select", "SELECT col0 + col1 FROM t WHERE col0 < 500 ORDER BY col0");
    ("or predicate", "SELECT COUNT(*) FROM t WHERE col0 < 300 OR col5 > 3800");
  ]

let reference_results =
  lazy
    (let db = make_db () in
     Raw_db.set_options db
       { Planner.access = Access.Dbms; shreds = Planner.Full_columns;
         join_policy = Planner.Early; tracked = `Every 2; use_indexes = true };
     List.map (fun (name, q) -> (name, rows_of_chunk (Raw_db.sql db q))) queries)

let combo_test (opts : Planner.options) =
  Alcotest.test_case (opt_name opts) `Quick (fun () ->
      let db = make_db () in
      Raw_db.set_options db opts;
      List.iter
        (fun (name, q) ->
          let got = rows_of_chunk (Raw_db.sql db q) in
          let want = List.assoc name (Lazy.force reference_results) in
          if got <> want then
            Alcotest.failf "%s: query %S disagrees with reference" (opt_name opts)
              name)
        queries)

let equivalence_tests = List.map combo_test all_options

(* Re-running the same queries on a warm database must also agree (the
   adaptive caches kick in on the second run). *)
let warm_tests =
  List.map
    (fun opts ->
      Alcotest.test_case ("warm " ^ opt_name opts) `Quick (fun () ->
          let db = make_db () in
          Raw_db.set_options db opts;
          List.iter (fun (_, q) -> ignore (Raw_db.sql db q)) queries;
          List.iter
            (fun (name, q) ->
              let got = rows_of_chunk (Raw_db.sql db q) in
              let want = List.assoc name (Lazy.force reference_results) in
              if got <> want then
                Alcotest.failf "warm %s: %S disagrees" (opt_name opts) name)
            queries))
    [
      { Planner.access = Access.Jit; shreds = Planner.Shreds;
        join_policy = Planner.Late; tracked = `Every 2; use_indexes = true };
      { Planner.access = Access.Jit; shreds = Planner.Multi_shreds;
        join_policy = Planner.Intermediate; tracked = `Every 2; use_indexes = true };
      { Planner.access = Access.In_situ; shreds = Planner.Shreds;
        join_policy = Planner.Late; tracked = `Every 2; use_indexes = true };
      { Planner.access = Access.Dbms; shreds = Planner.Full_columns;
        join_policy = Planner.Early; tracked = `Every 2; use_indexes = true };
    ]

(* Structural behavior *)

let shreds_opts =
  { Planner.access = Access.Jit; shreds = Planner.Shreds;
    join_policy = Planner.Late; tracked = `Every 2; use_indexes = true }

let converted (r : Executor.report) =
  match List.assoc_opt "csv.values_converted" r.counters with
  | Some v -> int_of_float v
  | None -> 0

let behavior_tests =
  [
    Alcotest.test_case "shreds read only qualifying rows" `Quick (fun () ->
        (* once a positional map exists, the predicate selects 10 of 40
           rows and col3 is converted for those alone: 40 (predicate col)
           + 10 (agg col) *)
        let db = make_db () in
        Raw_db.set_options db shreds_opts;
        ignore (Raw_db.query db "SELECT MAX(col1) FROM t");
        Alcotest.(check int) "40 predicate + 10 agg" 50
          (converted (Raw_db.query db "SELECT MAX(col3) FROM t WHERE col0 < 1000")));
    Alcotest.test_case "a first touch converts every read column in one pass"
      `Quick (fun () ->
        (* no positional map yet: the pass that tokenizes the file for
           col0 converts col3 for all 40 rows too, instead of re-reading
           the 10 qualifying rows afterwards *)
        let db = make_db () in
        Raw_db.set_options db shreds_opts;
        Alcotest.(check int) "40 predicate + 40 agg" 80
          (converted (Raw_db.query db "SELECT MAX(col3) FROM t WHERE col0 < 1000")));
    Alcotest.test_case "full columns read everything" `Quick (fun () ->
        let db = make_db () in
        Raw_db.set_options db
          { shreds_opts with shreds = Planner.Full_columns; join_policy = Planner.Early };
        Alcotest.(check int) "both columns in full" 80
          (converted (Raw_db.query db "SELECT MAX(col3) FROM t WHERE col0 < 1000")));
    Alcotest.test_case "plan output schema matches logical" `Quick (fun () ->
        let db = make_db () in
        let r = Raw_db.query db "SELECT col1 AS a, MAX(col2) AS m FROM t GROUP BY col1 LIMIT 2" in
        Alcotest.(check string) "first name" "a" (Schema.name r.schema 0);
        Alcotest.(check string) "second name" "m" (Schema.name r.schema 1);
        Alcotest.(check int) "arity" 2 (Chunk.n_cols r.chunk));
    Alcotest.test_case "limit works over pending columns" `Quick (fun () ->
        let db = make_db () in
        let r = Raw_db.query db "SELECT col1 FROM t LIMIT 3" in
        Alcotest.(check int) "three rows" 3 (Chunk.n_rows r.chunk));
    Alcotest.test_case "explain traces deferred scans and late attachment"
      `Quick (fun () ->
        let db = make_db () in
        (* a positional map over t, so no column needs a pass of its own *)
        ignore (Raw_db.query db "SELECT MAX(col1) FROM t");
        let trace =
          Raw_db.explain db "SELECT MAX(col3) FROM t WHERE col0 < 1000"
        in
        let has sub =
          List.exists
            (fun line ->
              let n = String.length sub and m = String.length line in
              let rec go i = i + n <= m && (String.sub line i n = sub || go (i + 1)) in
              go 0)
            trace
        in
        Alcotest.(check bool) "strategy line" true (has "strategy: access=jit");
        Alcotest.(check bool) "deferred scan" true (has "row-id stream only");
        Alcotest.(check bool) "late scan col0" true (has "columns [col0]");
        Alcotest.(check bool) "late scan col3 separate" true (has "columns [col3]");
        Alcotest.(check bool) "filter traced" true (has "filter:"));
    Alcotest.test_case "explain shows eager scans for full columns" `Quick
      (fun () ->
        let db = make_db () in
        let trace =
          Raw_db.explain
            ~options:{ Planner.default with shreds = Planner.Full_columns }
            db "SELECT MAX(col3) FROM t WHERE col0 < 1000"
        in
        let has sub =
          List.exists
            (fun line ->
              let n = String.length sub and m = String.length line in
              let rec go i = i + n <= m && (String.sub line i n = sub || go (i + 1)) in
              go 0)
            trace
        in
        Alcotest.(check bool) "eager" true (has "eager"));
    Alcotest.test_case "empty result has right shape" `Quick (fun () ->
        let db = make_db () in
        let r = Raw_db.query db "SELECT col1, col2 FROM t WHERE col0 < 0" in
        Alcotest.(check int) "no rows" 0 (Chunk.n_rows r.chunk);
        Alcotest.(check int) "two cols" 2 (Chunk.n_cols r.chunk));
  ]

(* ---------- selection pushdown ---------- *)

(* a(k, x), b(k, y), c(k, z): seeded rows with duplicate join keys *)
let push_rows =
  lazy
    (let st = Random.State.make [| 18 |] in
     let gen n kmax = List.init n (fun _ -> (Random.State.int st kmax, Random.State.int st 100)) in
     (gen 60 20, gen 40 25, gen 30 30))

let push_db () =
  let a, b, c = Lazy.force push_rows in
  let db = Raw_db.create () in
  List.iter
    (fun (name, v, rows) ->
      Raw_db.register_csv db ~name
        ~path:(write_csv_rows (List.map (fun (k, x) -> [ k; x ]) rows))
        ~columns:[ ("k", Dtype.Int); (v, Dtype.Int) ] ())
    [ ("a", "x", a); ("b", "y", b); ("c", "z", c) ];
  db

(* Each query: SQL, the pushed-down plan's shape, and the reference
   answer's WHERE and SUM operand over one joined (x, y, z) triple. The
   three-table query sums z; the others join no c and sum y. *)
let push_queries =
  let two = "SELECT COUNT(*), SUM(b.y) FROM a JOIN b ON a.k = b.k WHERE " in
  let three =
    "SELECT COUNT(*), SUM(c.z) FROM a JOIN b ON a.k = b.k JOIN c ON a.k = c.k WHERE "
  in
  let y (_, y, _) = y and z (_, _, z) = z in
  [
    ( "left side", two ^ "a.x < 50",
      "project($0,$1)<-agg(;COUNT(?),SUM($3))<-join($0=$0,filter(($1<?))<-scan(a:0,1),scan(b:0,1))",
      (fun (x, _, _) -> x < 50), y );
    ( "right side", two ^ "b.y >= 30",
      "project($0,$1)<-agg(;COUNT(?),SUM($2))<-join($0=$0,scan(a:0),filter(($1>=?))<-scan(b:0,1))",
      (fun (_, y, _) -> y >= 30), y );
    ( "cross-side and constant stay", two ^ "a.x < 70 AND b.y > 20 AND a.x < b.y AND 1 = 1",
      "project($0,$1)<-agg(;COUNT(?),SUM($3))<-filter((($1<$3) and (?=?)))<-join($0=$0,filter(($1<?))<-scan(a:0,1),filter(($1>?))<-scan(b:0,1))",
      (fun (x, y, _) -> x < 70 && y > 20 && x < y), y );
    ( "or across sides stays", two ^ "(a.x < 30 OR b.y > 80)",
      "project($0,$1)<-agg(;COUNT(?),SUM($3))<-filter((($1<?) or ($3>?)))<-join($0=$0,scan(a:0,1),scan(b:0,1))",
      (fun (x, y, _) -> x < 30 || y > 80), y );
    ( "one-sided or and not move", two ^ "(a.x < 40 OR a.x > 90) AND NOT (b.y < 15)",
      "project($0,$1)<-agg(;COUNT(?),SUM($3))<-join($0=$0,filter((($1<?) or ($1>?)))<-scan(a:0,1),filter(not ($1<?))<-scan(b:0,1))",
      (fun (x, y, _) -> (x < 40 || x > 90) && not (y < 15)), y );
    ( "three tables", three ^ "a.x < 60 AND b.y > 10 AND c.z < 70 AND a.x < c.z",
      "project($0,$1)<-agg(;COUNT(?),SUM($5))<-filter(($1<$5))<-join($0=$0,join($0=$0,filter(($1<?))<-scan(a:0,1),filter(($1>?))<-scan(b:0,1)),filter(($1<?))<-scan(c:0,1))",
      (fun (x, y, z) -> x < 60 && y > 10 && z < 70 && x < z), z );
  ]

(* nested-loop join over the generated rows; c joins on a's key, and z is
   0 when the query joins no c *)
let push_reference ~with_c where sum_of =
  let a, b, c = Lazy.force push_rows in
  let triples =
    List.concat_map
      (fun (ka, x) ->
        List.concat_map
          (fun (kb, y) ->
            if ka <> kb then []
            else if not with_c then [ (x, y, 0) ]
            else List.filter_map (fun (kc, z) -> if kc = ka then Some (x, y, z) else None) c)
          b)
      a
  in
  let qualifying = List.filter where triples in
  [ [ Value.Int (List.length qualifying);
      (match qualifying with
       | [] -> Value.Null
       | l -> Value.Int (List.fold_left (fun s t -> s + sum_of t) 0 l)) ] ]

let pushdown_tests =
  let shape (name, sql, want, _, _) =
    Alcotest.test_case ("shape: " ^ name) `Quick (fun () ->
        let db = push_db () in
        let plan = Sql_binder.bind_string (Raw_db.catalog db) sql in
        Alcotest.(check string) sql want (Logical.fingerprint (Logical.push_filters plan)))
  in
  let answers (shreds, join_policy) =
    let o = { Planner.default with Planner.shreds; join_policy } in
    Alcotest.test_case ("answers " ^ opt_name o) `Quick (fun () ->
        let db = push_db () in
        Raw_db.set_options db o;
        List.iter
          (fun (name, sql, _, where, sum_of) ->
            let with_c = sum_of (0, 0, 1) = 1 in
            Alcotest.(check (list (list value_testable))) name
              (push_reference ~with_c where sum_of)
              (rows_of_chunk (Raw_db.sql db sql)))
          push_queries)
  in
  (* the paper's §5.3.2 plans (E11/E12), which the join benches once had to
     build by hand: the file2 selection below the join, on the build side *)
  let paper_join side =
    Alcotest.test_case ("E11/E12 SQL plans as the paper's: " ^ side) `Quick
      (fun () ->
        let db = Raw_db.create () in
        List.iter
          (fun name ->
            Raw_db.register_csv db ~name ~path:(write_csv_rows (grid_rows 20 12))
              ~columns:(int_cols 12) ())
          [ "f1"; "f2" ];
        let cat = Raw_db.catalog db in
        let bound =
          Sql_binder.bind_string cat
            (Printf.sprintf
               "SELECT MAX(%s.col10) FROM f1 JOIN f2 ON f1.col0 = f2.col0 WHERE f2.col1 < 500"
               side)
        in
        let probe = side = "f1" in
        let by_hand =
          Logical.Aggregate
            {
              keys = [];
              aggs = [ { Logical.op = Kernels.Max; expr = Raw_engine.Expr.col (if probe then 1 else 3);
                         name = "agg0" } ];
              input =
                Logical.Join
                  {
                    left = Logical.Scan { table = "f1"; columns = (if probe then [ 0; 10 ] else [ 0 ]) };
                    right =
                      Logical.Filter
                        ( Raw_engine.Expr.(col 1 < int 500),
                          Logical.Scan
                            { table = "f2"; columns = (if probe then [ 0; 1 ] else [ 0; 1; 10 ]) } );
                    left_key = 0;
                    right_key = 0;
                  };
            }
        in
        (match Logical.push_filters bound with
         | Logical.Project ([ (Raw_engine.Expr.Col 0, _) ], agg) ->
           Alcotest.(check bool) "pushed-down plan is the hand-built one" true (agg = by_hand)
         | p -> Alcotest.failf "unexpected plan %a" Logical.pp p);
        List.iter
          (fun o ->
            let trace plan =
              let p = Planner.plan_with_trace cat o plan in
              Raw_engine.Operator.close p.op;
              p.trace
            in
            Alcotest.(check (list string)) (opt_name o) (trace by_hand) (trace bound))
          [ { Planner.default with join_policy = Planner.Early };
            { Planner.default with join_policy = Planner.Intermediate };
            Planner.default ])
  in
  List.map shape push_queries
  @ [ paper_join "f1"; paper_join "f2" ]
  @ List.concat_map
      (fun s -> List.map (fun p -> answers (s, p)) policies)
      [ Planner.Full_columns; Planner.Shreds; Planner.Multi_shreds ]

(* ---------- one pass over a file no positional map reaches ---------- *)

let counter name (r : Executor.report) =
  int_of_float (Option.value (List.assoc_opt name r.counters) ~default:0.)

let first_multi = "SELECT MAX(col5), SUM(col2) FROM t WHERE col0 < 2000"

(* the first query over t's 40 rows x 6 columns, and its reference answer *)
let first_touch ?config opts =
  let db = Raw_db.create ?config () in
  Raw_db.register_csv db ~name:"t" ~path:(write_csv_rows (grid_rows 40 6))
    ~columns:(int_cols 6) ();
  Raw_db.set_options db opts;
  (db, Raw_db.query db first_multi)

let first_answer = [ [ Value.Int 1905; Value.Int 19040 ] ]

(* The row endings and bad rows a count pass has to agree with, as files
   of a two-column (a Int, s String) table. *)
let parity_files =
  [ ("no trailing newline", "1,x\n2,y"); ("crlf", "1,x\r\n2,y\r\n");
    ("blank last line", "1,x\n2,y\n\n"); ("one row", "7,z\n"); ("empty", "");
    ("bad int", "1,x\nq,y\n3,z\n") ]

let row_count_parity (name, contents) =
  Alcotest.test_case ("row count from the pass: " ^ name) `Quick (fun () ->
      let path = fresh_path ".csv" in
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      let schema = Schema.of_pairs [ ("a", Dtype.Int); ("s", Dtype.String) ] in
      List.iter
        (fun ((policy, parallelism), mode) ->
          let config = { Config.default with Config.on_error = policy; parallelism } in
          let cat = Catalog.create ~config () in
          Catalog.register cat ~name:"t" ~path ~format:(Format_kind.Csv { sep = ',' }) ~schema;
          let entry = Catalog.get cat "t" in
          let file = Catalog.file cat entry in
          let want =
            match policy with
            | Raw_storage.Scan_errors.Skip_row ->
              Scan_csv.count_valid_rows ~file ~sep:',' ~schema ()
            | Fail_fast | Null_fill -> Raw_formats.Csv.count_rows file
          in
          (* Fail_fast reads the string column alone, which never fails *)
          let cols = if policy = Fail_fast then [ 1 ] else [ 0; 1 ] in
          let label =
            Printf.sprintf "%s, %s, parallelism %d" (Access.mode_to_string mode)
              (Raw_storage.Scan_errors.policy_to_string policy) parallelism
          in
          Alcotest.(check bool) (label ^ ": a pass is needed") true
            (Access.needs_pass cat ~mode entry cols);
          let columns, rowids = Access.read_table cat ~mode ~entry ~tracked:[ 0 ] ~cols in
          Alcotest.(check int) (label ^ ": rows") want (Array.length rowids);
          Alcotest.(check int) (label ^ ": column length") want (Column.length columns.(0));
          Alcotest.(check (option int)) (label ^ ": table sized") (Some want) entry.state.n_rows)
        (List.concat_map
           (fun p -> [ ((p, 1), Access.Jit); ((p, 4), Access.Jit); ((p, 1), Access.In_situ) ])
           (if name = "bad int" then [ Raw_storage.Scan_errors.Skip_row; Null_fill ]
            else [ Fail_fast; Skip_row; Null_fill ])))

let one_pass_tests =
  [
    Alcotest.test_case "a first multi-column query tokenizes the file once" `Quick
      (fun () ->
        let _, r = first_touch shreds_opts in
        Alcotest.(check (list (list value_testable))) "answer" first_answer
          (rows_of_chunk r.chunk);
        Alcotest.(check int) "rows x arity" (40 * 6) (counter "csv.fields_tokenized" r);
        Alcotest.(check int) "rows x query columns" (40 * 3) (counter "csv.values_converted" r));
    Alcotest.test_case "the trace shows one full scan, no fetch, and why" `Quick
      (fun () ->
        let config = { Config.default with Config.observe = true } in
        let _, r = first_touch ~config shreds_opts in
        let spans name =
          List.filter
            (fun (s : Raw_obs.Trace.span) ->
              s.name = name && List.assoc_opt "table" s.args = Some "t")
            r.spans
        in
        Alcotest.(check int) "one scan.full" 1 (List.length (spans "scan.full"));
        Alcotest.(check int) "no scan.fetch" 0 (List.length (spans "scan.fetch"));
        match decisions_at "access.path" r.spans with
        | [ d ] ->
          Alcotest.(check string) "choice" "one_pass" d.choice;
          Alcotest.(check (list (pair string string))) "inputs"
            [ ("table", "t"); ("columns", "col0,col2,col5"); ("rows", "40") ]
            d.inputs
        | ds -> Alcotest.failf "%d access.path decisions" (List.length ds));
    Alcotest.test_case "strategies and kernels agree, first touch and warm" `Quick
      (fun () ->
        List.iter
          (fun (shreds, access, budget) ->
            let opts = { shreds_opts with shreds; access } in
            let label = opt_name opts ^ if budget = None then "" else " tight budget" in
            let config = { Config.default with Config.memory_budget = budget } in
            let db, r = first_touch ~config opts in
            Alcotest.(check (list (list value_testable))) label first_answer (rows_of_chunk r.chunk);
            (* even when the pool cannot hold a column, one pass *)
            Alcotest.(check int) (label ^ ": one pass") (40 * 6) (counter "csv.fields_tokenized" r);
            Alcotest.(check (list (list value_testable))) (label ^ " warm") first_answer
              (rows_of_chunk (Raw_db.sql db first_multi)))
          (List.concat_map
             (fun s ->
               List.concat_map
                 (* 256 bytes hold no 40-row column *)
                 (fun a -> [ (s, a, None); (s, a, Some 256) ])
                 [ Access.Jit; Access.In_situ ])
             strategies));
    Alcotest.test_case "Adaptive sizes a first touch from its one pass" `Quick
      (fun () ->
        (* under Skip_row a count pass would report the bad row too *)
        let path = fresh_path ".csv" in
        Out_channel.with_open_bin path (fun oc -> output_string oc "1,2\nq,3\n4,5\n");
        let config =
          { Config.default with Config.on_error = Raw_storage.Scan_errors.Skip_row; observe = true }
        in
        let db = Raw_db.create ~config () in
        Raw_db.register_csv db ~name:"t" ~path ~columns:(int_cols 2) ();
        let r =
          Raw_db.query ~options:{ shreds_opts with shreds = Planner.Adaptive } db
            "SELECT MAX(col1) FROM t WHERE col0 < 10"
        in
        Alcotest.(check (list (list value_testable))) "answer" [ [ Value.Int 5 ] ]
          (rows_of_chunk r.chunk);
        Alcotest.(check int) "the bad row, once" 1 r.errors.total;
        match decisions_at "planner.adaptive" r.spans with
        | [ d ] -> Alcotest.(check (option string)) "rows" (Some "2") (List.assoc_opt "n_rows" d.inputs)
        | ds -> Alcotest.failf "%d planner.adaptive decisions" (List.length ds));
  ]
  @ List.map row_count_parity parity_files

let suites =
  [
    ("planner.one_pass", one_pass_tests);
    ("planner.pushdown", pushdown_tests);
    ("planner.equivalence", equivalence_tests);
    ("planner.warm", warm_tests);
    ("planner.behavior", behavior_tests);
  ]
