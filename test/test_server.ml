(* The serving tier (PR 6): shared scans, the statement/result cache and
   its staleness rule, budget-driven result eviction, and the Unix-socket
   server end to end. *)

open Raw_vector
open Raw_core
module Jsons = Raw_obs.Jsons
module Io_stats = Raw_storage.Io_stats

(* 1000 rows with enough structure for filters, grouping and arithmetic:
   col0 = i, col1 = i mod 7, col2 = (i * 37) mod 100, col3 = i / 10. *)
let mk_rows n =
  List.init n (fun i -> [ i; i mod 7; i * 37 mod 100; i / 10 ])

let db_over path =
  let db = Raw_db.create () in
  Raw_db.register_csv db ~name:"t" ~path ~columns:(Test_util.int_cols 4) ();
  db

(* Query shapes covering every operator a shared-scan member replays:
   filter, project, aggregate, group-by, order-by, limit, expressions. *)
let member_queries =
  [
    "SELECT col0, col2 FROM t WHERE col0 < 250";
    "SELECT COUNT(*) FROM t";
    "SELECT SUM(col0), MIN(col2) FROM t WHERE col1 = 3";
    "SELECT col1, COUNT(*) FROM t GROUP BY col1 ORDER BY col1 ASC";
    "SELECT col0 FROM t ORDER BY col0 DESC LIMIT 5";
    "SELECT col0 + col2 FROM t WHERE NOT (col1 = 0) LIMIT 10";
  ]

(* A shared group as the server runs it: the warm pass, then every member
   through the ordinary query path *)
let run_group db plans =
  Shared_scan.warm (Raw_db.catalog db) (Raw_db.options db) plans;
  List.map (fun plan -> (Raw_db.run_plan db plan).Executor.chunk) plans

let tokenized () = Io_stats.get "csv.fields_tokenized"

let shared_scan_suite =
  [
    Alcotest.test_case
      "shareable_table accepts single-table, rejects joins and External"
      `Quick (fun () ->
        let path = Test_util.write_csv_rows (mk_rows 50) in
        let db = Raw_db.create () in
        Raw_db.register_csv db ~name:"t" ~path ~columns:(Test_util.int_cols 4) ();
        Raw_db.register_csv db ~name:"u" ~path ~columns:(Test_util.int_cols 4) ();
        let bind q = Raw_db.bind_cached db q in
        let shareable = Shared_scan.shareable_table Planner.default in
        Alcotest.(check (option string))
          "plain scan" (Some "t")
          (shareable (bind "SELECT col0 FROM t WHERE col1 = 2"));
        Alcotest.(check (option string))
          "aggregate" (Some "t")
          (shareable (bind "SELECT COUNT(*) FROM t"));
        Alcotest.(check (option string))
          "join refused" None
          (shareable (bind "SELECT t.col0 FROM t JOIN u ON t.col0 = u.col0"));
        Alcotest.(check (option string))
          "External refused" None
          (Shared_scan.shareable_table
             { Planner.default with access = Access.External }
             (bind "SELECT COUNT(*) FROM t")));
    Alcotest.test_case "shared group results are bit-identical to one-shot"
      `Slow (fun () ->
        let path = Test_util.write_csv_rows (mk_rows 1000) in
        (* expected answers from private sessions, one per query, so no
           adaptive state crosses between members *)
        let expected =
          List.map (fun q -> Raw_db.sql (db_over path) q) member_queries
        in
        (* what one scan of the members' union of columns tokenizes *)
        let union_tokenized =
          let t0 = tokenized () in
          ignore (Raw_db.sql (db_over path) "SELECT col0, col1, col2 FROM t");
          tokenized () - t0
        in
        Alcotest.(check bool) "the union scan tokenizes" true
          (union_tokenized > 0);
        let db = db_over path in
        let plans = List.map (Raw_db.bind_cached db) member_queries in
        let check_members what got =
          List.iteri
            (fun i (want, got) ->
              Test_util.check_chunk
                (Printf.sprintf "%s member %d: %s" what i
                   (List.nth member_queries i))
                want got)
            (List.combine expected got)
        in
        let t0 = tokenized () in
        Shared_scan.warm (Raw_db.catalog db) (Raw_db.options db) plans;
        let t1 = tokenized () in
        let cold = List.map (fun p -> (Raw_db.run_plan db p).Executor.chunk) plans in
        Alcotest.(check int) "the warm pass tokenizes one scan of the union"
          union_tokenized (t1 - t0);
        Alcotest.(check int) "the members tokenize nothing" t1 (tokenized ());
        check_members "cold" cold;
        (* and again through the same session: adaptive state warmed by the
           shared pass must not change answers, and the pooled columns
           need no second read *)
        check_members "warm" (run_group db plans);
        Alcotest.(check int) "a warm group tokenizes nothing" t1 (tokenized ()));
    Alcotest.test_case "mixed-table group is refused" `Quick (fun () ->
        let path = Test_util.write_csv_rows (mk_rows 50) in
        let db = Raw_db.create () in
        Raw_db.register_csv db ~name:"t" ~path ~columns:(Test_util.int_cols 4) ();
        Raw_db.register_csv db ~name:"u" ~path ~columns:(Test_util.int_cols 4) ();
        let plans =
          [
            Raw_db.bind_cached db "SELECT col0 FROM t";
            Raw_db.bind_cached db "SELECT col0 FROM u";
          ]
        in
        match run_group db plans with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Statement + result cache                                            *)
(* ------------------------------------------------------------------ *)

let output_rows oc rows =
  List.iter
    (fun r ->
      output_string oc (String.concat "," (List.map string_of_int r) ^ "\n"))
    rows;
  close_out oc

let overwrite_with_bump path rows =
  (* same-second overwrites are real on fast filesystems; force the mtime
     forward so the identity check cannot depend on timestamp luck *)
  let st = Unix.stat path in
  output_rows (open_out path) rows;
  Unix.utimes path (st.Unix.st_mtime +. 2.0) (st.Unix.st_mtime +. 2.0)

(* an append changes the file's size, and so its identity *)
let append_rows path rows =
  output_rows (open_out_gen [ Open_append; Open_wronly ] 0o644 path) rows

let cache_suite =
  [
    Alcotest.test_case "statement cache returns the identical bound plan"
      `Quick (fun () ->
        let path = Test_util.write_csv_rows (mk_rows 100) in
        let db = db_over path in
        let q = "SELECT col0 FROM t WHERE col1 = 2" in
        let p1 = Raw_db.bind_cached db q in
        let p2 = Raw_db.bind_cached db q in
        Alcotest.(check bool) "physically shared" true (p1 == p2));
    Alcotest.test_case "exact_key separates constants, fingerprint does not"
      `Quick (fun () ->
        let path = Test_util.write_csv_rows (mk_rows 100) in
        let db = db_over path in
        let a = Raw_db.bind_cached db "SELECT col0 FROM t WHERE col1 < 3" in
        let b = Raw_db.bind_cached db "SELECT col0 FROM t WHERE col1 < 5" in
        Alcotest.(check string)
          "same shape" (Logical.fingerprint a) (Logical.fingerprint b);
        Alcotest.(check bool)
          "different exact keys" false
          (Logical.exact_key a = Logical.exact_key b));
    Alcotest.test_case "overwriting the file invalidates cached results"
      `Slow (fun () ->
        let path = Test_util.write_csv_rows (mk_rows 100) in
        let db = db_over path in
        let cache = Raw_db.stmt_cache db in
        let q = "SELECT SUM(col0) FROM t" in
        let plan = Raw_db.bind_cached db q in
        let r1 = Raw_db.sql db q in
        let key1 =
          match Stmt_cache.result_key (Raw_db.catalog db) plan with
          | Some k -> k
          | None -> Alcotest.fail "expected a cacheable key"
        in
        Stmt_cache.put_result cache (Raw_db.catalog db) ~key:key1
          ~tables:(Logical.tables plan) r1 (Raw_db.describe db "t");
        Alcotest.(check bool) "hit while fresh" true
          (Stmt_cache.find_result cache key1 <> None);
        (* no change on disk -> refresh is a no-op *)
        Alcotest.(check (list string)) "no false invalidation" []
          (Raw_db.refresh_tables db [ "t" ]);
        (* overwrite with different bytes *)
        overwrite_with_bump path (mk_rows 50);
        Alcotest.(check (list string))
          "t invalidated" [ "t" ]
          (Raw_db.refresh_tables db [ "t" ]);
        Alcotest.(check bool) "entry dropped" true
          (Stmt_cache.find_result cache key1 = None);
        let key2 =
          match
            Stmt_cache.result_key (Raw_db.catalog db)
              (Raw_db.bind_cached db q)
          with
          | Some k -> k
          | None -> Alcotest.fail "expected a cacheable key"
        in
        Alcotest.(check bool) "key tracks the file version" false (key1 = key2);
        (* the session must now answer from the new bytes, equal to a cold
           session over the same file *)
        Test_util.check_chunk "recomputed from new bytes"
          (Raw_db.sql (db_over path) q)
          (Raw_db.sql db q));
    Alcotest.test_case "budget evicts LRU results first" `Quick (fun () ->
        let path = Test_util.write_csv_rows (mk_rows 1000) in
        let config =
          { Config.default with Config.memory_budget = Some 200_000 }
        in
        let db = Raw_db.create ~config () in
        Raw_db.register_csv db ~name:"t" ~path ~columns:(Test_util.int_cols 4) ();
        let cache = Raw_db.stmt_cache db in
        let cat = Raw_db.catalog db in
        let big = Raw_db.sql db "SELECT col0, col1, col2, col3 FROM t" in
        let schema = Raw_db.describe db "t" in
        Io_stats.reset "gov.evictions.results";
        let key i = Printf.sprintf "synthetic-key-%d" i in
        (* each entry is ~4 cols x 1000 rows; a 200 KB budget (shared with
           the file pages already charged) cannot hold many. Key 0 is hit
           before every later insert, so it stays the most recently used
           entry apart from the one being inserted *)
        for i = 0 to 9 do
          ignore (Stmt_cache.find_result cache (key 0));
          Stmt_cache.put_result cache cat ~key:(key i) ~tables:[ "t" ] big
            schema
        done;
        Alcotest.(check bool) "evictions happened" true
          (Io_stats.get "gov.evictions.results" > 0
          || Stmt_cache.n_results cache < 10);
        Alcotest.(check bool) "usage stays within reason" true
          (Stmt_cache.byte_usage cache <= 200_000);
        (* LRU order: the survivors are key 0 plus the most recent inserts;
           key 1, the least recently used, went first *)
        let n = Stmt_cache.n_results cache in
        let present =
          List.init 10 (fun i -> Stmt_cache.find_result cache (key i) <> None)
        in
        Alcotest.(check bool) "the recently hit entry survives" true
          (List.hd present);
        Alcotest.(check bool) "the least recently used entry is gone" false
          (List.nth present 1);
        Alcotest.(check (list bool)) "survivors are the newest inserts"
          (List.init 10 (fun i -> i = 0 || i > 10 - n))
          present);
  ]

(* ------------------------------------------------------------------ *)
(* The server, end to end over a Unix socket                           *)
(* ------------------------------------------------------------------ *)

let connect_when_ready socket_path =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    match Server.Client.connect socket_path with
    | c -> c
    | exception Unix.Unix_error _ ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "server did not come up within 10s";
      Thread.delay 0.01;
      go ()
  in
  go ()

let int_rows j =
  match Jsons.member "rows" j with
  | Some (Jsons.List rows) ->
    List.map
      (function
        | Jsons.List cells ->
          List.map
            (function
              | Jsons.Int n -> n
              | c -> Alcotest.failf "non-int cell %s" (Jsons.to_string c))
            cells
        | r -> Alcotest.failf "non-list row %s" (Jsons.to_string r))
      rows
  | _ -> Alcotest.failf "no rows in %s" (Jsons.to_string j)

let counters_of c =
  match Server.Client.stats c with
  | Ok j -> (
    match Jsons.member "counters" j with
    | Some (Jsons.Obj kvs) -> kvs
    | _ -> Alcotest.failf "no counters in %s" (Jsons.to_string j))
  | Error e -> Alcotest.failf "stats: %s" (Server.Client.err_to_string e)

let counter kvs k =
  match List.assoc_opt k kvs with
  | Some (Jsons.Int n) -> float_of_int n
  | Some (Jsons.Float f) -> f
  | _ -> 0.

(* Serve [db] while [f socket_path ctl] runs, [ctl] being an open
   session; the server is shut down afterwards *)
let with_server ~batch_window db f =
  let socket_path = Test_util.fresh_path ".sock" in
  let server =
    Thread.create (fun () -> Server.serve ~batch_window ~socket_path db) ()
  in
  let ctl = connect_when_ready socket_path in
  Fun.protect
    ~finally:(fun () ->
      ignore (Server.Client.shutdown ctl);
      Server.Client.close ctl;
      Thread.join server)
    (fun () -> f socket_path ctl)

(* One query per connection, all sent at once. Returns the responses in
   order. *)
let send_together conns sqls =
  let responses = Array.make (List.length sqls) Jsons.Null in
  List.mapi
    (fun i (c, sql) ->
      Thread.create
        (fun () ->
          responses.(i) <-
            (match Server.Client.query c sql with
             | Ok j -> j
             | Error e -> Jsons.Str (Server.Client.err_to_string e)))
        ())
    (List.combine conns sqls)
  |> List.iter Thread.join;
  Array.to_list responses

(* Serve [db] and send [sqls] at once, one session each, so they meet in
   one batch window. Returns the responses in order and the server's
   counters before and after. *)
let serve_batch ?(batch_window = 0.2) db sqls =
  with_server ~batch_window db (fun socket_path ctl ->
      let conns = List.map (fun _ -> connect_when_ready socket_path) sqls in
      let before = counters_of ctl in
      let responses = send_together conns sqls in
      let after = counters_of ctl in
      List.iter Server.Client.close conns;
      (responses, before, after))

let flag name j = Jsons.member name j = Some (Jsons.Bool true)

let query_ok c sql =
  match Server.Client.query c sql with
  | Ok j when Jsons.member "ok" j = Some (Jsons.Bool true) -> j
  | Ok j -> Alcotest.failf "query failed: %s" (Jsons.to_string j)
  | Error e -> Alcotest.failf "query: %s" (Server.Client.err_to_string e)

let timing_of j name =
  match Option.bind (Jsons.member "timing" j) (Jsons.member name) with
  | Some (Jsons.Float x) -> x
  | Some (Jsons.Int n) -> float_of_int n
  | _ -> Alcotest.failf "no timing.%s in %s" name (Jsons.to_string j)

(* [sql]'s single integer answer on a fresh engine over [path] *)
let fresh_answer path sql =
  match Raw_db.scalar (db_over path) sql with
  | Value.Int n -> n
  | v -> Alcotest.failf "non-int answer %s" (Value.to_string v)

(* [sql] answered [one-shot answer] rows, shared or not as [shared] says *)
let check_answer ~path ~shared sql j =
  Alcotest.(check bool) (sql ^ " ok") true (flag "ok" j);
  Alcotest.(check (list (list int))) sql [ [ fresh_answer path sql ] ]
    (int_rows j);
  Alcotest.(check bool) (sql ^ " shared") shared (flag "shared" j)

let pair =
  [ "SELECT SUM(col0) FROM t WHERE col1 = 3"; "SELECT MAX(col2) FROM t" ]

(* Shared members are ordinary queries: deadline, history, profile and
   errors apply to each of them *)
let shared_serve_suite =
  [
    Alcotest.test_case "a deadline applies to every shared member" `Slow
      (fun () ->
        let path = Test_util.write_csv_rows (mk_rows 1000) in
        let config = { Config.default with Config.deadline = Some 1e-9 } in
        let db = Raw_db.create ~config () in
        Raw_db.register_csv db ~name:"t" ~path ~columns:(Test_util.int_cols 4) ();
        let responses, _, _ = serve_batch ~batch_window:0.05 db pair in
        List.iter
          (fun j ->
            Alcotest.(check bool)
              ("deadline exceeded: " ^ Jsons.to_string j)
              true
              (Jsons.member "code" j = Some (Jsons.Int 4)))
          responses);
    Alcotest.test_case "shared members write history and are profiled" `Slow
      (fun () ->
        (* enough rows that a member's allocation spans minor collections,
           which is when the per-domain GC counters advance *)
        let path = Test_util.write_csv_rows (mk_rows 200_000) in
        let history = Test_util.fresh_path ".jsonl" in
        let config =
          { Config.default with Config.history_path = Some history; profile = true }
        in
        let db = Raw_db.create ~config () in
        Raw_db.register_csv db ~name:"t" ~path ~columns:(Test_util.int_cols 4) ();
        let alloc () =
          Io_stats.get_float (Raw_obs.Metrics.id Raw_obs.Metrics.alloc_minor_words)
          +. Io_stats.get_float (Raw_obs.Metrics.id Raw_obs.Metrics.alloc_major_words)
        in
        let alloc0 = alloc () in
        let responses, _, _ = serve_batch db pair in
        List.iter2 (check_answer ~path ~shared:true) pair responses;
        let records, malformed = Raw_obs.History.load history in
        Alcotest.(check int) "no malformed lines" 0 malformed;
        Alcotest.(check (list string)) "one Completed record per member"
          [ "ok"; "ok" ]
          (List.map
             (fun (r : Raw_obs.History.record) ->
               Raw_obs.History.status_to_string r.status)
             records);
        Alcotest.(check bool) "the records are profiled" true
          (List.for_all
             (fun (r : Raw_obs.History.record) -> r.alloc_words <> None)
             records);
        Alcotest.(check bool) "the pair moved alloc.*" true (alloc () > alloc0));
    Alcotest.test_case "a poisoned member fails alone, the rest answer shared"
      `Slow (fun () ->
        let path = Test_util.write_csv_rows (mk_rows 1000) in
        let db = Raw_db.create () in
        (* col3 read as text: SUM over it is a type error at execution *)
        Raw_db.register_csv db ~name:"t" ~path
          ~columns:(Test_util.int_cols 3 @ [ ("col3", Dtype.String) ])
          ();
        let healthy = "SELECT COUNT(*) FROM t WHERE col0 < 250" :: pair in
        let responses, _, _ =
          serve_batch db ("SELECT SUM(col3) FROM t" :: healthy)
        in
        let poisoned = List.hd responses in
        Alcotest.(check bool)
          ("poisoned member fails: " ^ Jsons.to_string poisoned)
          true
          (Jsons.member "code" poisoned = Some (Jsons.Int 3));
        List.iter2 (check_answer ~path ~shared:true) healthy (List.tl responses));
    Alcotest.test_case "External members run alone" `Slow (fun () ->
        let path = Test_util.write_csv_rows (mk_rows 1000) in
        let db =
          Raw_db.create
            ~options:{ Planner.default with access = Access.External }
            ()
        in
        Raw_db.register_csv db ~name:"t" ~path ~columns:(Test_util.int_cols 4) ();
        let responses, before, after = serve_batch db pair in
        List.iter2 (check_answer ~path ~shared:false) pair responses;
        Alcotest.(check (float 0.)) "no batch" 0.
          (counter after "server.batches" -. counter before "server.batches"));
  ]

let server_suite =
  [
    Alcotest.test_case "concurrent sessions get correct, cached answers"
      `Slow (fun () ->
        let path_a = Test_util.write_csv_rows (mk_rows 1000) in
        let path_b = Test_util.write_csv_rows (mk_rows 400) in
        let socket_path = Test_util.fresh_path ".sock" in
        (* oracle counts from a private session before the server exists *)
        let oracle = Raw_db.create () in
        Raw_db.register_csv oracle ~name:"a" ~path:path_a
          ~columns:(Test_util.int_cols 4) ();
        Raw_db.register_csv oracle ~name:"b" ~path:path_b
          ~columns:(Test_util.int_cols 4) ();
        let expect table k =
          match
            Raw_db.scalar oracle
              (Printf.sprintf "SELECT COUNT(*) FROM %s WHERE col0 < %d" table k)
          with
          | Value.Int n -> n
          | v -> Alcotest.failf "non-int count %s" (Value.to_string v)
        in
        let db = Raw_db.create () in
        Raw_db.register_csv db ~name:"a" ~path:path_a
          ~columns:(Test_util.int_cols 4) ();
        Raw_db.register_csv db ~name:"b" ~path:path_b
          ~columns:(Test_util.int_cols 4) ();
        let server =
          Thread.create
            (fun () -> Server.serve ~batch_window:0.002 ~socket_path db)
            ()
        in
        let failures = ref [] in
        let fail_mutex = Mutex.create () in
        let sessions = 8 and per_session = 4 in
        let run_round () =
          let threads =
            List.init sessions (fun si ->
                Thread.create
                  (fun () ->
                    let table = if si mod 2 = 0 then "a" else "b" in
                    let c = connect_when_ready socket_path in
                    Fun.protect
                      ~finally:(fun () -> Server.Client.close c)
                      (fun () ->
                        for q = 0 to per_session - 1 do
                          let k = ((si * per_session) + q + 1) * 13 in
                          let sql =
                            Printf.sprintf
                              "SELECT COUNT(*) FROM %s WHERE col0 < %d" table k
                          in
                          match Server.Client.query c sql with
                          | Error e ->
                            Mutex.protect fail_mutex (fun () ->
                                failures := (sql ^ ": " ^ Server.Client.err_to_string e) :: !failures)
                          | Ok j -> (
                            match (Jsons.member "ok" j, int_rows j) with
                            | Some (Jsons.Bool true), [ [ got ] ]
                              when got = expect table k -> ()
                            | _ ->
                              Mutex.protect fail_mutex (fun () ->
                                  failures :=
                                    (sql ^ " -> " ^ Jsons.to_string j)
                                    :: !failures))
                        done))
                  ())
          in
          List.iter Thread.join threads
        in
        run_round ();
        (* second round repeats every statement: the result cache serves it *)
        run_round ();
        (match !failures with
        | [] -> ()
        | f :: _ ->
          Alcotest.failf "%d bad response(s), e.g. %s" (List.length !failures) f);
        let c = connect_when_ready socket_path in
        (match Server.Client.ping c with
        | Ok j ->
          Alcotest.(check bool) "pong" true
            (Jsons.member "ok" j = Some (Jsons.Bool true))
        | Error e -> Alcotest.failf "ping: %s" (Server.Client.err_to_string e));
        (match Server.Client.stats c with
        | Ok j -> (
          match Jsons.member "counters" j with
          | Some (Jsons.Obj kvs) ->
            let get k =
              match List.assoc_opt k kvs with
              | Some (Jsons.Int n) -> n
              | Some (Jsons.Float f) -> int_of_float f
              | _ -> 0
            in
            Alcotest.(check bool) "all requests counted" true
              (get "server.requests" >= 2 * sessions * per_session);
            Alcotest.(check bool) "warm round hit the result cache" true
              (get "cache.result.hits" >= sessions * per_session)
          | _ -> Alcotest.failf "no counters in %s" (Jsons.to_string j))
        | Error e -> Alcotest.failf "stats: %s" (Server.Client.err_to_string e));
        (* a bad statement answers code 1 without killing the session *)
        (match Server.Client.query c "SELECT nope FROM a" with
        | Ok j ->
          Alcotest.(check bool) "bind error reported" true
            (Jsons.member "code" j = Some (Jsons.Int 1))
        | Error e -> Alcotest.failf "error query: %s" (Server.Client.err_to_string e));
        (match Server.Client.shutdown c with
        | Ok j ->
          Alcotest.(check bool) "shutdown acked" true
            (Jsons.member "ok" j = Some (Jsons.Bool true))
        | Error e -> Alcotest.failf "shutdown: %s" (Server.Client.err_to_string e));
        Server.Client.close c;
        Thread.join server;
        Alcotest.(check bool) "socket file removed" false
          (Sys.file_exists socket_path));
    Alcotest.test_case "file overwrite between requests invalidates the \
                        served cache" `Slow (fun () ->
        let path = Test_util.write_csv_rows (mk_rows 100) in
        let socket_path = Test_util.fresh_path ".sock" in
        let db = db_over path in
        let server =
          Thread.create
            (fun () -> Server.serve ~batch_window:0.0 ~socket_path db)
            ()
        in
        let c = connect_when_ready socket_path in
        let count () =
          match Server.Client.query c "SELECT COUNT(*) FROM t" with
          | Ok j -> (
            match int_rows j with
            | [ [ n ] ] -> n
            | _ -> Alcotest.failf "bad shape %s" (Jsons.to_string j))
          | Error e -> Alcotest.failf "query: %s" (Server.Client.err_to_string e)
        in
        Alcotest.(check int) "cold count" 100 (count ());
        Alcotest.(check int) "cached count" 100 (count ());
        overwrite_with_bump path (mk_rows 42);
        Alcotest.(check int) "post-overwrite count tracks the file" 42
          (count ());
        (match Server.Client.shutdown c with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "shutdown: %s" (Server.Client.err_to_string e));
        Server.Client.close c;
        Thread.join server);
    Alcotest.test_case "sequential sessions add no counter keys" `Slow
      (fun () ->
        let path = Test_util.write_csv_rows (mk_rows 100) in
        let socket_path = Test_util.fresh_path ".sock" in
        let db = db_over path in
        let server =
          Thread.create
            (fun () -> Server.serve ~batch_window:0.0 ~socket_path db)
            ()
        in
        let ended () = Io_stats.get "server.session_end.clean" in
        (* n sessions of one query each, returning once the server has
           counted their ends *)
        let sessions n =
          let e0 = ended () in
          for _ = 1 to n do
            let c = connect_when_ready socket_path in
            (match Server.Client.query c "SELECT COUNT(*) FROM t" with
             | Ok j when flag "ok" j -> ()
             | Ok j -> Alcotest.failf "query: %s" (Jsons.to_string j)
             | Error e -> Alcotest.failf "query: %s" (Server.Client.err_to_string e));
            Server.Client.close c
          done;
          let deadline = Unix.gettimeofday () +. 10. in
          while ended () < e0 + n do
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "session ends not counted within 10s";
            Thread.delay 0.01
          done
        in
        (* histogram buckets appear as latencies first land in them;
           the bucket list bounds them *)
        let keys () =
          List.filter_map
            (fun (k, _) ->
              match Raw_obs.Metrics.owner k with
              | Some m when Raw_obs.Metrics.kind m = Raw_obs.Metrics.Histogram ->
                None
              | _ -> Some k)
            (Io_stats.snapshot ())
        in
        (* a miss, then a hit: every key a cached query touches exists *)
        sessions 2;
        let before = keys () in
        sessions 50;
        Alcotest.(check (list string)) "snapshot keys" before (keys ());
        let c = connect_when_ready socket_path in
        ignore (Server.Client.shutdown c);
        Server.Client.close c;
        Thread.join server);
    Alcotest.test_case "result-cache hits skip the batch window, misses wait"
      `Slow (fun () ->
        let window = 0.5 in
        let path = Test_util.write_csv_rows (mk_rows 1000) in
        with_server ~batch_window:window (db_over path) (fun socket_path ctl ->
            let before = counters_of ctl in
            let sql = "SELECT COUNT(*) FROM t WHERE col0 < 500" in
            let c = connect_when_ready socket_path in
            Alcotest.(check bool) "priming query executed" false
              (flag "cached" (query_ok c sql));
            let t0 = Unix.gettimeofday () in
            let hit = query_ok c sql in
            let rtt = Unix.gettimeofday () -. t0 in
            Server.Client.close c;
            Alcotest.(check bool) "repeat cached" true (flag "cached" hit);
            Alcotest.(check (float 0.)) "hit queue_s" 0. (timing_of hit "queue_s");
            Alcotest.(check (float 0.)) "hit execute_s" 0.
              (timing_of hit "execute_s");
            if rtt > window /. 5. then
              Alcotest.failf "hit round trip %.3f s, window %.1f s" rtt window;
            (* two misses on one table still meet in one window *)
            let conns = List.map (fun _ -> connect_when_ready socket_path) pair in
            let responses = send_together conns pair in
            List.iter Server.Client.close conns;
            List.iter2 (check_answer ~path ~shared:true) pair responses;
            let waits = List.map (fun j -> timing_of j "queue_s") responses in
            Alcotest.(check bool) "the first miss waited the window" true
              (List.fold_left Float.max 0. waits >= window);
            Alcotest.(check bool) "both misses waited about the window" true
              (List.for_all (fun q -> q >= window -. 0.1) waits);
            let after = counters_of ctl in
            let moved k = counter after k -. counter before k in
            Alcotest.(check (float 0.)) "one hit counted" 1.
              (moved "cache.result.hits");
            Alcotest.(check (float 0.)) "three misses counted" 3.
              (moved "cache.result.misses")));
    Alcotest.test_case "misses over pooled columns skip the batch window"
      `Slow (fun () ->
        let window = 0.5 in
        let path = Test_util.write_csv_rows (mk_rows 1000) in
        with_server ~batch_window:window (db_over path) (fun socket_path ctl ->
            let c = connect_when_ready socket_path in
            (* the first touch reads col0 and col1 from the file *)
            ignore (query_ok c "SELECT SUM(col0) FROM t WHERE col1 = 2");
            Server.Client.close c;
            let before = counters_of ctl in
            let misses =
              [
                "SELECT SUM(col0) FROM t WHERE col1 = 3";
                "SELECT COUNT(*) FROM t WHERE col0 < 250";
              ]
            in
            let conns = List.map (fun _ -> connect_when_ready socket_path) misses in
            let responses = send_together conns misses in
            List.iter Server.Client.close conns;
            List.iter2 (check_answer ~path ~shared:false) misses responses;
            List.iter
              (fun j ->
                let q = timing_of j "queue_s" in
                if q >= 0.1 then
                  Alcotest.failf "a pooled miss queued %.3f s, window %.1f s" q
                    window)
              responses;
            let after = counters_of ctl in
            Alcotest.(check (float 0.)) "no batch" 0.
              (counter after "server.batches" -. counter before "server.batches");
            Alcotest.(check (float 0.)) "two misses counted" 2.
              (counter after "cache.result.misses"
              -. counter before "cache.result.misses")));
    Alcotest.test_case "a file grown under a parked miss is served fresh"
      `Slow (fun () ->
        let window = 1.0 in
        let path = Test_util.write_csv_rows (mk_rows 1000) in
        with_server ~batch_window:window (db_over path) (fun socket_path ctl ->
            let a = connect_when_ready socket_path
            and b = connect_when_ready socket_path in
            let a_sql = "SELECT SUM(col0) FROM t WHERE col1 = 2"
            and b_sql = "SELECT COUNT(*) FROM t" in
            ignore (query_ok b b_sql);
            Alcotest.(check bool) "b's statement is cached" true
              (flag "cached" (query_ok b b_sql));
            (* [sql] on [c] in the background, returning once its miss
               is parked in the queue: its lookup has counted *)
            let park c sql =
              let misses () = counter (counters_of ctl) "cache.result.misses" in
              let m0 = misses () in
              let answer = ref Jsons.Null in
              let th = Thread.create (fun () -> answer := query_ok c sql) () in
              let deadline = Unix.gettimeofday () +. 10. in
              while misses () < m0 +. 1. do
                if Unix.gettimeofday () > deadline then
                  Alcotest.fail "lookup not counted within 10s";
                Thread.delay 0.005
              done;
              fun () -> Thread.join th; !answer
            in
            let grow first =
              append_rows path (List.init 200 (fun i -> [ first + i; 2; 5; 7 ]))
            in
            let a_answer = park a a_sql in
            grow 1000;
            let b_answer = query_ok b b_sql in
            Alcotest.(check bool) "b not served from the cache" false
              (flag "cached" b_answer);
            Alcotest.(check (list (list int))) "b answers the grown file"
              [ [ fresh_answer path b_sql ] ] (int_rows b_answer);
            Alcotest.(check (list (list int))) "a answers the grown file"
              [ [ fresh_answer path a_sql ] ] (int_rows (a_answer ()));
            (* alone in its batch, a parked miss still sees a later
               append: it reads col3, not yet in memory, so it waits for
               the window *)
            let a_answer = park a "SELECT MAX(col0) FROM t WHERE col3 >= 0" in
            grow 1200;
            Alcotest.(check (list (list int))) "a answers the grown file again"
              [ [ 1399 ] ] (int_rows (a_answer ()));
            List.iter Server.Client.close [ a; b ]));
  ]

(* ------------------------------------------------------------------ *)
(* Online aggregation over the server path (PR 7)                      *)
(* ------------------------------------------------------------------ *)

let approx_suite =
  [
    Alcotest.test_case
      "approx responses carry bands, skip the result cache and never fold \
       into shared scans" `Slow (fun () ->
        let path = Test_util.write_csv_rows (mk_rows 8192) in
        let socket_path = Test_util.fresh_path ".sock" in
        let config =
          {
            Config.default with
            Config.approx = Some 0.1;
            approx_seed = 7;
            chunk_rows = 64;
          }
        in
        let db = Raw_db.create ~config () in
        Raw_db.register_csv db ~name:"t" ~path ~columns:(Test_util.int_cols 4) ();
        let server =
          (* a generous batch window so concurrent queries WOULD fold if
             approx didn't force them apart *)
          Thread.create
            (fun () -> Server.serve ~batch_window:0.05 ~socket_path db)
            ()
        in
        let sql = "SELECT COUNT(*), SUM(col2), AVG(col2) FROM t WHERE col0 < 4000" in
        let query c =
          match Server.Client.query c sql with
          | Ok j -> j
          | Error e -> Alcotest.failf "query: %s" (Server.Client.err_to_string e)
        in
        let flag name j =
          match Jsons.member name j with Some (Jsons.Bool b) -> b | _ -> false
        in
        let approx_of j =
          match Jsons.member "approx" j with
          | Some (Jsons.Obj _ as a) -> a
          | _ -> Alcotest.failf "no approx object in %s" (Jsons.to_string j)
        in
        let c = connect_when_ready socket_path in
        Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () ->
            let j1 = query c in
            let a1 = approx_of j1 in
            Alcotest.(check bool) "not cached" false (flag "cached" j1);
            Alcotest.(check bool) "not shared" false (flag "shared" j1);
            (match Jsons.member "fraction" a1 with
             | Some (Jsons.Float f) ->
               Alcotest.(check bool) "sampled a strict subset" true
                 (f > 0. && f < 1.)
             | _ -> Alcotest.fail "no fraction field");
            (match Jsons.member "aggs" a1 with
             | Some (Jsons.List aggs) ->
               Alcotest.(check int) "three bands" 3 (List.length aggs);
               List.iter
                 (fun agg ->
                   match
                     ( Jsons.member "name" agg,
                       Jsons.member "estimate" agg,
                       Jsons.member "bound" agg,
                       Jsons.member "relative" agg )
                   with
                   | Some (Jsons.Str _), Some (Jsons.Float _),
                     Some (Jsons.Float b), Some (Jsons.Float rel) ->
                     Alcotest.(check bool) "bound non-negative" true (b >= 0.);
                     Alcotest.(check bool) "band met the eps target" true
                       (rel <= 0.1)
                   | _ -> Alcotest.failf "bad band %s" (Jsons.to_string agg))
                 aggs
             | _ -> Alcotest.fail "no aggs field");
            (* an identical repeat must re-sample, not serve the cache *)
            let j2 = query c in
            Alcotest.(check bool) "repeat not cache-served" false
              (flag "cached" j2);
            ignore (approx_of j2);
            (* concurrent same-table queries inside one batch window stay
               individual runs *)
            let results = Array.make 2 Jsons.Null in
            let threads =
              List.init 2 (fun i ->
                  Thread.create
                    (fun () ->
                      let c2 = connect_when_ready socket_path in
                      Fun.protect
                        ~finally:(fun () -> Server.Client.close c2)
                        (fun () -> results.(i) <- query c2))
                    ())
            in
            List.iter Thread.join threads;
            Array.iter
              (fun j ->
                Alcotest.(check bool) "concurrent query not shared" false
                  (flag "shared" j);
                Alcotest.(check bool) "concurrent query not cached" false
                  (flag "cached" j);
                ignore (approx_of j))
              results;
            match Server.Client.shutdown c with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "shutdown: %s" (Server.Client.err_to_string e));
        Thread.join server);
  ]

(* ------------------------------------------------------------------ *)
(* Continuous telemetry (PR 9): timing, trace trees, metrics, windows   *)
(* ------------------------------------------------------------------ *)

(* Rebuild the parent-edge set of a request trace from the Chrome JSON's
   args.span_id/args.parent_id — the same tree Trace.edge_set computes
   server-side, but recovered from the wire format. *)
let edges_of_trace trace_json =
  match Jsons.member "traceEvents" trace_json with
  | Some (Jsons.List events) ->
    let info ev =
      let name =
        match Jsons.member "name" ev with
        | Some (Jsons.Str s) -> s
        | _ -> Alcotest.failf "event without name: %s" (Jsons.to_string ev)
      in
      let args =
        match Jsons.member "args" ev with Some a -> a | None -> Jsons.Obj []
      in
      let id =
        match Jsons.member "span_id" args with
        | Some (Jsons.Int n) -> n
        | _ -> Alcotest.failf "event without span_id: %s" (Jsons.to_string ev)
      in
      let parent =
        match Jsons.member "parent_id" args with
        | Some (Jsons.Int n) -> Some n
        | _ -> None
      in
      (id, name, parent)
    in
    let infos = List.map info events in
    let name_of id =
      match List.find_opt (fun (i, _, _) -> i = id) infos with
      | Some (_, n, _) -> Some n
      | None -> None
    in
    List.sort_uniq compare
      (List.map
         (fun (_, n, p) -> (Option.bind p name_of, n))
         infos)
  | _ -> Alcotest.failf "no traceEvents in %s" (Jsons.to_string trace_json)

let executed_edge_set =
  [
    (None, "session");
    (Some "batch", "execute");
    (Some "session", "batch");
    (Some "session", "queue-wait");
    (Some "session", "read");
    (Some "session", "write");
  ]

let with_telemetry_server ~parallelism f =
  let path = Test_util.write_csv_rows (mk_rows 500) in
  let socket_path = Test_util.fresh_path ".sock" in
  let config =
    {
      Config.default with
      Config.parallelism;
      telemetry_tick = 0.05;
      trace_retain = 8;
    }
  in
  let db = Raw_db.create ~config () in
  Raw_db.register_csv db ~name:"t" ~path ~columns:(Test_util.int_cols 4) ();
  let server =
    Thread.create
      (fun () -> Server.serve ~batch_window:0.002 ~socket_path db)
      ()
  in
  let c = connect_when_ready socket_path in
  Fun.protect
    ~finally:(fun () ->
      (match Server.Client.shutdown c with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "shutdown: %s" (Server.Client.err_to_string e));
      Server.Client.close c;
      Thread.join server)
    (fun () -> f c)

(* All retained traces for [sql], slowest first (the ring keeps every run
   of a repeated statement separately). *)
let trace_all_edges_for c sql =
  match Server.Client.trace c with
  | Error e -> Alcotest.failf "trace: %s" (Server.Client.err_to_string e)
  | Ok j -> (
    match Jsons.member "traces" j with
    | Some (Jsons.List traces) -> (
      match
        List.filter_map
          (fun e ->
            if Jsons.member "sql" e = Some (Jsons.Str sql) then
              match Jsons.member "trace" e with
              | Some tj -> Some (edges_of_trace tj)
              | None -> Alcotest.failf "no trace in %s" (Jsons.to_string e)
            else None)
          traces
      with
      | [] -> Alcotest.failf "sql not retained: %s" (Jsons.to_string j)
      | l -> l)
    | _ -> Alcotest.failf "no traces in %s" (Jsons.to_string j))

let trace_edges_for c sql =
  match trace_all_edges_for c sql with
  | [ e ] -> e
  | l -> Alcotest.failf "expected one retained trace, got %d" (List.length l)

let telemetry_suite =
  let edge = Alcotest.(list (pair (option string) string)) in
  [
    Alcotest.test_case "responses carry a consistent timing object" `Slow
      (fun () ->
        with_telemetry_server ~parallelism:1 (fun c ->
            let j = query_ok c "SELECT COUNT(*) FROM t WHERE col0 < 111" in
            match Jsons.member "timing" j with
            | Some tm ->
              let f name =
                match Jsons.member name tm with
                | Some (Jsons.Float x) -> x
                | Some (Jsons.Int n) -> float_of_int n
                | _ -> Alcotest.failf "timing lacks %s" (Jsons.to_string tm)
              in
              List.iter
                (fun n ->
                  Alcotest.(check bool) (n ^ " >= 0") true (f n >= 0.))
                [ "read_s"; "queue_s"; "execute_s"; "total_s" ];
              Alcotest.(check bool) "total covers queue + execute" true
                (f "total_s" >= f "queue_s" +. f "execute_s")
            | None -> Alcotest.failf "no timing in %s" (Jsons.to_string j)));
    Alcotest.test_case "request trace tree has the exact edge set" `Slow
      (fun () ->
        with_telemetry_server ~parallelism:1 (fun c ->
            let sql = "SELECT SUM(col2) FROM t WHERE col0 < 222" in
            ignore (query_ok c sql);
            Alcotest.check edge "session -> read/queue-wait/batch/write"
              executed_edge_set (trace_edges_for c sql);
            (* a repeat of the same statement is answered by the result
               cache: same tree, execute replaced by cached; both runs are
               retained, slowest first *)
            ignore (query_ok c sql);
            let cached_edge_set =
              List.map
                (function
                  | Some "batch", "execute" -> (Some "batch", "cached")
                  | e -> e)
                executed_edge_set
            in
            Alcotest.check
              Alcotest.(slist edge compare)
              "executed and cached variants both retained"
              [ executed_edge_set; cached_edge_set ]
              (trace_all_edges_for c sql)));
    Alcotest.test_case "trace tree parenting is parallelism-invariant" `Slow
      (fun () ->
        let edges_at p =
          with_telemetry_server ~parallelism:p (fun c ->
              let sql = "SELECT MAX(col1) FROM t WHERE col0 < 333" in
              ignore (query_ok c sql);
              trace_edges_for c sql)
        in
        let e1 = edges_at 1 and e2 = edges_at 2 in
        Alcotest.check edge "p=1 matches the spec" executed_edge_set e1;
        Alcotest.check edge "p=2 identical" e1 e2);
    Alcotest.test_case "metrics op returns Prometheus exposition" `Slow
      (fun () ->
        with_telemetry_server ~parallelism:1 (fun c ->
            ignore (query_ok c "SELECT COUNT(*) FROM t");
            match Server.Client.metrics c with
            | Error e ->
              Alcotest.failf "metrics: %s" (Server.Client.err_to_string e)
            | Ok j ->
              let expo =
                match Jsons.member "exposition" j with
                | Some (Jsons.Str s) -> s
                | _ -> Alcotest.failf "no exposition in %s" (Jsons.to_string j)
              in
              Alcotest.(check (option Alcotest.string))
                "content type"
                (Some "text/plain; version=0.0.4")
                (match Jsons.member "content_type" j with
                | Some (Jsons.Str s) -> Some s
                | _ -> None);
              let contains needle =
                let nh = String.length expo and nn = String.length needle in
                let rec go i =
                  i + nn <= nh
                  && (String.sub expo i nn = needle || go (i + 1))
                in
                nn = 0 || go 0
              in
              List.iter
                (fun needle ->
                  Alcotest.(check bool)
                    ("exposition contains " ^ needle)
                    true (contains needle))
                [
                  "# TYPE raw_server_requests_total counter";
                  "# TYPE raw_server_request_seconds histogram";
                  "raw_server_request_seconds_bucket";
                ]));
    Alcotest.test_case "stats carries cumulative and windowed percentiles"
      `Slow (fun () ->
        with_telemetry_server ~parallelism:1 (fun c ->
            for i = 1 to 6 do
              ignore
                (query_ok c
                   (Printf.sprintf "SELECT COUNT(*) FROM t WHERE col0 < %d"
                      (100 + i)))
            done;
            (* the ticker snapshots every 50 ms; poll until a window delta
               that includes the queries above materializes *)
            let deadline = Unix.gettimeofday () +. 5.0 in
            let rec poll () =
              let j =
                match Server.Client.stats c with
                | Ok j -> j
                | Error e ->
                  Alcotest.failf "stats: %s" (Server.Client.err_to_string e)
              in
              let win10 =
                Option.bind (Jsons.member "latency" j) (fun l ->
                    Option.bind (Jsons.member "windows" l) (fun w ->
                        Jsons.member "10s" w))
              in
              match Option.bind win10 (Jsons.member "p99") with
              | Some _ ->
                let cum =
                  match
                    Option.bind (Jsons.member "latency" j)
                      (Jsons.member "cumulative")
                  with
                  | Some cum -> cum
                  | None ->
                    Alcotest.failf "no cumulative latency in %s"
                      (Jsons.to_string j)
                in
                Alcotest.(check bool) "cumulative count > 0" true
                  (match Jsons.member "count" cum with
                  | Some (Jsons.Int n) -> n > 0
                  | Some (Jsons.Float f) -> f > 0.
                  | _ -> false);
                List.iter
                  (fun p ->
                    Alcotest.(check bool) ("cumulative " ^ p) true
                      (Jsons.member p cum <> None))
                  [ "p50"; "p95"; "p99" ];
                let requests =
                  match
                    Option.bind win10 (Jsons.member "requests")
                  with
                  | Some (Jsons.Float f) -> f
                  | Some (Jsons.Int n) -> float_of_int n
                  | _ -> 0.
                in
                Alcotest.(check bool) "window saw the queries" true
                  (requests > 0.)
              | None ->
                if Unix.gettimeofday () > deadline then
                  Alcotest.failf "no 10s-window p99 within 5s: %s"
                    (Jsons.to_string j)
                else begin
                  Thread.delay 0.05;
                  poll ()
                end
            in
            poll ()));
  ]

let suites =
  [
    ("server.shared_scan", shared_scan_suite @ shared_serve_suite);
    ("server.cache", cache_suite);
    ("server.socket", server_suite);
    ("server.approx", approx_suite);
    ("server.telemetry", telemetry_suite);
  ]
