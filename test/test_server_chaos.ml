(* The chaos-injection harness (PR 8): a seeded socket-level fuzzer plus
   targeted protocol-armor probes against a live server. Every hostile
   byte sequence here is drawn either from Net_fault's fixed corpora or
   from its seeded streams, so a red run replays bit-for-bit from
   RAW_NET_FAULT_SEED. The assertions are always the same three: good
   clients get oracle-correct answers *during* chaos, the server is still
   answering *after* chaos, and post-chaos answers are bit-identical to a
   fresh server over the same file. *)

open Raw_vector
open Raw_core
module Jsons = Raw_obs.Jsons
module Io_stats = Raw_storage.Io_stats
module Net_fault = Raw_storage.Net_fault

(* evil clients provoke EPIPE on purpose; it must not kill the test
   binary (the server and client armor ignore it for their processes,
   this covers the raw connections below) *)
let () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

let mk_rows n =
  List.init n (fun i -> [ i; i mod 7; i * 37 mod 100; i / 10 ])

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

let start_server ?(config = Config.default) ?(batch_window = 0.002) ~rows () =
  let path = Test_util.write_csv_rows (mk_rows rows) in
  let socket_path = Test_util.fresh_path ".sock" in
  let db = Raw_db.create ~config () in
  Raw_db.register_csv db ~name:"t" ~path ~columns:(Test_util.int_cols 4) ();
  let thread =
    Thread.create (fun () -> Server.serve ~batch_window ~socket_path db) ()
  in
  (socket_path, path, thread)

let stop_server socket_path thread =
  (* a just-closed client's session slot is released asynchronously, so
     connecting right away can still be shed at the door (a code-5 line,
     or EPIPE when the server closes first) — retry until the shutdown
     rpc is actually accepted *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let c = connect_when_ready socket_path in
    let r = Server.Client.shutdown c in
    Server.Client.close c;
    match r with
    | Ok j when Jsons.member "ok" j = Some (Jsons.Bool true) -> ()
    | Ok _ | Error _ ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "shutdown not accepted within 10s"
      else begin
        Thread.delay 0.02;
        go ()
      end
  in
  go ();
  Thread.join thread;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket_path)

module Raw_conn = Chaos_client.Raw_conn

let expect_response ?(timeout = 10.) rc what =
  match Raw_conn.read_line ~timeout rc with
  | `Line l -> (
    match Jsons.parse l with
    | Ok j -> j
    | Error e -> Alcotest.failf "%s: unparseable response %S (%s)" what l e)
  | `Eof -> Alcotest.failf "%s: connection closed instead of a response" what
  | `Timeout -> Alcotest.failf "%s: no response within %gs" what timeout

let check_code what j want =
  Alcotest.(check bool)
    (what ^ ": ok=false") true
    (Jsons.member "ok" j = Some (Jsons.Bool false));
  match Jsons.member "code" j with
  | Some (Jsons.Int c) -> Alcotest.(check int) (what ^ ": code") want c
  | _ -> Alcotest.failf "%s: no code in %s" what (Jsons.to_string j)

let count_response what j want =
  Alcotest.(check bool)
    (what ^ ": ok") true
    (Jsons.member "ok" j = Some (Jsons.Bool true));
  match Jsons.member "rows" j with
  | Some (Jsons.List [ Jsons.List [ Jsons.Int n ] ]) ->
    Alcotest.(check int) (what ^ ": count") want n
  | _ -> Alcotest.failf "%s: bad rows in %s" what (Jsons.to_string j)

(* a request line of exactly [target] bytes: the padding lives inside the
   SQL string, where the lexer skips it *)
let padded_request ~target sql =
  let base = Printf.sprintf "{\"sql\": \"%s\"}" sql in
  let pad = target - String.length base in
  if pad < 0 then Alcotest.failf "target %d too small for %s" target sql;
  Printf.sprintf "{\"sql\": \"%s%s\"}" sql (String.make pad ' ')

(* ------------------------------------------------------------------ *)
(* Protocol edges                                                      *)
(* ------------------------------------------------------------------ *)

let protocol_suite =
  [
    Alcotest.test_case
      "edge lines: empty, CRLF, non-object JSON, unknown op, duplicate ids"
      `Slow (fun () ->
        let config =
          {
            Config.default with
            Config.max_request_bytes = 4096;
            request_timeout = Some 10.;
            idle_timeout = Some 60.;
          }
        in
        let socket_path, _, server = start_server ~config ~rows:100 () in
        let rc = Raw_conn.connect socket_path in
        Fun.protect
          ~finally:(fun () -> Raw_conn.close rc)
          (fun () ->
            (* blank lines are ignored, not errors: the next real request
               on the same session answers *)
            Raw_conn.send rc "\n";
            Raw_conn.send rc "\r\n";
            Raw_conn.send rc "{\"op\": \"ping\"}\r\n";
            let j = expect_response rc "ping after blanks" in
            Alcotest.(check bool)
              "pong" true
              (Jsons.member "ok" j = Some (Jsons.Bool true));
            (* valid JSON the dispatcher must refuse: every wrong-shape
               line draws a code-2 answer and the session survives *)
            List.iter
              (fun line ->
                Raw_conn.send rc (line ^ "\n");
                let j = expect_response rc line in
                check_code line j 2)
              [
                "42";
                "[\"not\", \"an\", \"object\"]";
                "null";
                "{\"op\": \"unknown\"}";
                "{\"op\": 7}";
                "{\"sql\": 42}";
                "{}";
              ];
            (* duplicate "id" keys: the parser keeps both pairs; the
               request still answers (member takes the first) *)
            Raw_conn.send rc "{\"id\": 1, \"id\": 2, \"op\": \"ping\"}\n";
            let j = expect_response rc "duplicate ids" in
            Alcotest.(check bool)
              "duplicate ids answered" true
              (Jsons.member "ok" j = Some (Jsons.Bool true));
            (* raw garbage draws a parse error, not a disconnect *)
            Raw_conn.send rc "}{\n";
            check_code "garbage" (expect_response rc "garbage") 2;
            (* and the session is still fully usable *)
            Raw_conn.send rc "{\"sql\": \"SELECT COUNT(*) FROM t\"}\n";
            count_response "after the gauntlet" (expect_response rc "count") 100);
        stop_server socket_path server);
    Alcotest.test_case
      "max_request_bytes boundary: exact accepted, +1 typed too_large" `Slow
      (fun () ->
        let limit = 512 in
        let config =
          {
            Config.default with
            Config.max_request_bytes = limit;
            request_timeout = Some 10.;
            idle_timeout = Some 60.;
          }
        in
        let socket_path, _, server = start_server ~config ~rows:100 () in
        let rc = Raw_conn.connect socket_path in
        Fun.protect
          ~finally:(fun () -> Raw_conn.close rc)
          (fun () ->
            let sql = "SELECT COUNT(*) FROM t" in
            (* exactly at the bound: accepted and answered *)
            Raw_conn.send rc (padded_request ~target:limit sql ^ "\n");
            count_response "boundary line" (expect_response rc "boundary") 100;
            (* one byte past: a typed too_large error — not a disconnect,
               not unbounded buffering *)
            Raw_conn.send rc (padded_request ~target:(limit + 1) sql ^ "\n");
            let j = expect_response rc "limit+1" in
            check_code "limit+1" j 2;
            Alcotest.(check bool)
              "kind=too_large" true
              (Jsons.member "kind" j = Some (Jsons.Str "too_large"));
            (* a grossly oversized line likewise, with memory bounded by
               the drain loop *)
            Raw_conn.send rc (String.make (8 * limit) 'x' ^ "\n");
            let j = expect_response rc "8x oversized" in
            Alcotest.(check bool)
              "kind=too_large again" true
              (Jsons.member "kind" j = Some (Jsons.Str "too_large"));
            (* the session stays usable after every rejection *)
            Raw_conn.send rc (Printf.sprintf "{\"sql\": \"%s\"}\n" sql);
            count_response "after too_large" (expect_response rc "after") 100;
            Alcotest.(check bool)
              "server.too_large counted" true
              (Io_stats.get "server.too_large" >= 2));
        stop_server socket_path server);
  ]

(* ------------------------------------------------------------------ *)
(* Slow loris and idle reaping                                         *)
(* ------------------------------------------------------------------ *)

let loris_suite =
  [
    Alcotest.test_case
      "a one-byte-at-a-time client is reaped while 8 sessions work" `Slow
      (fun () ->
        let config =
          {
            Config.default with
            Config.request_timeout = Some 1.0;
            idle_timeout = Some 20.;
          }
        in
        let socket_path, path, server = start_server ~config ~rows:1000 () in
        let oracle = Raw_db.create () in
        Raw_db.register_csv oracle ~name:"t" ~path
          ~columns:(Test_util.int_cols 4) ();
        let expect k =
          match
            Raw_db.scalar oracle
              (Printf.sprintf "SELECT COUNT(*) FROM t WHERE col0 < %d" k)
          with
          | Value.Int n -> n
          | v -> Alcotest.failf "non-int count %s" (Value.to_string v)
        in
        let before = Io_stats.get "server.session_end.timeout_request" in
        (* the loris: drip a valid-looking request one byte at a time,
           never reaching the newline *)
        let reaped = ref false in
        let loris =
          Thread.create
            (fun () ->
              let rc = Raw_conn.connect socket_path in
              let payload = "{\"sql\": \"SELECT COUNT(*) FROM t\"}" in
              (try
                 for i = 0 to String.length payload - 1 do
                   Raw_conn.send rc (String.make 1 payload.[i]);
                   (* confirm the close instead of writing into a dead
                      buffer: a reaped fd reads EOF *)
                   (match Raw_conn.read_line ~timeout:0.3 rc with
                   | `Eof -> raise Exit
                   | `Timeout | `Line _ -> ());
                   ignore i
                 done
               with
              | Exit -> reaped := true
              | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
                reaped := true);
              Raw_conn.close rc)
            ()
        in
        (* meanwhile 8 well-behaved sessions make progress *)
        let failures = ref [] in
        let fail_mutex = Mutex.create () in
        let goods =
          List.init 8 (fun si ->
              Thread.create
                (fun () ->
                  let c = connect_when_ready socket_path in
                  Fun.protect
                    ~finally:(fun () -> Server.Client.close c)
                    (fun () ->
                      for q = 0 to 3 do
                        let k = ((si * 4) + q + 1) * 13 in
                        let sql =
                          Printf.sprintf
                            "SELECT COUNT(*) FROM t WHERE col0 < %d" k
                        in
                        match Server.Client.query c sql with
                        | Ok j -> (
                          match Jsons.member "rows" j with
                          | Some (Jsons.List [ Jsons.List [ Jsons.Int n ] ])
                            when n = expect k ->
                            ()
                          | _ ->
                            Mutex.protect fail_mutex (fun () ->
                                failures :=
                                  (sql ^ " -> " ^ Jsons.to_string j)
                                  :: !failures))
                        | Error e ->
                          Mutex.protect fail_mutex (fun () ->
                              failures :=
                                (sql ^ ": " ^ Server.Client.err_to_string e)
                                :: !failures)
                      done))
                ())
        in
        List.iter Thread.join goods;
        Thread.join loris;
        (match !failures with
        | [] -> ()
        | f :: _ ->
          Alcotest.failf "%d good-client failure(s) during loris, e.g. %s"
            (List.length !failures) f);
        Alcotest.(check bool) "loris connection was closed" true !reaped;
        Alcotest.(check bool)
          "reap counted under session_end.timeout_request" true
          (Io_stats.get "server.session_end.timeout_request" > before);
        stop_server socket_path server);
    Alcotest.test_case "an idle session is reaped by idle_timeout" `Slow
      (fun () ->
        let config =
          {
            Config.default with
            Config.request_timeout = Some 10.;
            idle_timeout = Some 0.5;
          }
        in
        let socket_path, _, server = start_server ~config ~rows:50 () in
        let before = Io_stats.get "server.session_end.timeout_idle" in
        let rc = Raw_conn.connect socket_path in
        (* send nothing at all; the server must hang up on us *)
        (match Raw_conn.read_line ~timeout:8. rc with
        | `Eof -> ()
        | `Timeout -> Alcotest.fail "idle session was not reaped within 8s"
        | `Line l -> Alcotest.failf "unexpected line %S" l);
        Raw_conn.close rc;
        (* the counter is bumped by the session thread as it exits; give
           the scheduler a beat *)
        let deadline = Unix.gettimeofday () +. 5. in
        while
          Io_stats.get "server.session_end.timeout_idle" <= before
          && Unix.gettimeofday () < deadline
        do
          Thread.delay 0.02
        done;
        Alcotest.(check bool)
          "reap counted under session_end.timeout_idle" true
          (Io_stats.get "server.session_end.timeout_idle" > before);
        stop_server socket_path server);
  ]

(* ------------------------------------------------------------------ *)
(* Shedding at the door                                                *)
(* ------------------------------------------------------------------ *)

let shed_suite =
  [
    Alcotest.test_case
      "past max_sessions: one code-5 line with retry_after, then the door"
      `Slow (fun () ->
        let config =
          { Config.default with Config.max_sessions = Some 2 }
        in
        let socket_path, _, server = start_server ~config ~rows:50 () in
        let c1 = connect_when_ready socket_path in
        let c2 = Server.Client.connect socket_path in
        (match (Server.Client.ping c1, Server.Client.ping c2) with
        | Ok _, Ok _ -> ()
        | _ -> Alcotest.fail "the two in-cap sessions must answer");
        (* the third connection is shed at the door *)
        let rc = Raw_conn.connect socket_path in
        let j = expect_response rc "shed line" in
        check_code "shed" j 5;
        Alcotest.(check bool)
          "kind=overloaded" true
          (Jsons.member "kind" j = Some (Jsons.Str "overloaded"));
        (match Jsons.member "retry_after" j with
        | Some (Jsons.Float s) ->
          Alcotest.(check bool) "positive retry hint" true (s > 0.)
        | _ -> Alcotest.failf "no retry_after in %s" (Jsons.to_string j));
        (match Raw_conn.read_line ~timeout:5. rc with
        | `Eof -> ()
        | _ -> Alcotest.fail "shed connection must be closed after the line");
        Raw_conn.close rc;
        Alcotest.(check bool)
          "shed counted" true (Io_stats.get "server.shed_sessions" >= 1);
        (* free a slot; with_retry rides the retry_after hint into it *)
        Server.Client.close c2;
        let r =
          Server.Client.with_retry
            ~policy:
              {
                Server.Client.default_retry with
                Server.Client.attempts = 10;
                base_delay = 0.02;
              }
            ~socket:socket_path
            (fun c -> Server.Client.query c "SELECT COUNT(*) FROM t")
        in
        (match r with
        | Ok j -> count_response "post-shed retry" j 50
        | Error e ->
          Alcotest.failf "retry did not recover: %s"
            (Server.Client.err_to_string e));
        Server.Client.close c1;
        stop_server socket_path server);
    Alcotest.test_case
      "stats shows the newest armor event after 65,536 older ones" `Slow
      (fun () ->
        let limit = 64 in
        let config =
          {
            Config.default with
            Config.max_request_bytes = limit;
            max_sessions = Some 2;
          }
        in
        let socket_path, _, server = start_server ~config ~rows:10 () in
        let ctl = connect_when_ready socket_path in
        (match Server.Client.ping ctl with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "the control session must answer");
        (* 65,600 pipelined oversize lines on one session, 100 in flight
           at a time, each answered with a typed too_large *)
        let rc = Raw_conn.connect socket_path in
        let per_batch = 100 in
        let batch =
          String.concat ""
            (List.init per_batch (fun _ -> String.make (limit + 1) 'x' ^ "\n"))
        in
        for _ = 1 to 656 do
          Raw_conn.send rc batch;
          for _ = 1 to per_batch do
            match Raw_conn.read_line rc with
            | `Line _ -> ()
            | `Eof | `Timeout -> Alcotest.fail "oversize line went unanswered"
          done
        done;
        (* then one distinct event: a third session shed at the door *)
        let shed = Raw_conn.connect socket_path in
        check_code "shed" (expect_response shed "shed line") 5;
        Raw_conn.close shed;
        (match Server.Client.stats ctl with
        | Ok j -> (
          match Jsons.member "armor" j with
          | Some (Jsons.List entries) ->
            Alcotest.(check int) "the latest 32" 32 (List.length entries);
            let last = List.nth entries 31 in
            Alcotest.(check (pair (option string) (option string)))
              "the newest event is last"
              (Some "server.shed", Some "session_cap")
              ( Option.bind (Jsons.member "site" last) Jsons.to_string_opt,
                Option.bind (Jsons.member "choice" last) Jsons.to_string_opt )
          | _ -> Alcotest.failf "no armor list in %s" (Jsons.to_string j))
        | Error e -> Alcotest.failf "stats: %s" (Server.Client.err_to_string e));
        Raw_conn.close rc;
        Server.Client.close ctl;
        stop_server socket_path server);
  ]

(* ------------------------------------------------------------------ *)
(* The seeded fuzzer                                                   *)
(* ------------------------------------------------------------------ *)

(* the post-chaos differential set: every operator shape the server
   replays, compared response-for-response against a fresh server *)
let differential_queries =
  [
    "SELECT col0, col2 FROM t WHERE col0 < 250";
    "SELECT COUNT(*) FROM t";
    "SELECT SUM(col0), MIN(col2) FROM t WHERE col1 = 3";
    "SELECT col1, COUNT(*) FROM t GROUP BY col1 ORDER BY col1 ASC";
    "SELECT col0 FROM t ORDER BY col0 DESC LIMIT 5";
    "SELECT col0 + col2 FROM t WHERE NOT (col1 = 0) LIMIT 10";
  ]

(* the comparable part of a response: what the query answered, shorn of
   provenance (seconds vary, cached/shared legitimately differ between a
   warmed chaos server and a cold fresh one) *)
let answer_fingerprint j =
  let part name =
    (name, Option.value (Jsons.member name j) ~default:Jsons.Null)
  in
  Jsons.to_string
    (Jsons.Obj [ part "ok"; part "columns"; part "types"; part "rows"; part "row_count" ])

let chaos_request =
  "{\"id\": 9, \"sql\": \"SELECT COUNT(*) FROM t WHERE col0 < 500\"}\n"

let fuzz_suite =
  [
    Alcotest.test_case
      "seeded chaos: correct answers during, bit-identical answers after"
      `Slow (fun () ->
        let fault =
          match Net_fault.from_env () with
          | Some f -> f
          | None ->
            Net_fault.make ~seed:1337 ~chaos_per_request:0.8
              ~max_stall_seconds:0.2 ~oversize_bytes:4096 ()
        in
        let config =
          {
            Config.default with
            Config.max_request_bytes = min 4096 fault.Net_fault.oversize_bytes;
            request_timeout = Some 2.0;
            idle_timeout = Some 10.;
          }
        in
        let socket_path, path, server = start_server ~config ~rows:2000 () in
        let oracle = Raw_db.create () in
        Raw_db.register_csv oracle ~name:"t" ~path
          ~columns:(Test_util.int_cols 4) ();
        let expect k =
          match
            Raw_db.scalar oracle
              (Printf.sprintf "SELECT COUNT(*) FROM t WHERE col0 < %d" k)
          with
          | Value.Int n -> n
          | v -> Alcotest.failf "non-int count %s" (Value.to_string v)
        in
        (* 6 evil clients, each replaying its own seeded substream *)
        let evils =
          List.init 6 (fun client ->
              Thread.create
                (fun () ->
                  let s = Net_fault.stream fault ~client in
                  for _round = 1 to 12 do
                    Chaos_client.run_action ~request:chaos_request socket_path
                      (Net_fault.plan fault s)
                  done)
                ())
        in
        (* 4 good clients verifying oracle counts through the storm *)
        let failures = ref [] in
        let fail_mutex = Mutex.create () in
        let goods =
          List.init 4 (fun si ->
              Thread.create
                (fun () ->
                  let c = connect_when_ready socket_path in
                  Fun.protect
                    ~finally:(fun () -> Server.Client.close c)
                    (fun () ->
                      for q = 0 to 9 do
                        let k = ((si * 10) + q + 1) * 31 in
                        let sql =
                          Printf.sprintf
                            "SELECT COUNT(*) FROM t WHERE col0 < %d" k
                        in
                        match Server.Client.query c sql with
                        | Ok j -> (
                          match Jsons.member "rows" j with
                          | Some (Jsons.List [ Jsons.List [ Jsons.Int n ] ])
                            when n = expect k ->
                            ()
                          | _ ->
                            Mutex.protect fail_mutex (fun () ->
                                failures :=
                                  (sql ^ " -> " ^ Jsons.to_string j)
                                  :: !failures))
                        | Error e ->
                          Mutex.protect fail_mutex (fun () ->
                              failures :=
                                (sql ^ ": " ^ Server.Client.err_to_string e)
                                :: !failures)
                      done))
                ())
        in
        List.iter Thread.join evils;
        List.iter Thread.join goods;
        (match !failures with
        | [] -> ()
        | f :: _ ->
          Alcotest.failf "%d good-client failure(s) during chaos, e.g. %s"
            (List.length !failures) f);
        (* the server survived; its post-chaos answers must be
           bit-identical to a brand-new server over the same file *)
        let fresh_socket, _, fresh_server =
          let db = Raw_db.create () in
          Raw_db.register_csv db ~name:"t" ~path
            ~columns:(Test_util.int_cols 4) ();
          let sp = Test_util.fresh_path ".sock" in
          ( sp,
            path,
            Thread.create
              (fun () -> Server.serve ~batch_window:0.002 ~socket_path:sp db)
              () )
        in
        let chaos_c = connect_when_ready socket_path in
        let fresh_c = connect_when_ready fresh_socket in
        List.iter
          (fun sql ->
            match
              (Server.Client.query chaos_c sql, Server.Client.query fresh_c sql)
            with
            | Ok a, Ok b ->
              Alcotest.(check string)
                ("post-chaos differential: " ^ sql)
                (answer_fingerprint b) (answer_fingerprint a)
            | Error e, _ | _, Error e ->
              Alcotest.failf "differential query failed: %s: %s" sql
                (Server.Client.err_to_string e))
          differential_queries;
        (match Server.Client.shutdown fresh_c with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "shutdown: %s" (Server.Client.err_to_string e));
        Server.Client.close fresh_c;
        Thread.join fresh_server;
        Server.Client.close chaos_c;
        stop_server socket_path server);
  ]

(* ------------------------------------------------------------------ *)
(* Determinism of the fault plans themselves                           *)
(* ------------------------------------------------------------------ *)

let determinism_suite =
  [
    Alcotest.test_case "same seed, same fault sequence" `Quick (fun () ->
        let fault = Net_fault.make ~seed:0xbeef () in
        let draw () =
          let s = Net_fault.stream fault ~client:3 in
          List.init 200 (fun _ -> Net_fault.plan fault s)
        in
        Alcotest.(check bool) "replay is identical" true (draw () = draw ());
        (* a different client label is an independent stream *)
        let other =
          let s = Net_fault.stream fault ~client:4 in
          List.init 200 (fun _ -> Net_fault.plan fault s)
        in
        Alcotest.(check bool) "labels decorrelate" false (draw () = other));
    Alcotest.test_case "jitter stays within [0.5, 1.5)" `Quick (fun () ->
        let s = Net_fault.Stream.make ~seed:7 in
        for _ = 1 to 1000 do
          let j = Net_fault.Stream.jitter s in
          Alcotest.(check bool) "in range" true (j >= 0.5 && j < 1.5)
        done);
    Alcotest.test_case "from_env mirrors RAW_NET_FAULT_*" `Quick (fun () ->
        Unix.putenv "RAW_NET_FAULT_SEED" "99";
        Unix.putenv "RAW_NET_FAULT_CHAOS" "0.25";
        (match Net_fault.from_env () with
        | Some f ->
          Alcotest.(check int) "seed" 99 f.Net_fault.seed;
          Alcotest.(check (float 1e-9))
            "chaos" 0.25 f.Net_fault.chaos_per_request
        | None -> Alcotest.fail "seed set but from_env = None");
        Unix.putenv "RAW_NET_FAULT_SEED" "";
        Unix.putenv "RAW_NET_FAULT_CHAOS" "";
        Alcotest.(check bool)
          "unset seed disables" true (Net_fault.from_env () = None));
  ]

let suites =
  [
    ("server.chaos.protocol", protocol_suite);
    ("server.chaos.loris", loris_suite);
    ("server.chaos.shed", shed_suite);
    ("server.chaos.fuzz", fuzz_suite);
    ("server.chaos.determinism", determinism_suite);
  ]
