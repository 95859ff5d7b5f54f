(* e24 — multi-client serving throughput.

   The one-shot CLI pays bind + cold-scan costs on every invocation; the
   server amortizes them across clients (statement cache, shared scans,
   result cache). This experiment measures queries/sec at 8/32/64
   concurrent sessions against a live [Server.serve] instance, in two
   phases per session count:

   - cold: every client sends a count-star query with a distinct
     [WHERE col0 < K] threshold, so nothing is in the result cache. The
     first contemporaneous queries on a table read col0 from the raw file
     and fold into one shared scan; after that col0 is pooled, so the
     remaining cold misses run alone, without waiting for the batch
     window;
   - warm: the same queries again, now answered from the result cache.

   Every response is verified against counts precomputed from a private
   one-shot session built BEFORE the server starts (binary search over the
   sorted predicate column) — a wrong answer fails the bench with exit 1,
   so the throughput numbers can never come from garbage results. *)

open Raw_core
module Jsons = Raw_obs.Jsons

let queries_per_client = 8

(* e24's 32-session cold-phase throughput, read by e26 as the reference
   for its chaos-off gate (serve_main runs e24 first, then e26, in the
   same process). *)
let s32_cold_qps : float option ref = ref None

(* All col0 values of [table], sorted — the oracle for count-star under a
   [col0 < k] predicate. *)
let sorted_col0 db table =
  let chunk = Raw_db.sql db (Printf.sprintf "SELECT col0 FROM %s" table) in
  let col = Raw_vector.Chunk.column chunk 0 in
  let arr =
    Array.init (Raw_vector.Column.length col) (fun i ->
        match Raw_vector.Column.get col i with
        | Raw_vector.Value.Int n -> n
        | v -> failwith ("e24: non-int col0 " ^ Raw_vector.Value.to_string v))
  in
  Array.sort compare arr;
  arr

(* Number of elements of sorted [arr] strictly below [k]. *)
let count_below arr k =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

let connect_when_ready socket_path =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    match Server.Client.connect socket_path with
    | c -> c
    | exception Unix.Unix_error _ ->
      if Unix.gettimeofday () > deadline then
        failwith "e24: server did not come up within 10s";
      Thread.delay 0.01;
      go ()
  in
  go ()

let e24 () =
  Bench_util.header "e24 — multi-client serving throughput"
    "queries/sec through rawq serve at 8/32/64 sessions, cold vs warm cache";
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rawq_e24_%d.sock" (Unix.getpid ()))
  in
  (* oracle from a private session, before any server exists *)
  let oracle_db = Bench_util.db_q30 () in
  Raw_db.register_csv oracle_db ~name:"t120" ~path:(Bench_util.q120_csv ())
    ~columns:(Bench_util.colnames_mixed Bench_util.q120_dtypes) ();
  let t30_sorted = sorted_col0 oracle_db "t30" in
  let t120_sorted = sorted_col0 oracle_db "t120" in
  let failures = ref 0 in
  let fail_mutex = Mutex.create () in
  let note_failure msg =
    Mutex.protect fail_mutex (fun () ->
        incr failures;
        if !failures <= 5 then Printf.eprintf "  e24 FAIL: %s\n%!" msg)
  in
  List.iter
    (fun sessions ->
      (* fresh engine per session count: cold really is cold *)
      let db = Bench_util.db_q30 () in
      Raw_db.register_csv db ~name:"t120" ~path:(Bench_util.q120_csv ())
        ~columns:(Bench_util.colnames_mixed Bench_util.q120_dtypes) ();
      let server =
        Thread.create
          (fun () -> Server.serve ~batch_window:0.003 ~socket_path db)
          ()
      in
      let probe = connect_when_ready socket_path in
      (match Server.Client.ping probe with
      | Ok _ -> ()
      | Error e -> failwith ("e24: ping failed: " ^ Server.Client.err_to_string e));
      Server.Client.close probe;
      let run_pass phase =
        let t0 = Unix.gettimeofday () in
        let threads =
          List.init sessions (fun ci ->
              Thread.create
                (fun () ->
                  let table, sorted =
                    if ci mod 2 = 0 then ("t30", t30_sorted)
                    else ("t120", t120_sorted)
                  in
                  let c = Server.Client.connect socket_path in
                  Fun.protect
                    ~finally:(fun () -> Server.Client.close c)
                    (fun () ->
                      for q = 0 to queries_per_client - 1 do
                        (* distinct thresholds across (client, query) so the
                           cold pass can't accidentally hit the result cache *)
                        let idx = (ci * queries_per_client) + q in
                        let k =
                          (idx + 1)
                          * (1_000_000_000
                            / ((sessions * queries_per_client) + 1))
                        in
                        let sql =
                          Printf.sprintf
                            "SELECT COUNT(*) FROM %s WHERE col0 < %d" table k
                        in
                        match Server.Client.query c sql with
                        | Error e -> note_failure (sql ^ ": transport: " ^ Server.Client.err_to_string e)
                        | Ok j -> (
                          let expect = count_below sorted k in
                          match
                            (Jsons.member "ok" j, Jsons.member "rows" j)
                          with
                          | ( Some (Jsons.Bool true),
                              Some (Jsons.List [ Jsons.List [ Jsons.Int got ] ])
                            ) ->
                            if got <> expect then
                              note_failure
                                (Printf.sprintf "%s: got %d want %d" sql got
                                   expect)
                          | _ ->
                            note_failure (sql ^ ": " ^ Jsons.to_string j))
                      done))
                ())
        in
        List.iter Thread.join threads;
        let wall = Unix.gettimeofday () -. t0 in
        let nq = sessions * queries_per_client in
        let qps = float_of_int nq /. wall in
        Printf.printf "  sessions=%-3d %-4s  %4d queries in %7.3fs -> %8.1f q/s\n%!"
          sessions phase nq wall qps;
        Bench_util.record_metric
          ~name:(Printf.sprintf "serve.s%d.%s.qps" sessions phase)
          qps;
        if sessions = 32 && phase = "cold" then s32_cold_qps := Some qps;
        Bench_util.record_raw_sample
          ~label:(Printf.sprintf "serve sessions=%d %s" sessions phase)
          ~wall_seconds:wall ~result_rows:nq ()
      in
      run_pass "cold";
      run_pass "warm";
      let c = connect_when_ready socket_path in
      (match Server.Client.shutdown c with
      | Ok _ -> ()
      | Error e ->
        Printf.eprintf "  e24: shutdown rpc failed: %s\n%!"
          (Server.Client.err_to_string e));
      Server.Client.close c;
      Thread.join server)
    [ 8; 32; 64 ];
  if !failures > 0 then begin
    Printf.eprintf "e24: %d wrong or failed response(s)\n%!" !failures;
    exit 1
  end;
  Printf.printf "  all responses verified against one-shot oracle\n%!"
