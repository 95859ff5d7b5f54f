(* End-to-end smoke of the real rawq binary, whose path is the only
   argument. Six phases, one scenario each; every JSON surface is parsed
   with [Raw_obs.Jsons.parse] and every query answer is checked:

   - oneshot: --analyze --metrics --trace-out, --profile --profile-out
     plus [rawq profile], --approx, and --history plus [rawq report];
   - serve: two tables, two rounds of 16 concurrent [rawq client]s (cold:
     shared scans; warm: the result cache), then 16 concurrent misses over
     a pooled column (no batch window, nothing shared), one history record
     per executed query;
   - chaos: tight armor knobs, 8 retrying [rawq client]s racing 8 chaos
     clients whose actions are drawn from seeded [Net_fault] plans;
   - telemetry: the Prometheus exposition, retained request traces, the
     10s-window p99, the --timing footer and one [rawq top] frame;
   - profile-serve: folded stacks from [rawq serve --profile];
   - approx-serve: the approx response schema, never cached or shared.

   Every server phase ends with exit 0, "shut down cleanly" and the socket
   removed. The first failed check names its phase and exits 1. *)

module Jsons = Raw_obs.Jsons
module Net_fault = Raw_storage.Net_fault
module Client = Raw_core.Server.Client

exception Failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

let check ok fmt =
  Printf.ksprintf (fun m -> if not ok then raise (Failed m)) fmt

let rawq =
  let p = Sys.argv.(1) in
  if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let dir = Filename.temp_dir "rawq_smoke" ""
let file name = Filename.concat dir name

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let lines s = List.filter (( <> ) "") (String.split_on_char '\n' s)
let read_file p = In_channel.with_open_bin p In_channel.input_all

let write_rows name n row =
  let p = file name in
  Out_channel.with_open_bin p (fun oc ->
      for i = 0 to n - 1 do
        output_string oc (row i);
        output_char oc '\n'
      done);
  p

let rawq_ok args =
  let ic = Unix.open_process_args_in rawq (Array.of_list (rawq :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> fail "rawq %s failed:\n%s" (String.concat " " args) out

(* the result rows of a one-shot or client answer: the lines between the
   header and the first "--" footer *)
let rows_of out =
  let rec take = function
    | l :: rest when not (String.starts_with ~prefix:"--" l) -> l :: take rest
    | _ -> []
  in
  match take (lines out) with _header :: rows -> rows | [] -> []

let rec path j = function
  | [] -> Some j
  | k :: rest -> Option.bind (Jsons.member k j) (fun v -> path v rest)

let num j keys = Option.bind (path j keys) Jsons.to_float_opt
let num_is p j keys = Option.fold ~none:false ~some:p (num j keys)
let str j k = Option.bind (Jsons.member k j) Jsons.to_string_opt

let list j keys =
  Option.value (Option.bind (path j keys) Jsons.to_list_opt) ~default:[]

(* a Prometheus sample line: "name[{labels}] value" *)
let sample l =
  let i = Option.value (String.rindex_opt l ' ') ~default:0 in
  let value = String.sub l (i + 1) (String.length l - i - 1) in
  match float_of_string_opt value with
  | Some v when i > 0 -> (String.sub l 0 i, v)
  | _ -> fail "bad sample line %S" l

(* folded flamegraph lines "frame(;frame)* count": the frame lists *)
let folded_stacks what text =
  let stack l =
    let i = Option.value (String.rindex_opt l ' ') ~default:0 in
    let frames = String.split_on_char ';' (String.sub l 0 i) in
    let count = String.sub l (i + 1) (String.length l - i - 1) in
    check
      (List.for_all (fun f -> f <> "" && not (String.contains f ' ')) frames
      && count <> ""
      && String.for_all (function '0' .. '9' -> true | _ -> false) count
      && int_of_string count > 0)
      "%s: malformed folded line %S" what l;
    frames
  in
  match List.map stack (lines text) with
  | [] -> fail "%s: no folded lines" what
  | stacks -> stacks

let has_root stacks root = List.exists (fun st -> List.hd st = root) stacks

(* [f i] for every i < n, on n threads at once; all failures are reported *)
let concurrently n f =
  let errors = ref [] and m = Mutex.create () in
  let note msg = Mutex.protect m (fun () -> errors := msg :: !errors) in
  List.init n (fun i ->
      Thread.create
        (fun () ->
          try f i with
          | Failed msg -> note msg
          | e -> note (Printexc.to_string e))
        ())
  |> List.iter Thread.join;
  check (!errors = []) "%d of %d clients failed:\n%s" (List.length !errors) n
    (String.concat "\n" (List.rev !errors))

let count_query table k =
  Printf.sprintf "SELECT COUNT(*) FROM %s WHERE col0 < %d" table k

let expect_count ?(flags = []) sock sql want =
  let out = rawq_ok (("client" :: "--socket" :: sock :: flags) @ [ sql ]) in
  check (rows_of out = [ string_of_int want ]) "%s: got %S, want %d" sql out
    want

type server = { pid : int; sock : string; log : string }

(* killed if a phase fails, so a red run never leaves a server behind *)
let live = ref []
let exited pid = fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0

let start_server name args =
  let sock = file (name ^ ".sock") and log = file (name ^ ".log") in
  let fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let argv = Array.of_list ((rawq :: "serve" :: args) @ [ "--socket"; sock ]) in
  let pid = Unix.create_process rawq argv Unix.stdin fd fd in
  Unix.close fd;
  live := pid :: !live;
  let rec await n =
    if not (contains (read_file log) "rawq: serving") then begin
      check (n > 0 && not (exited pid)) "server did not come up:\n%s"
        (read_file log);
      Thread.delay 0.1;
      await (n - 1)
    end
  in
  await 100;
  { pid; sock; log }

let stop_server s =
  ignore (rawq_ok [ "client"; "--socket"; s.sock; "--shutdown" ]);
  let _, status = Unix.waitpid [] s.pid in
  live := List.filter (( <> ) s.pid) !live;
  let log = read_file s.log in
  check (status = Unix.WEXITED 0) "server did not exit 0:\n%s" log;
  check (contains log "shut down cleanly") "no clean shutdown:\n%s" log;
  check (not (Sys.file_exists s.sock)) "socket %s left behind" s.sock

let with_server name args f =
  let s = start_server name args in
  f s;
  stop_server s

let rpc what s op =
  let c = Client.connect ~connect_timeout:10. ~request_timeout:60. s.sock in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      match op c with
      | Ok j when Jsons.member "ok" j = Some (Jsons.Bool true) -> j
      | Ok j -> fail "%s: %s" what (Jsons.to_string j)
      | Error e -> fail "%s: %s" what (Client.err_to_string e))

let counter stats name =
  Option.value (num stats [ "counters"; name ]) ~default:0.

(* rand.csv: 20k rows of (int below 1e9, float below 1e9), for the
   profiled and approximate queries *)
let rand_rows =
  lazy
    (let st = Random.State.make [| 20140807 |] in
     let rows =
       Array.init 20_000 (fun _ ->
           let a = Random.State.int st 1_000_000_000 in
           (a, Printf.sprintf "%.3f" (Random.State.float st 1e9)))
     in
     ignore
       (write_rows "rand.csv" 20_000 (fun i ->
            Printf.sprintf "%d,%s" (fst rows.(i)) (snd rows.(i))));
     rows)

let rand_table () =
  ignore (Lazy.force rand_rows);
  "t=" ^ file "rand.csv" ^ "@col0:int,col1:float"

(* exact COUNT and SUM(col1) over the rows with col0 < k *)
let rand_agg k =
  Array.fold_left
    (fun (n, sum) (a, b) ->
      if a < k then (n + 1, sum +. float_of_string b) else (n, sum))
    (0, 0.) (Lazy.force rand_rows)

let approx_flags =
  [ "--approx"; "0.05"; "--approx-seed"; "7"; "--chunk-rows"; "128" ]

let approx_sql =
  "SELECT COUNT(*), SUM(col1), AVG(col1) FROM t WHERE col0 < 500000000"

(* a 95% band may miss; twice its half-width around a fixed seed's
   estimate may not *)
let covers ~estimate ~bound want =
  Float.abs (estimate -. float_of_int want) <= 2. *. bound

let oneshot () =
  let b = [| "10.5"; "20.25"; "7.0"; "99.0"; "3.5"; "42.0"; "8.25"; "64.0" |] in
  let obs =
    write_rows "obs.csv" 8 (fun i -> Printf.sprintf "%d,%s" (i + 1) b.(i))
  in
  let trace = file "trace.json" in
  let out =
    rawq_ok
      [ "--csv"; "t=" ^ obs ^ "@a:int,b:float"; "--analyze"; "--metrics";
        "--trace-out"; trace; "SELECT MAX(b) FROM t WHERE a < 5" ]
  in
  check (rows_of out = [ "99" ]) "MAX(b): got %S" out;
  check (contains out "-- decisions") "no decision log:\n%s" out;
  (* Chrome trace: the query skeleton, every event complete *)
  let events =
    match Jsons.parse (read_file trace) with
    | Ok j -> list j [ "traceEvents" ]
    | Error e -> fail "trace: %s" e
  in
  let names = List.filter_map (fun e -> str e "name") events in
  List.iter
    (fun n -> check (List.mem n names) "trace: no %s span" n)
    [ "query"; "plan"; "execute" ];
  List.iter
    (fun e ->
      check
        (List.for_all
           (fun k -> Jsons.member k e <> None)
           [ "name"; "cat"; "ph"; "ts"; "dur"; "pid"; "tid"; "args" ]
        && str e "ph" = Some "X"
        && path e [ "args"; "span_id" ] <> None)
        "trace: incomplete event %s" (Jsons.to_string e))
    events;
  (* Prometheus exposition: typed, numeric samples, a query histogram *)
  let series = List.filter (String.starts_with ~prefix:"raw_") (lines out) in
  check
    (List.exists (String.starts_with ~prefix:"# TYPE raw_") (lines out))
    "no TYPE headers";
  check (series <> []) "no metric series";
  List.iter (fun l -> ignore (sample l)) series;
  check
    (List.exists (fun l -> contains l "raw_query_seconds_bucket") series)
    "no query histogram";
  (* profiled query: folded stacks rooted in the query span tree *)
  let folded = file "prof.folded" in
  let out =
    rawq_ok
      [ "--csv"; rand_table (); "--profile"; "--profile-out"; folded;
        "SELECT COUNT(*), SUM(col1) FROM t WHERE col0 < 500000000" ]
  in
  let n, sum = rand_agg 500_000_000 in
  (match rows_of out with
  | [ row ] ->
    Scanf.sscanf row "%d | %f" (fun got_n got_sum ->
        check
          (got_n = n && Float.abs (got_sum -. sum) <= 1e-5 *. sum)
          "profiled query: got %S, want %d | %g" row n sum)
  | _ -> fail "profiled query: %S" out);
  check
    (contains out ("-- profile written to " ^ folded)
    && contains out "wall — total")
    "no profile footer and summary:\n%s" out;
  let stacks = folded_stacks "one-shot profile" (read_file folded) in
  List.iter
    (function
      | [ "copies"; _ ] | ("wall" | "alloc") :: "query" :: _ -> ()
      | st -> fail "one-shot profile: stray stack %s" (String.concat ";" st))
    stacks;
  let report = rawq_ok [ "profile"; folded ] in
  List.iter
    (fun root ->
      check (has_root stacks root) "one-shot profile: no %s stacks" root;
      check (contains report (root ^ " — total")) "rawq profile: no %s" root)
    [ "wall"; "alloc"; "copies" ];
  (* approximate query: the sampled account and one band per aggregate *)
  let out =
    rawq_ok (("--csv" :: rand_table () :: approx_flags) @ [ approx_sql ])
  in
  check
    (contains out "-- approx: eps=0.05 seed=7 sampled")
    "no approx account:\n%s" out;
  List.iter
    (fun agg ->
      check (contains out ("-- approx: " ^ agg ^ " = ")) "no %s band" agg)
    [ "count"; "sum_col1"; "avg_col1" ];
  List.iter
    (fun l ->
      if String.starts_with ~prefix:"-- approx: count = " l then
        Scanf.sscanf l "-- approx: count = %f +- %f" (fun estimate bound ->
            check (covers ~estimate ~bound n) "approx count %g +- %g misses %d"
              estimate bound n))
    (lines out);
  (* workload history of one adaptive query, summarized by [rawq report]
     with its calibration table *)
  let history = file "oneshot.history" in
  let out =
    rawq_ok
      [ "--csv"; "t=" ^ obs ^ "@a:int,b:float"; "--shreds"; "adaptive";
        "--history"; history; "SELECT MAX(b) FROM t WHERE a < 5" ]
  in
  check (rows_of out = [ "99" ]) "adaptive MAX(b): got %S" out;
  let report = rawq_ok [ "report"; history ] in
  check
    (contains report "workload history:" && contains report "selratio")
    "rawq report: no history header or calibration table:\n%s" report

let serve () =
  let table name n m k =
    let csv =
      write_rows (name ^ ".csv") n (fun i ->
          Printf.sprintf "%d,%d,%d" i (i mod m) (i * k mod 100))
    in
    [ "--csv"; name ^ "=" ^ csv ^ "@col0:int,col1:int,col2:int" ]
  in
  let history = file "serve.history" in
  (* a window long enough that the cold round's clients meet in batches *)
  let flags = [ "--history"; history; "--batch-window"; "20" ] in
  with_server "serve" (table "a" 2000 7 37 @ table "b" 500 5 11 @ flags) (fun s ->
      (* col0 is the row index: k rows below k, or all rows *)
      let round () =
        concurrently 16 (fun i ->
            let t, rows = if i mod 2 = 0 then ("a", 2000) else ("b", 500) in
            let k = (i + 1) * 40 in
            expect_count s.sock (count_query t k) (min k rows))
      in
      round () (* cold: shared scans *);
      let batched () =
        counter (rpc "stats" s Client.stats) "server.batched_queries"
      in
      let cold_batched = batched () in
      check (cold_batched > 0.) "cold round shared no scan";
      round () (* warm: the result cache *);
      let stats = rpc "stats" s Client.stats in
      let hits = counter stats "cache.result.hits" in
      check (hits > 0.) "warm round never hit the result cache";
      (* hits answer on the session thread, never in a batch *)
      let warm_batched = counter stats "server.batched_queries" in
      check
        (warm_batched = cold_batched)
        "warm round reached the batcher: server.batched_queries %g -> %g"
        cold_batched warm_batched;
      (* misses with fresh thresholds over the pooled col0: no raw read to
         share, so they neither wait for the window nor share a scan *)
      let waits = Array.make 16 infinity in
      concurrently 16 (fun i ->
          let t, rows = if i mod 2 = 0 then ("a", 2000) else ("b", 500) in
          let k = ((i + 1) * 40) + 7 in
          let sql = count_query t k in
          let j = rpc sql s (fun c -> Client.query c sql) in
          let want = min k rows in
          check
            (path j [ "rows" ] = Some (Jsons.List [ Jsons.List [ Jsons.Int want ] ]))
            "%s: got %s, want %d" sql (Jsons.to_string j) want;
          check
            (Jsons.member "shared" j <> Some (Jsons.Bool true))
            "%s: a pooled miss was shared" sql;
          waits.(i) <- Option.value (num j [ "timing"; "queue_s" ]) ~default:infinity);
      Array.sort compare waits;
      check (waits.(8) < 0.02) "pooled misses queued a median %g s, window 0.02 s"
        waits.(8);
      let stats = rpc "stats" s Client.stats in
      check
        (counter stats "server.batched_queries" = cold_batched)
        "pooled misses reached a shared scan: server.batched_queries %g -> %g"
        cold_batched (counter stats "server.batched_queries");
      (* every query the engine ran, shared or not, wrote its record *)
      let records, malformed = Raw_obs.History.load history in
      let executed = counter stats "server.requests" -. hits in
      check
        (malformed = 0
        && float_of_int (List.length records) = executed
        && List.for_all
             (fun (r : Raw_obs.History.record) ->
               r.Raw_obs.History.status = Raw_obs.History.Completed)
             records)
        "history: %d record(s), %d malformed, %g executed queries"
        (List.length records) malformed executed;
      (* rows appended to a between rounds extend its per-file state: the
         next answer equals one-shot rawq over the grown file, and no
         refresh falls back to dropping that state *)
      let extends = counter stats "catalog.extends"
      and fallbacks = counter stats "catalog.invalidations" in
      let sql = "SELECT COUNT(*), SUM(col2), MAX(col1) FROM a WHERE col0 >= 1500" in
      List.iter
        (fun first ->
          Out_channel.with_open_gen [ Open_wronly; Open_append ] 0o644 (file "a.csv")
            (fun oc ->
              for i = first to first + 99 do
                Printf.fprintf oc "%d,%d,%d\n" i (i mod 7) (i * 37 mod 100)
              done);
          let served = rawq_ok [ "client"; "--socket"; s.sock; sql ]
          and oneshot =
            rawq_ok [ "--csv"; "a=" ^ file "a.csv" ^ "@col0:int,col1:int,col2:int"; sql ]
          in
          (* the client separates cells with tabs, one-shot with " | " *)
          let cells out =
            List.map
              (fun r ->
                String.map (fun c -> if c = '\t' then '|' else c) r
                |> String.split_on_char '|' |> List.map String.trim)
              (rows_of out)
          in
          check
            (cells served = cells oneshot && cells served <> [])
            "after appending rows %d..: served %S, one-shot %S" first served oneshot)
        [ 2000; 2100 ];
      let stats = rpc "stats" s Client.stats in
      check
        (counter stats "catalog.extends" -. extends = 2.)
        "appends did not extend: catalog.extends %g -> %g" extends
        (counter stats "catalog.extends");
      check
        (counter stats "catalog.invalidations" = fallbacks)
        "an append fell back: catalog.invalidations %g -> %g" fallbacks
        (counter stats "catalog.invalidations"))

let chaos () =
  let csv =
    write_rows "c.csv" 2000 (fun i -> Printf.sprintf "%d,%d" i (i mod 7))
  in
  let args =
    [ "--csv"; "t=" ^ csv ^ "@col0:int,col1:int"; "--max-request-bytes";
      "4096"; "--request-timeout"; "2"; "--idle-timeout"; "5" ]
  in
  with_server "chaos" args (fun s ->
      (* torn writes may stall past the 2 s request timeout, oversized
         lines overshoot the 4096-byte bound *)
      let fault =
        Net_fault.make ~seed:20140807 ~chaos_per_request:0.9
          ~max_stall_seconds:3. ~oversize_bytes:8192 ()
      in
      let plans =
        List.init 8 (fun client ->
            let st = Net_fault.stream fault ~client in
            List.init 10 (fun _ -> Net_fault.plan fault st))
      in
      let request = "{\"id\": 1, \"sql\": \"" ^ count_query "t" 500 ^ "\"}\n" in
      let evil =
        List.map
          (Thread.create (List.iter (Chaos_client.run_action ~request s.sock)))
          plans
      in
      concurrently 8 (fun i ->
          for round = 1 to 3 do
            let k = (i + 1) * (round + 1) * 97 in
            expect_count
              ~flags:[ "--retry"; "3"; "--request-timeout"; "30" ]
              s.sock (count_query "t" k) (min k 2000)
          done);
      List.iter Thread.join evil;
      check (not (exited s.pid)) "server died under chaos:\n%s"
        (read_file s.log);
      let c = rpc "stats" s Client.stats in
      check
        (contains (Jsons.to_string c) "\"server.session_end.")
        "no server.session_end accounting";
      let drawn p =
        float_of_int (List.length (List.filter p (List.concat plans)))
      in
      let oversized =
        drawn (function Net_fault.Oversized _ -> true | _ -> false)
      in
      check
        (counter c "server.too_large" = oversized)
        "server.too_large %g, %g oversized lines sent"
        (counter c "server.too_large") oversized;
      let stalled =
        drawn (function Net_fault.Torn_write d -> d > 2.5 | _ -> false)
      in
      let reaped = counter c "server.session_end.timeout_request" in
      check (reaped >= stalled)
        "%g sessions reaped, %g torn writes stalled past the timeout" reaped
        stalled)

let telemetry () =
  let csv =
    write_rows "t.csv" 2000 (fun i ->
        Printf.sprintf "%d,%d,%d" i (i mod 7) (i * 37 mod 100))
  in
  let args =
    [ "--csv"; "t=" ^ csv ^ "@col0:int,col1:int,col2:int";
      "--telemetry-tick"; "0.2"; "--trace-retain"; "32" ]
  in
  with_server "telemetry" args (fun s ->
      (* distinct thresholds, so nothing is answered from the cache *)
      concurrently 16 (fun i ->
          let k = (i + 1) * 100 in
          expect_count s.sock (count_query "t" k) (min k 2000));
      let out =
        rawq_ok
          [ "client"; "--socket"; s.sock; "--timing"; "SELECT COUNT(*) FROM t" ]
      in
      check
        (rows_of out = [ "2000" ] && contains out "-- timing: read ")
        "--timing: %S" out;
      (* Prometheus text format: comments or "name value"; cumulative
         buckets up to +Inf, which counts every request *)
      let expo =
        Option.value (str (rpc "metrics" s Client.metrics) "exposition")
          ~default:""
      in
      let series =
        List.filter_map
          (fun l ->
            if String.starts_with ~prefix:"#" l then
              match String.split_on_char ' ' l with
              | _ :: ("HELP" | "TYPE") :: _ -> None
              | _ -> fail "bad exposition comment %S" l
            else Some (sample l))
          (lines expo)
      in
      check
        (List.exists
           (fun (n, _) ->
             String.starts_with ~prefix:"raw_server_requests_total" n)
           series)
        "no server request counter";
      let buckets =
        List.filter
          (fun (n, _) ->
            String.starts_with ~prefix:"raw_server_request_seconds_bucket" n)
          series
      in
      let counts = List.map snd buckets in
      check
        (List.length counts > 1
        && counts = List.sort compare counts
        && fst (List.hd (List.rev buckets))
           = "raw_server_request_seconds_bucket{le=\"+Inf\"}"
        && List.assoc_opt "raw_server_request_seconds_count" series
           = Some (List.hd (List.rev counts))
        && List.hd (List.rev counts) >= 16.)
        "request-latency buckets not cumulative up to +Inf = count >= 16";
      (* retained traces: session -> read/queue-wait/batch -> work/write.
         The ring holds all 17 queries, so the lone --timing one is among
         them: an individually executed request *)
      let traces = list (rpc "trace" s Client.trace) [ "traces" ] in
      check (List.length traces = 17) "trace: %d of 17 queries retained"
        (List.length traces);
      let skeleton work =
        List.sort compare
          [ ("", "session"); ("batch", work); ("session", "batch");
            ("session", "queue-wait"); ("session", "read");
            ("session", "write") ]
      in
      let edges entry =
        let events = list entry [ "trace"; "traceEvents" ] in
        let name e = Option.value (str e "name") ~default:"?" in
        let name_of id =
          List.find_opt (fun e -> path e [ "args"; "span_id" ] = Some id) events
        in
        List.sort compare
          (List.map
             (fun e ->
               match Option.bind (path e [ "args"; "parent_id" ]) name_of with
               | Some p -> (name p, name e)
               | None -> ("", name e))
             events)
      in
      let seen =
        List.map
          (fun entry ->
            let e = edges entry in
            check
              (num_is (fun x -> x >= 0.) entry [ "seconds" ]
              && str entry "sql" <> None
              && List.mem e
                   (List.map skeleton [ "execute"; "shared-scan"; "cached" ]))
              "trace entry off the skeleton: %s" (Jsons.to_string entry);
            e)
          traces
      in
      check
        (List.mem (skeleton "execute") seen)
        "no individually executed request retained";
      (* window percentiles appear once the ticker has covered the load *)
      let rec poll n =
        let st = rpc "stats" s Client.stats in
        if
          not
            (num_is (fun c -> c >= 16.) st [ "latency"; "cumulative"; "count" ]
            && path st [ "latency"; "cumulative"; "p99" ] <> None
            && path st [ "latency"; "windows"; "10s"; "p99" ] <> None)
        then begin
          check (n > 0) "no cumulative and 10s-window p99: %s"
            (Jsons.to_string st);
          Thread.delay 0.2;
          poll (n - 1)
        end
      in
      poll 50;
      let top =
        rawq_ok
          [ "top"; "--socket"; s.sock; "--iterations"; "1"; "--no-clear" ]
      in
      check
        (contains top "rawq top" && contains top "latency ")
        "rawq top frame: %S" top)

let profile_serve () =
  with_server "profile" [ "--csv"; rand_table (); "--profile" ] (fun s ->
      (* distinct thresholds, so every request really executes *)
      for i = 1 to 8 do
        let k = i * 100_000_000 in
        expect_count s.sock (count_query "t" k) (fst (rand_agg k))
      done;
      let folded =
        Option.value (str (rpc "profile" s Client.profile) "folded")
          ~default:""
      in
      let stacks = folded_stacks "served profile" folded in
      List.iter
        (function
          | [ "copies"; _ ] | ("wall" | "alloc") :: _ -> ()
          | st -> fail "served profile: stray stack %s" (String.concat ";" st))
        stacks;
      check
        (List.exists
           (function "wall" :: "session" :: _ -> true | _ -> false)
           stacks)
        "no wall stack rooted in the session skeleton";
      check (has_root stacks "copies") "no copy-site stacks")

let approx_serve () =
  let n, _ = rand_agg 500_000_000 in
  with_server "approx" ("--csv" :: rand_table () :: approx_flags) (fun s ->
      (* approximate answers re-sample every time: never cached or shared *)
      for attempt = 1 to 2 do
        let r = rpc "approx query" s (fun c -> Client.query c approx_sql) in
        check
          (Jsons.member "cached" r = Some (Jsons.Bool false)
          && Jsons.member "shared" r = Some (Jsons.Bool false))
          "attempt %d: approx answer cached or shared: %s" attempt
          (Jsons.to_string r);
        let a = Option.value (Jsons.member "approx" r) ~default:Jsons.Null in
        let f k = Option.value (num a [ k ]) ~default:nan in
        let aggs = list a [ "aggs" ] in
        check
          (f "eps" = 0.05
          && f "seed" = 7.
          && Jsons.member "exact" a = Some (Jsons.Bool false)
          && 0. < f "fraction" && f "fraction" < 1.
          && 0. < f "morsels_sampled"
          && f "morsels_sampled" < f "morsels_total"
          && 0. < f "rows_sampled"
          && f "rows_sampled" < f "rows_total"
          && List.map (fun g -> str g "name") aggs
             = [ Some "count"; Some "sum_col1"; Some "avg_col1" ]
          && List.for_all
               (fun g ->
                 num g [ "estimate" ] <> None
                 && num_is (fun b -> b >= 0.) g [ "bound" ]
                 && num_is (fun r -> r <= 0.05) g [ "relative" ])
               aggs)
          "bad approx account: %s" (Jsons.to_string a);
        let g k = Option.value (num (List.hd aggs) [ k ]) ~default:nan in
        check
          (covers ~estimate:(g "estimate") ~bound:(g "bound") n)
          "approx count band misses %d: %s" n (Jsons.to_string a)
      done)

let phases =
  [ ("oneshot", oneshot); ("serve", serve); ("chaos", chaos);
    ("telemetry", telemetry); ("profile-serve", profile_serve);
    ("approx-serve", approx_serve) ]

let () =
  (* chaos clients provoke EPIPE on purpose *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let kill_live () =
    List.iter
      (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      !live
  in
  (* a wedged server or client must fail the build, not hang it *)
  ignore
    (Thread.create
       (fun () ->
         Thread.delay 600.;
         print_endline "smoke: still running after 600 s";
         kill_live ();
         exit 2)
       ());
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (name, run) ->
      let t = Unix.gettimeofday () in
      match run () with
      | () ->
        Printf.printf "smoke: %-13s ok  %5.1fs\n%!" name
          (Unix.gettimeofday () -. t)
      | exception e ->
        let msg = match e with Failed m -> m | e -> Printexc.to_string e in
        Printf.printf "smoke: %s FAILED: %s\n%!" name msg;
        kill_live ();
        exit 1)
    phases;
  Array.iter (fun f -> Sys.remove (file f)) (Sys.readdir dir);
  Sys.rmdir dir;
  Printf.printf "smoke: all %d phases ok in %.1fs\n" (List.length phases)
    (Unix.gettimeofday () -. t0)
