(* Resource governance: deadlines and cooperative cancellation stop queries
   with typed errors and leave the adaptive state consistent; the unified
   memory budget shrinks consumers in priority order with exact accounting
   and degrades to streaming under pressure; admission control rejects with
   a typed [Overloaded]; configuration is validated at construction.

   Determinism notes: mid-scan cancellation uses the [trip_after_checks]
   testing hook (an atomic check countdown shared by all domains), never a
   real timer; admission tests occupy a slot with [Raw_db.with_admission]
   instead of racing domains. *)

open Raw_vector
open Raw_storage
open Raw_core
open Test_util

let counter (r : Executor.report) name =
  match List.assoc_opt name r.Executor.counters with
  | Some v -> int_of_float (Float.round v)
  | None -> 0

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* Sum of column c over the n-row grid: cell (r, c) = r * 100 + c. *)
let grid_sum ~n c = (100 * n * (n - 1) / 2) + (n * c)

(* A pooled shred for the grid table may be partially covered — that is
   its design — but every row it marks covered must hold exactly the raw
   file's value. A cancelled query must never leave half-written garbage
   behind a coverage bit. *)
let check_shreds_consistent db =
  let pool = Catalog.shreds (Raw_db.catalog db) in
  Shred_pool.fold
    (fun key shred () ->
      let c = key.Shred_pool.column and col = Shred_pool.column shred in
      for r = 0 to Column.length col - 1 do
        if Shred_pool.covered shred r then
          check_value
            (Printf.sprintf "shred col%d row %d" c r)
            (Value.Int ((r * 100) + c))
            (Column.get col r)
      done)
    pool ()

(* ------------------------------------------------------------------ *)
(* Cancellation and deadlines                                          *)
(* ------------------------------------------------------------------ *)

let cancel_unit_tests =
  [
    Alcotest.test_case "never token: inactive, check is free, cancel no-op"
      `Quick (fun () ->
        Alcotest.(check bool) "inactive" false (Cancel.active Cancel.never);
        Cancel.cancel Cancel.never;
        Cancel.check Cancel.never;
        Alcotest.(check bool) "still untripped" true
          (Cancel.triggered Cancel.never = None));
    Alcotest.test_case "cancel trips as User exactly once" `Quick (fun () ->
        let t = Cancel.create () in
        Alcotest.(check bool) "fresh" true (Cancel.triggered t = None);
        Cancel.cancel t;
        Cancel.cancel t;
        Alcotest.(check bool) "tripped User" true
          (Cancel.triggered t = Some Cancel.User);
        match Cancel.check t with
        | () -> Alcotest.fail "check should raise"
        | exception Cancel.Stop Cancel.User -> ());
    Alcotest.test_case "trip_after_checks charges exactly n checks" `Quick
      (fun () ->
        let t = Cancel.create ~trip_after_checks:2 () in
        Cancel.check t;
        Cancel.check t;
        match Cancel.check t with
        | () -> Alcotest.fail "third check should trip"
        | exception Cancel.Stop Cancel.User -> ());
    Alcotest.test_case "expired deadline trips as Deadline" `Quick (fun () ->
        let t = Cancel.create ~deadline_seconds:1e-9 () in
        Unix.sleepf 0.002;
        Alcotest.(check bool) "tripped Deadline" true
          (Cancel.triggered t = Some Cancel.Deadline));
  ]

let deadline_tests =
  [
    Alcotest.test_case "Config.deadline: typed error, progress snapshot"
      `Quick (fun () ->
        let config = { Config.default with Config.deadline = Some 1e-9 } in
        let db = grid_csv_db ~config ~n:100 ~m:3 () in
        match Raw_db.query db "SELECT SUM(col0) FROM t" with
        | (_ : Executor.report) ->
          Alcotest.fail "expected Deadline_exceeded"
        | exception Resource_error.Deadline_exceeded p ->
          Alcotest.(check bool) "progress sane" true
            (p.Resource_error.rows_scanned >= 0
            && p.Resource_error.io_seconds >= 0.
            && p.Resource_error.compile_seconds >= 0.
            && p.Resource_error.elapsed_seconds >= 0.));
    Alcotest.test_case "explicit token overrides the config deadline" `Quick
      (fun () ->
        (* generous config deadline, pre-tripped explicit token: the typed
           error is Cancelled, proving the caller's token won *)
        let config = { Config.default with Config.deadline = Some 3600. } in
        let db = grid_csv_db ~config ~n:100 ~m:3 () in
        let cancel = Cancel.create ~trip_after_checks:0 () in
        match Raw_db.query ~cancel db "SELECT SUM(col0) FROM t" with
        | (_ : Executor.report) -> Alcotest.fail "expected Cancelled"
        | exception Resource_error.Cancelled _ -> ());
    Alcotest.test_case "no deadline: reports carry no governance noise"
      `Quick (fun () ->
        let r = Raw_db.query (grid_csv_db ()) "SELECT SUM(col0) FROM t" in
        Alcotest.(check (list string)) "not degraded" [] r.Executor.degraded;
        Alcotest.(check bool) "no gov.* counters" true
          (List.for_all
             (fun (k, _) -> not (String.length k >= 4 && String.sub k 0 4 = "gov."))
             r.Executor.counters));
  ]

let cancellation_tests =
  [
    Alcotest.test_case "mid-scan cancel: typed error, engine still correct"
      `Quick (fun () ->
        let n = 4000 in
        let db = grid_csv_db ~n ~m:3 () in
        let cancel = Cancel.create ~trip_after_checks:3 () in
        (match Raw_db.query ~cancel db "SELECT SUM(col1) FROM t" with
         | (_ : Executor.report) -> Alcotest.fail "expected Cancelled"
         | exception Resource_error.Cancelled _ -> ());
        check_shreds_consistent db;
        check_value "re-run after cancel"
          (Value.Int (grid_sum ~n 1))
          (Raw_db.scalar db "SELECT SUM(col1) FROM t"));
    Alcotest.test_case
      "parallel cancel: all domains quiesce, posmap and shreds intact" `Quick
      (fun () ->
        let n = 8000 in
        let config = { Config.default with Config.parallelism = 4 } in
        let db = grid_csv_db ~config ~n ~m:4 () in
        let cancel = Cancel.create ~trip_after_checks:5 () in
        (match Raw_db.query ~cancel db "SELECT SUM(col2) FROM t" with
         | (_ : Executor.report) -> Alcotest.fail "expected Cancelled"
         | exception Resource_error.Cancelled _ -> ());
        check_shreds_consistent db;
        (* the full scan re-runs correctly on the state the cancelled query
           left behind... *)
        check_value "parallel re-run"
          (Value.Int (grid_sum ~n 2))
          (Raw_db.scalar db "SELECT SUM(col2) FROM t");
        (* ...and so does a posmap-driven point fetch *)
        check_value "point fetch through retained state" (Value.Int 420003)
          (Raw_db.scalar db "SELECT col3 FROM t WHERE col0 = 420000");
        (* identical to a database that was never cancelled *)
        let fresh = grid_csv_db ~config ~n ~m:4 () in
        let q = "SELECT col0, col3 FROM t WHERE col1 > 700000" in
        Alcotest.(check int) "same row set" 0
          (Stdlib.compare
             (rows_of_chunk (Raw_db.sql db q))
             (rows_of_chunk (Raw_db.sql fresh q))));
    qtest ~count:25 "prop: cancellation is clean at any trip point"
      QCheck2.Gen.(pair (int_range 0 40) (int_range 1 4))
      (fun (trips, par) ->
        let n = 2500 in
        let config = { Config.default with Config.parallelism = par } in
        let db = grid_csv_db ~config ~n ~m:3 () in
        let cancel = Cancel.create ~trip_after_checks:trips () in
        let expected = Value.Int (grid_sum ~n 2) in
        let first =
          match Raw_db.query ~cancel db "SELECT SUM(col2) FROM t" with
          | r -> Some (scalar_of r)
          | exception Resource_error.Cancelled _ -> None
        in
        (* a query that ran to completion must be right despite the armed
           token *)
        (match first with
         | Some v -> check_value "completed run" expected v
         | None -> ());
        check_shreds_consistent db;
        (* whatever state the cancelled run left, the engine answers the
           same query correctly afterwards *)
        Raw_db.scalar db "SELECT SUM(col2) FROM t" = expected);
  ]

(* ------------------------------------------------------------------ *)
(* Memory budget                                                       *)
(* ------------------------------------------------------------------ *)

(* Register a consumer holding items of the given sizes, coldest first.
   Each drop appends (name, item index) to [calls]; the result reads the
   bytes still held. *)
let test_consumer m calls name ~priority sizes =
  let held = ref (List.mapi (fun id bytes -> (id, bytes)) sizes) in
  Mem_budget.register m ~name ~priority ~items:(fun () ->
      List.map
        (fun (id, bytes) ->
          let drop () =
            calls := !calls @ [ (name, id) ];
            held := List.remove_assoc id !held
          in
          { Mem_budget.bytes; drop })
        !held);
  fun () -> List.fold_left (fun acc (_, b) -> acc + b) 0 !held

let budget_unit_tests =
  [
    Alcotest.test_case "create rejects non-positive capacity" `Quick (fun () ->
        match Mem_budget.create ~capacity_bytes:0 with
        | (_ : Mem_budget.t) -> Alcotest.fail "expected Invalid_config"
        | exception Resource_error.Invalid_config _ -> ());
    Alcotest.test_case "reserve shrinks in priority order, exact accounting"
      `Quick (fun () ->
        let calls = ref [] in
        let m = Mem_budget.create ~capacity_bytes:1000 in
        (* registered out of order: priority, not insertion, decides *)
        let b = test_consumer m calls "b" ~priority:1 [ 150; 150 ] in
        let a = test_consumer m calls "a" ~priority:0 [ 100; 100; 100; 100; 100; 100 ] in
        Alcotest.(check int) "used sums the items" 900 (Mem_budget.used m);
        let ev0 = Io_stats.get "gov.evicted_bytes" in
        let n0 = Io_stats.get "gov.evictions.a" in
        Alcotest.(check bool) "fits: no drop" true
          (Mem_budget.reserve m ~bytes:100);
        Alcotest.(check (list (pair string int))) "untouched" [] !calls;
        Alcotest.(check bool) "pressure: drops" true
          (Mem_budget.reserve m ~bytes:300);
        Alcotest.(check (list (pair string int)))
          "lowest priority only, coldest first" [ ("a", 0); ("a", 1) ] !calls;
        Alcotest.(check int) "a freed exactly the need" 400 (a ());
        Alcotest.(check int) "b untouched" 300 (b ());
        Alcotest.(check int) "one eviction per item" 2
          (Io_stats.get "gov.evictions.a" - n0);
        Alcotest.(check int) "evicted bytes exact" 200
          (Io_stats.get "gov.evicted_bytes" - ev0));
    Alcotest.test_case "impossible reservation fails and is counted" `Quick
      (fun () ->
        let m = Mem_budget.create ~capacity_bytes:1000 in
        let a = test_consumer m (ref []) "a" ~priority:0 [ 250; 250 ] in
        let f0 = Io_stats.get "gov.reservation_failures" in
        Alcotest.(check bool) "cannot fit" false
          (Mem_budget.reserve m ~bytes:1100);
        Alcotest.(check int) "everything dropped trying" 0 (a ());
        Alcotest.(check int) "failure counted" 1
          (Io_stats.get "gov.reservation_failures" - f0);
        Alcotest.(check bool) "non-positive is free" true
          (Mem_budget.reserve m ~bytes:0));
    Alcotest.test_case "re-registering a name replaces the consumer" `Quick
      (fun () ->
        let m = Mem_budget.create ~capacity_bytes:1000 in
        let _held : unit -> int = test_consumer m (ref []) "a" ~priority:0 [ 700 ] in
        let _held : unit -> int = test_consumer m (ref []) "a" ~priority:0 [ 10 ] in
        Alcotest.(check int) "one consumer, new items" 10 (Mem_budget.used m));
    Alcotest.test_case "shred pool evicts LRU victims, counted per item"
      `Quick (fun () ->
        let pool = Shred_pool.create ~capacity:8 in
        let key c = { Shred_pool.table = "t"; column = c } in
        let col c =
          Column.of_int_array (Array.init 100 (fun r -> (r * 100) + c))
        in
        Shred_pool.put pool (key 0) (col 0);
        Shred_pool.put pool (key 1) (col 1);
        Shred_pool.put pool (key 2) (col 2);
        (* touch column 0: column 1 becomes the LRU victim *)
        ignore (Shred_pool.find pool (key 0));
        let victim_bytes = Column.byte_size (col 1) in
        let m = Mem_budget.create ~capacity_bytes:(3 * victim_bytes) in
        Mem_budget.register m ~name:"shreds" ~priority:0 ~items:(fun () ->
            Shred_pool.items pool);
        let e0 = Io_stats.get "gov.evictions.shreds" in
        let b0 = Io_stats.get "gov.evicted_bytes" in
        Alcotest.(check bool) "room made" true (Mem_budget.reserve m ~bytes:1);
        Alcotest.(check int) "exactly one shred evicted" 1
          (Io_stats.get "gov.evictions.shreds" - e0);
        Alcotest.(check int) "freed the victim's bytes" victim_bytes
          (Io_stats.get "gov.evicted_bytes" - b0);
        Alcotest.(check bool) "victim was the LRU entry" true
          (Shred_pool.find pool (key 1) = None
          && Shred_pool.find pool (key 0) <> None
          && Shred_pool.find pool (key 2) <> None));
  ]

let pressure_tests =
  [
    Alcotest.test_case
      "tiny budget: answers stay exact, degradation observable" `Quick
      (fun () ->
        let n = 400 in
        let config =
          { Config.default with Config.memory_budget = Some 2048 }
        in
        let db = grid_csv_db ~config ~n ~m:4 () in
        let r1 = Raw_db.query db "SELECT SUM(col1) FROM t" in
        check_value "first query exact" (Value.Int (grid_sum ~n 1))
          (scalar_of r1);
        let r2 = Raw_db.query db "SELECT SUM(col3) FROM t" in
        check_value "second query exact" (Value.Int (grid_sum ~n 3))
          (scalar_of r2);
        let gov r =
          counter r "gov.evicted_bytes"
          + counter r "gov.fallbacks.streaming"
          + counter r "gov.fallbacks.shred_pool"
          + counter r "gov.fallbacks.posmap"
        in
        Alcotest.(check bool) "governance acted" true (gov r1 + gov r2 > 0);
        Alcotest.(check bool) "degradation reported" true
          (r1.Executor.degraded <> [] || r2.Executor.degraded <> []);
        (* budget honored: the engine's adaptive state stays within it *)
        match Catalog.budget (Raw_db.catalog db) with
        | None -> Alcotest.fail "budget should be configured"
        | Some b ->
          Alcotest.(check bool) "usage within capacity" true
            (Mem_budget.used b <= Mem_budget.capacity b));
    Alcotest.test_case "unconstrained run caches; constrained run streams"
      `Quick (fun () ->
        let n = 400 in
        let unbounded = grid_csv_db ~n ~m:4 () in
        let r = Raw_db.query unbounded "SELECT SUM(col1) FROM t" in
        Alcotest.(check int) "no fallbacks when unbounded" 0
          (counter r "gov.fallbacks.streaming"
          + counter r "gov.fallbacks.shred_pool"
          + counter r "gov.fallbacks.posmap"));
    Alcotest.test_case "par == seq under memory pressure" `Quick (fun () ->
        let n = 600 in
        let mk par =
          let config =
            {
              Config.default with
              Config.memory_budget = Some 1500;
              parallelism = par;
            }
          in
          grid_csv_db ~config ~n ~m:4 ()
        in
        let seq = mk 1 and par = mk 4 in
        let queries =
          [
            "SELECT SUM(col2) FROM t";
            "SELECT col0, col3 FROM t WHERE col1 > 29000";
            "SELECT SUM(col2) FROM t";
            (* repeat: cross-query reuse under pressure *)
          ]
        in
        List.iter
          (fun q ->
            Alcotest.(check int) ("par == seq: " ^ q) 0
              (Stdlib.compare
                 (rows_of_chunk (Raw_db.sql seq q))
                 (rows_of_chunk (Raw_db.sql par q))))
          queries);
  ]

(* A budgeted point fetch reserves pooled shreds after deciding which
   columns its index reaches; that reservation may evict the table's own
   positional map or JSONL row index. The fetch must still answer. *)
let uniform_rows ~seed ~n ~m =
  let st = Random.State.make [| seed |] in
  List.init n (fun _ -> List.init m (fun _ -> Random.State.int st 1_000_000_000))

let sum_where rows ~col ~lt ~sum =
  List.fold_left
    (fun acc r -> if List.nth r col < lt then acc + List.nth r sum else acc)
    0 rows

let index_eviction_tests =
  let budgeted bytes = { Config.default with Config.memory_budget = Some bytes } in
  [
    Alcotest.test_case "JSONL fetch survives evicting its own row index"
      `Quick (fun () ->
        let rows = uniform_rows ~seed:7 ~n:5000 ~m:3 in
        let path = fresh_path ".jsonl" in
        Out_channel.with_open_text path (fun oc ->
            List.iter
              (fun r ->
                Printf.fprintf oc "{%s}\n"
                  (String.concat ", "
                     (List.mapi (Printf.sprintf "\"f%d\": %d") r)))
              rows);
        let db = Raw_db.create ~config:(budgeted (64 * 1024)) () in
        Raw_db.register_jsonl db ~name:"j" ~path
          ~columns:[ ("f0", Dtype.Int); ("f1", Dtype.Int); ("f2", Dtype.Int) ];
        check_value "budgeted answer"
          (Value.Int (sum_where rows ~col:0 ~lt:500_000_000 ~sum:1))
          (Raw_db.scalar db "SELECT SUM(f1) FROM j WHERE f0 < 500000000"));
    Alcotest.test_case "CSV fetch survives evicting its own positional map"
      `Quick (fun () ->
        let rows = uniform_rows ~seed:7 ~n:20_000 ~m:6 in
        let path = write_csv_rows rows in
        let db = Raw_db.create ~config:(budgeted (512 * 1024)) () in
        Raw_db.register_csv db ~name:"c" ~path
          ~columns:
            (List.map (fun c -> (String.make 1 c, Dtype.Int)) [ 'a'; 'b'; 'c'; 'd'; 'e'; 'f' ])
          ();
        check_value "budgeted answer"
          (Value.Int (sum_where rows ~col:0 ~lt:500_000_000 ~sum:4))
          (Raw_db.scalar db "SELECT SUM(e) FROM c WHERE a < 500000000"));
  ]

(* Row-id indexes held outside positional maps — the HEP particle index,
   each HEP file's decoded event offsets and the JSONL child-table
   element index — are budget items too: under a tight budget a session
   answers exactly as an unbudgeted engine does while they are evicted
   and rebuilt. The HEP tables have no positional map, so their posmap
   evictions are those indexes. *)
let budgeted_session ~budget register queries =
  let answers config =
    let db = Raw_db.create ~config () in
    register db;
    let h = Raw_obs.Trace.create () in
    let before = Io_stats.snapshot () in
    let rows =
      Raw_obs.Trace.with_handle h (fun () ->
          List.map
            (fun q ->
              let c = (Raw_db.query db q).Executor.chunk in
              List.init (Chunk.n_rows c) (fun k -> List.map Value.to_string (Chunk.row c k)))
            queries)
    in
    let evictions =
      Option.value ~default:0.
        (List.assoc_opt "gov.evictions.posmaps" (Io_stats.snapshot ()))
      -. Option.value ~default:0. (List.assoc_opt "gov.evictions.posmaps" before)
    in
    (db, rows, evictions, Raw_obs.Trace.decisions (Raw_obs.Trace.spans h))
  in
  let _, want, _, _ = answers Config.default in
  let db, got, evictions, decisions =
    answers { Config.default with Config.memory_budget = Some budget }
  in
  if got <> want then Alcotest.fail "budgeted answers differ from unbudgeted";
  Alcotest.(check bool) "gov.evictions.posmaps moved" true (evictions > 0.);
  ( db,
    List.filter_map
      (fun (d : Raw_obs.Trace.decision) ->
        if d.site = "governance" && String.starts_with ~prefix:"evict_" d.choice then
          Some (d.choice, d.inputs)
        else None)
      decisions )

let row_index_budget_tests =
  [
    Alcotest.test_case "HEP session evicts its particle index and offsets"
      `Quick (fun () ->
        let path = fresh_path ".hep" in
        Raw_formats.Hep.generate ~path ~n_events:3000 ~seed:5 ();
        let budget = 384 * 1024 in
        let db, evicted =
          budgeted_session ~budget
            (fun db -> Raw_db.register_hep db ~name_prefix:"h" ~path)
            [
              "SELECT COUNT(*) FROM h_muons";
              "SELECT SUM(pt) FROM h_muons WHERE eta > 0";
              "SELECT MAX(pt), COUNT(*) FROM h_jets WHERE phi < 0";
              "SELECT SUM(run_number) FROM h_events WHERE event_id < 500";
              "SELECT COUNT(*) FROM h_muons JOIN h_events ON h_muons.event_id = \
               h_events.event_id WHERE run_number < 10";
              "SELECT SUM(eta) FROM h_electrons";
              "SELECT SUM(pt) FROM h_muons WHERE eta > 0";
              "SELECT MIN(pt), SUM(phi) FROM h_jets";
            ]
        in
        let choices = List.sort_uniq compare (List.map fst evicted) in
        Alcotest.(check (list string)) "evicted structures"
          [ "evict_event_offsets"; "evict_posmap" ] choices;
        (* a reservation of the whole budget drops every index whole *)
        let cat = Raw_db.catalog db in
        ignore (Catalog.reserve_bytes cat budget);
        Alcotest.(check int) "offsets dropped" 0
          (Raw_formats.Hep.Reader.offsets_bytes (Raw_db.hep_reader db "h_events"));
        List.iter
          (fun t ->
            Alcotest.(check bool) (t ^ " index dropped") true
              ((Catalog.get cat t).state.hep_index = None))
          [ "h_muons"; "h_electrons"; "h_jets" ]);
    Alcotest.test_case "JSONL child-table session evicts its element index"
      `Quick (fun () ->
        let n = 3000 in
        let path = fresh_path ".jsonl" in
        let st = Random.State.make [| 3 |] in
        Out_channel.with_open_text path (fun oc ->
            for i = 0 to n - 1 do
              Printf.fprintf oc "{\"id\": %d, \"items\": [%s]}\n" i
                (String.concat ", "
                   (List.init (Random.State.int st 6) (fun _ ->
                        Printf.sprintf "{\"qty\": %d}" (Random.State.int st 100))))
            done);
        let _, evicted =
          budgeted_session ~budget:(256 * 1024)
            (fun db ->
              Raw_db.register_jsonl db ~name:"orders" ~path ~columns:[ ("id", Dtype.Int) ];
              Raw_db.register_jsonl_array db ~name:"items" ~path ~array_path:"items"
                ~columns:[ ("qty", Dtype.Int) ])
            [
              "SELECT COUNT(*), SUM(qty) FROM items";
              "SELECT SUM(qty) FROM items WHERE qty > 50";
              "SELECT COUNT(*) FROM orders WHERE id < 100";
              "SELECT MAX(parent), MIN(qty) FROM items WHERE parent > 1000";
              "SELECT SUM(qty) FROM items WHERE qty > 50";
            ]
        in
        (* more than the child table's row starts alone (8 bytes a line) *)
        Alcotest.(check bool) "element index evicted" true
          (List.exists
             (fun (_, inputs) ->
               List.assoc_opt "table" inputs = Some "items"
               && int_of_string (List.assoc "freed_bytes" inputs) > 8 * n)
             evicted));
  ]

(* One deterministic session over a CSV and a JSONL table, replayed at
   several budgets from "everything evicts" to "nothing does". After each
   query its result is put into the result cache under a fixed key, as the
   server would, so all five budget consumers hold items. The transcript
   pins every answer, every gov.* counter delta and each eviction decision
   (template_cache/evict and governance/* records) against
   golden/budget_session.txt; a mismatch writes the actual transcript to
   budget_session.actual in the test's working directory. *)
let session_budgets =
  [ 32; 64; 128; 256; 512; 1024; 4096; 16384 ] |> List.map (fun k -> k * 1024)

let session_queries =
  [
    "SELECT SUM(a) FROM c";
    "SELECT SUM(e) FROM c WHERE a < 500000000";
    "SELECT COUNT(*), MIN(f1) FROM j";
    "SELECT SUM(f1) FROM j WHERE f0 < 500000000";
    "SELECT b, c FROM c WHERE a < 2000000 ORDER BY b LIMIT 5";
    "SELECT MAX(d), COUNT(*) FROM c WHERE b > 900000000";
    "SELECT SUM(f2) FROM j WHERE f1 > 800000000";
    "SELECT SUM(e) FROM c WHERE a < 500000000";
    "SELECT SUM(f) FROM c WHERE e < 100000000";
    "SELECT SUM(f1) FROM j WHERE f0 < 500000000";
    "SELECT MIN(c), MAX(b) FROM c";
  ]

let session_files =
  lazy
    (let csv = write_csv_rows (uniform_rows ~seed:11 ~n:20_000 ~m:6) in
     let jsonl = fresh_path ".jsonl" in
     Out_channel.with_open_text jsonl (fun oc ->
         List.iter
           (fun r ->
             Printf.fprintf oc "{%s}\n"
               (String.concat ", " (List.mapi (Printf.sprintf "\"f%d\": %d") r)))
           (uniform_rows ~seed:12 ~n:5000 ~m:3));
     (csv, jsonl))

let gov_deltas before after =
  List.filter_map
    (fun (k, v) ->
      let d = v -. Option.value (List.assoc_opt k before) ~default:0. in
      if String.starts_with ~prefix:"gov." k && d <> 0. then
        Some (Printf.sprintf "  %s %+.0f" k d)
      else None)
    (List.sort compare after)

let eviction_decisions h =
  List.filter_map
    (fun (d : Raw_obs.Trace.decision) ->
      if d.site = "governance" || (d.site = "template_cache" && d.choice = "evict")
      then
        Some
          (Printf.sprintf "  %s/%s %s" d.site d.choice
             (String.concat " "
                (List.map (fun (k, v) -> k ^ "=" ^ v) d.inputs)))
      else None)
    (Raw_obs.Trace.decisions (Raw_obs.Trace.spans h))

let session_transcript budget =
  let csv, jsonl = Lazy.force session_files in
  let db = Raw_db.create ~config:{ Config.default with Config.memory_budget = Some budget } () in
  Raw_db.register_csv db ~name:"c" ~path:csv
    ~columns:(List.map (fun c -> (c, Dtype.Int)) [ "a"; "b"; "c"; "d"; "e"; "f" ])
    ();
  Raw_db.register_jsonl db ~name:"j" ~path:jsonl
    ~columns:[ ("f0", Dtype.Int); ("f1", Dtype.Int); ("f2", Dtype.Int) ];
  let cache = Raw_db.stmt_cache db in
  Printf.sprintf "budget %d" budget
  :: List.concat
       (List.mapi
          (fun i q ->
            let h = Raw_obs.Trace.create () in
            let before = Io_stats.snapshot () in
            let r =
              Raw_obs.Trace.with_handle h (fun () ->
                  let r = Raw_db.query db q in
                  Stmt_cache.put_result cache (Raw_db.catalog db)
                    ~key:(Printf.sprintf "q%d" i) ~tables:[] r.Executor.chunk
                    r.Executor.schema;
                  r)
            in
            let dropped snap =
              Option.value (List.assoc_opt "obs.decisions_dropped" snap) ~default:0.
            in
            if dropped (Io_stats.snapshot ()) > dropped before then
              Alcotest.failf "%s: decisions dropped" q;
            let rows =
              List.init (Chunk.n_rows r.Executor.chunk) (fun k ->
                  String.concat "," (List.map Value.to_string (Chunk.row r.Executor.chunk k)))
            in
            (Printf.sprintf "q%d %s -> %s" i q (String.concat " | " rows)
            :: gov_deltas before (Io_stats.snapshot ()))
            @ eviction_decisions h)
          session_queries)

let budget_session_tests =
  [
    Alcotest.test_case "tight-budget session matches its golden transcript"
      `Quick (fun () ->
        let actual = List.concat_map session_transcript session_budgets in
        let expected =
          In_channel.with_open_text "golden/budget_session.txt" In_channel.input_lines
        in
        if actual <> expected then begin
          Out_channel.with_open_text "budget_session.actual" (fun oc ->
              List.iter (fun l -> output_string oc (l ^ "\n")) actual);
          let rec first_diff k = function
            | e :: es, a :: as_ when e = a -> first_diff (k + 1) (es, as_)
            | e :: _, a :: _ -> Printf.sprintf "line %d: expected %S, got %S" k e a
            | [], a :: _ -> Printf.sprintf "line %d: unexpected %S" k a
            | e :: _, [] -> Printf.sprintf "line %d: missing %S" k e
            | [], [] -> "no difference"
          in
          Alcotest.failf "transcript differs (%s); actual in %s" (first_diff 1 (expected, actual))
            (Filename.concat (Sys.getcwd ()) "budget_session.actual")
        end;
        (* every consumer must have evicted somewhere in the session *)
        List.iter
          (fun c ->
            Alcotest.(check bool)
              (c ^ " evicted") true
              (List.exists
                 (String.starts_with ~prefix:("  gov.evictions." ^ c ^ " "))
                 actual))
          [ "results"; "shreds"; "templates"; "posmaps"; "file_pages" ]);
  ]

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let admission_tests =
  [
    Alcotest.test_case "full gate rejects with typed Overloaded" `Quick
      (fun () ->
        let config = { Config.default with Config.max_concurrent = Some 1 } in
        let db = grid_csv_db ~config ~n:50 ~m:3 () in
        let rej0 = Io_stats.get "gov.rejections" in
        Raw_db.with_admission db ~cancel:Cancel.never (fun () ->
            match Raw_db.query db "SELECT COUNT(*) FROM t" with
            | (_ : Executor.report) -> Alcotest.fail "expected Overloaded"
            | exception Resource_error.Overloaded { active; limit } ->
              Alcotest.(check int) "active" 1 active;
              Alcotest.(check int) "limit" 1 limit);
        Alcotest.(check int) "rejection counted" 1
          (Io_stats.get "gov.rejections" - rej0);
        (* the slot was released: admitted again *)
        check_value "recovered" (Value.Int 50)
          (Raw_db.scalar db "SELECT COUNT(*) FROM t"));
    Alcotest.test_case "cancelled while queued: typed error, zero progress"
      `Quick (fun () ->
        (* the gate admits two, but the execution lock is held by the
           occupant — the queued query's pre-tripped token fires during the
           cancel-aware lock wait, before it ever runs *)
        let config = { Config.default with Config.max_concurrent = Some 2 } in
        let db = grid_csv_db ~config ~n:50 ~m:3 () in
        Raw_db.with_admission db ~cancel:Cancel.never (fun () ->
            let cancel = Cancel.create () in
            Cancel.cancel cancel;
            match Raw_db.query ~cancel db "SELECT COUNT(*) FROM t" with
            | (_ : Executor.report) -> Alcotest.fail "expected Cancelled"
            | exception Resource_error.Cancelled p ->
              Alcotest.(check int) "never ran" 0 p.Resource_error.rows_scanned);
        check_value "gate recovered" (Value.Int 50)
          (Raw_db.scalar db "SELECT COUNT(*) FROM t"));
    Alcotest.test_case "deadline expires while queued: Deadline_exceeded"
      `Quick (fun () ->
        let config = { Config.default with Config.max_concurrent = Some 2 } in
        let db = grid_csv_db ~config ~n:50 ~m:3 () in
        Raw_db.with_admission db ~cancel:Cancel.never (fun () ->
            let cancel = Cancel.create ~deadline_seconds:1e-9 () in
            Unix.sleepf 0.002;
            match Raw_db.query ~cancel db "SELECT COUNT(*) FROM t" with
            | (_ : Executor.report) ->
              Alcotest.fail "expected Deadline_exceeded"
            | exception Resource_error.Deadline_exceeded p ->
              Alcotest.(check int) "never ran" 0 p.Resource_error.rows_scanned));
    Alcotest.test_case "no gate configured: with_admission is identity"
      `Quick (fun () ->
        let db = grid_csv_db ~n:20 ~m:3 () in
        let v =
          Raw_db.with_admission db ~cancel:Cancel.never (fun () ->
              Raw_db.with_admission db ~cancel:Cancel.never (fun () -> 42))
        in
        Alcotest.(check int) "nested freely" 42 v);
  ]

(* ------------------------------------------------------------------ *)
(* Configuration validation                                            *)
(* ------------------------------------------------------------------ *)

let config_tests =
  let bad_knobs =
    [
      ("parallelism", { Config.default with Config.parallelism = 0 });
      ("chunk_rows", { Config.default with Config.chunk_rows = 0 });
      ("compile_seconds", { Config.default with Config.compile_seconds = -1. });
      ( "shred_pool_columns",
        { Config.default with Config.shred_pool_columns = 0 } );
      ( "page_size",
        {
          Config.default with
          Config.mmap =
            { Mmap_file.Config.default with Mmap_file.Config.page_size = 0 };
        } );
      ( "io_seconds_per_page",
        {
          Config.default with
          Config.mmap =
            {
              Mmap_file.Config.default with
              Mmap_file.Config.io_seconds_per_page = -1.;
            };
        } );
      ( "residency_capacity",
        {
          Config.default with
          Config.mmap =
            {
              Mmap_file.Config.default with
              Mmap_file.Config.residency_capacity = Some 0;
            };
        } );
      ("deadline", { Config.default with Config.deadline = Some 0. });
      ("deadline", { Config.default with Config.deadline = Some (-2.) });
      ("memory_budget", { Config.default with Config.memory_budget = Some 0 });
      ( "memory_budget",
        { Config.default with Config.memory_budget = Some (-4096) } );
      ("max_concurrent", { Config.default with Config.max_concurrent = Some 0 });
    ]
  in
  [
    Alcotest.test_case "default config validates" `Quick (fun () ->
        match Config.validate Config.default with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "default rejected: %s" msg);
    Alcotest.test_case "every bad knob rejected, named in the message" `Quick
      (fun () ->
        List.iter
          (fun (knob, config) ->
            match Config.validate config with
            | Ok _ -> Alcotest.failf "bad %s accepted" knob
            | Error msg ->
              Alcotest.(check bool)
                (Printf.sprintf "%S names the knob" msg)
                true (contains msg knob))
          bad_knobs);
    Alcotest.test_case "construction raises typed Invalid_config" `Quick
      (fun () ->
        let config = { Config.default with Config.parallelism = -3 } in
        match Raw_db.create ~config () with
        | (_ : Raw_db.t) -> Alcotest.fail "expected Invalid_config"
        | exception Resource_error.Invalid_config msg ->
          Alcotest.(check bool) "names parallelism" true
            (contains msg "parallelism"));
  ]

let suites =
  [
    ("governance:cancel", cancel_unit_tests);
    ("governance:deadline", deadline_tests);
    ("governance:cancellation", cancellation_tests);
    ("governance:budget", budget_unit_tests);
    ("governance:pressure", pressure_tests);
    ("governance:index_eviction", index_eviction_tests);
    ("governance:budget_session", budget_session_tests);
    ("governance:row_index_budget", row_index_budget_tests);
    ("governance:admission", admission_tests);
    ("governance:config", config_tests);
  ]
