(* E22 — governance overhead on unconstrained queries, and the stress mix.

   The governance layer (deadline tokens, memory-budget reservations,
   admission control) must be close to free when its limits are generous:
   an inactive Cancel token costs one dead branch per row batch, budget
   probes run only inside reserve (a handful of times per query), and the
   admission gate is two mutex-protected integer updates per query. E22
   quantifies that claim: the same cold and warm scans with governance off
   versus governance armed-but-unconstrained, targeting <= 2% overhead.

   The stress entry is the robustness counterpart: a concurrent query mix
   under a tight budget, aggressive deadlines and a small admission gate,
   at fixed data seeds. Every outcome must be a result or a typed
   governance/data error — any other exception is a bug and exits
   nonzero, and so does a run in which the budget evicted nothing. CI
   runs it under a hard timeout so a hang is also a failure. *)

open Raw_core
open Raw_storage
open Bench_util

let q_cold = "SELECT MAX(col0) FROM t30"
let q_warm = "SELECT SUM(col1) FROM t30 WHERE col0 < 500000000"

(* Generous limits: armed, never binding. The budget is far above the
   engine's whole adaptive state; the deadline is an hour. *)
let governed_config =
  {
    Config.default with
    Config.deadline = Some 3600.;
    memory_budget = Some (1 lsl 30);
    max_concurrent = Some 64;
  }

let cold_seconds db =
  min_of ~reps:5 (fun () ->
      Raw_db.forget_data_state db;
      Raw_db.drop_file_caches db;
      let t0 = Unix.gettimeofday () in
      ignore (run db (opts ()) q_cold);
      Unix.gettimeofday () -. t0)

let warm_seconds db =
  (* shreds and posmap in place; measures the per-row tick in fetch paths *)
  ignore (run db (opts ()) q_warm);
  min_of ~reps:5 (fun () ->
      let t0 = Unix.gettimeofday () in
      ignore (run db (opts ()) q_warm);
      Unix.gettimeofday () -. t0)

let e22 () =
  header "E22 — governance overhead when armed but unconstrained"
    "Cold and warm 30-column scans, governance off (the baseline) vs armed\n\
     with generous limits (1h deadline, 1 GiB budget, 64-query gate).\n\
     Target: <= 2% — inactive cancel checks are a dead branch, budget\n\
     probes only run inside reserve, admission is two counter updates.";
  let base = db_q30 () in
  let gov = db_q30 ~config:governed_config () in
  ignore (run base (opts ()) q_cold);
  ignore (run gov (opts ()) q_cold);
  (* data generation and first-touch allocation are off the clock *)
  let cold_base = cold_seconds base in
  let cold_gov = cold_seconds gov in
  let warm_base = warm_seconds base in
  let warm_gov = warm_seconds gov in
  let pct a b = 100. *. ((b /. a) -. 1.) in
  print_rows
    ~columns:[ "wall(s)"; "vs base(%)" ]
    [
      ("cold, ungoverned", [ cold_base; 0. ]);
      ("cold, governed", [ cold_gov; pct cold_base cold_gov ]);
      ("warm, ungoverned", [ warm_base; 0. ]);
      ("warm, governed", [ warm_gov; pct warm_base warm_gov ]);
    ];
  let worst = Float.max (pct cold_base cold_gov) (pct warm_base warm_gov) in
  if worst > 2.0 then
    Printf.printf "WARNING: governance overhead %.2f%% exceeds the 2%% target\n"
      worst
  else Printf.printf "governance overhead within the 2%% target (worst %.2f%%)\n" worst

(* ------------------------------------------------------------------ *)
(* Stress: concurrent mix under tight governance                       *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable ok : int;
  mutable deadline : int;
  mutable overloaded : int;
  mutable data_error : int;
  mutable unexpected : string list;
}

let stress_queries =
  [|
    "SELECT MAX(col0) FROM t30";
    "SELECT SUM(col1) FROM t30 WHERE col0 < 500000000";
    "SELECT COUNT(*) FROM t30";
    "SELECT MIN(col3) FROM t30 WHERE col0 >= 100000000";
    "SELECT col0, col2 FROM t30 WHERE col0 < 10000000";
  |]

let stress () =
  header "STRESS — concurrent query mix under tight governance"
    "Worker domains hammer the 30-column table through one engine with a\n\
     small memory budget, aggressive per-query deadlines and a bounded\n\
     admission gate (fixed data seed). Contract: every query either\n\
     returns, or raises a typed governance error — anything else (crash,\n\
     corruption, hang under CI's timeout) fails the run.";
  let config =
    {
      Config.default with
      Config.parallelism = 2;
      memory_budget = Some (256 * 1024);
      deadline = Some 0.05;
      max_concurrent = Some 3;
    }
  in
  let db = db_q30 ~config () in
  (* data generation off the clock; the warm-up may itself deadline *)
  (match run db (opts ()) q_cold with
  | (_ : Executor.report) -> ()
  | exception Resource_error.Deadline_exceeded _ -> ());
  let n_workers = 4 and iters = 20 in
  let worker wid () =
    let t =
      { ok = 0; deadline = 0; overloaded = 0; data_error = 0; unexpected = [] }
    in
    for i = 0 to iters - 1 do
      let q = stress_queries.((wid + i) mod Array.length stress_queries) in
      match Raw_db.query db q with
      | (_ : Executor.report) -> t.ok <- t.ok + 1
      | exception Resource_error.Deadline_exceeded _ ->
        t.deadline <- t.deadline + 1
      | exception Resource_error.Cancelled _ -> t.deadline <- t.deadline + 1
      | exception Resource_error.Overloaded _ ->
        t.overloaded <- t.overloaded + 1;
        Domain.cpu_relax ()
      | exception Scan_errors.Error _ -> t.data_error <- t.data_error + 1
      | exception e ->
        t.unexpected <- Printexc.to_string e :: t.unexpected
    done;
    (t, Io_stats.snapshot ())
  in
  let domains =
    List.init n_workers (fun wid -> Domain.spawn (worker wid))
  in
  let results = List.map Domain.join domains in
  let sum f = List.fold_left (fun acc (t, _) -> acc + f t) 0 results in
  List.iter (fun (_, snap) -> Io_stats.merge snap) results;
  print_rows ~columns:[ "count" ]
    [
      ("completed", [ float_of_int (sum (fun t -> t.ok)) ]);
      ("deadline/cancelled", [ float_of_int (sum (fun t -> t.deadline)) ]);
      ("overloaded", [ float_of_int (sum (fun t -> t.overloaded)) ]);
      ("data errors", [ float_of_int (sum (fun t -> t.data_error)) ]);
      ("gov.evicted_bytes", [ float_of_int (Io_stats.get "gov.evicted_bytes") ]);
      ("gov.rejections", [ float_of_int (Io_stats.get "gov.rejections") ]);
      ( "gov.fallbacks.streaming",
        [ float_of_int (Io_stats.get "gov.fallbacks.streaming") ] );
    ];
  let bad = List.concat_map (fun (t, _) -> t.unexpected) results in
  let total = sum (fun t -> t.ok + t.deadline + t.overloaded + t.data_error) in
  if bad <> [] then begin
    Printf.printf "FAIL: %d unexpected exception(s):\n" (List.length bad);
    List.iter (Printf.printf "  %s\n") bad;
    exit 1
  end;
  assert (total = n_workers * iters);
  (* the budget is far below the working set: a run that evicts nothing
     means eviction stopped working, not that it was unneeded *)
  if Io_stats.get "gov.evicted_bytes" = 0 then begin
    print_endline "FAIL: nothing evicted under a 256 KiB budget";
    exit 1
  end;
  Printf.printf "stress ok: %d queries, every outcome typed\n" total
