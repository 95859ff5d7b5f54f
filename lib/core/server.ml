(* See server.mli. Threading model: systhreads (one per session + one
   batcher), which share the domain's runtime lock — sessions block on
   socket I/O, the batcher does the engine work, and morsel parallelism
   inside a query still fans out to domains as usual. Two kinds of
   thread touch the engine, each only under the engine mutex [t.engine]:
   a session thread for its bind, refresh and result-cache lookup, and
   the batcher across a whole batch. So the adaptive state keeps one
   writer at a time, and a cache hit cannot overlap an invalidation.

   All session and client I/O goes through nonblocking fds with
   select-based deadlines (Line_reader / write_all below) rather than
   stdlib channels: input_line on a channel has no length bound and no
   timeout, which is exactly the pair of holes a hostile client needs. *)

open Raw_vector
open Raw_storage
module Metrics = Raw_obs.Metrics
module Jsons = Raw_obs.Jsons
module Trace = Raw_obs.Trace
module Export = Raw_obs.Export
module Prof = Raw_obs.Prof
module Window = Raw_obs.Window

(* ------------------------------------------------------------------ *)
(* Deadline-bounded fd I/O                                             *)
(* ------------------------------------------------------------------ *)

module Line_reader = struct
  type result =
    | Line of string
    | Too_large
    | Eof of [ `Clean | `Mid_request ]
    | Timed_out of [ `Idle | `Request ]
    | Io_error of string

  type t = {
    fd : Unix.file_descr;
    max_bytes : int;
    idle_timeout : float option;
    request_timeout : float option;
    mutable pending : string; (* bytes received but not yet consumed *)
    mutable req_start : float;
        (* when the most recently returned line's first byte arrived —
           the "read" edge of that request's lifecycle *)
  }

  let make fd ~max_bytes ~idle_timeout ~request_timeout =
    {
      fd;
      max_bytes;
      idle_timeout;
      request_timeout;
      pending = "";
      req_start = 0.;
    }

  let chunk_size = 65536

  (* One call = one line (or a terminal condition). The newline scan runs
     before the length check so a line of exactly [max_bytes] is accepted
     even when it arrives batched with following bytes; only once the
     buffer exceeds [max_bytes] with no newline in sight do we drop it
     and drain to the next newline — user-space memory stays bounded by
     [max_bytes + chunk_size] no matter what the peer sends. The idle
     deadline runs from the start of the wait, the request deadline from
     the request's first byte, so a one-byte-per-second drip trips one or
     the other. *)
  let next t =
    let start = Unix.gettimeofday () in
    let first_byte = ref (if t.pending = "" then None else Some start) in
    let overflowed = ref false in
    let rec refill () =
      let now = Unix.gettimeofday () in
      let limit, phase =
        match !first_byte with
        | None -> (Option.map (fun s -> start +. s) t.idle_timeout, `Idle)
        | Some tb -> (Option.map (fun s -> tb +. s) t.request_timeout, `Request)
      in
      match limit with
      | Some d when now >= d -> Timed_out phase
      | _ -> (
        let tick =
          match limit with
          | None -> 0.5
          | Some d -> Float.min 0.5 (Float.max 0. (d -. now))
        in
        match Unix.select [ t.fd ] [] [] tick with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill ()
        | [], _, _ -> refill ()
        | _ -> (
          let bytes = Bytes.create chunk_size in
          match Unix.read t.fd bytes 0 chunk_size with
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            refill ()
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
            ->
            Eof (if t.pending = "" && not !overflowed then `Clean else `Mid_request)
          | exception Unix.Unix_error (e, _, _) ->
            Io_error (Unix.error_message e)
          | 0 ->
            Eof (if t.pending = "" && not !overflowed then `Clean else `Mid_request)
          | n ->
            if !first_byte = None then first_byte := Some (Unix.gettimeofday ());
            t.pending <- t.pending ^ Bytes.sub_string bytes 0 n;
            scan ()))
    and scan () =
      match String.index_opt t.pending '\n' with
      | Some i ->
        let line = String.sub t.pending 0 i in
        let line =
          if i > 0 && line.[i - 1] = '\r' then String.sub line 0 (i - 1)
          else line
        in
        t.pending <-
          String.sub t.pending (i + 1) (String.length t.pending - i - 1);
        t.req_start <- (match !first_byte with Some tb -> tb | None -> start);
        if !overflowed || String.length line > t.max_bytes then Too_large
        else Line line
      | None ->
        if String.length t.pending > t.max_bytes then begin
          overflowed := true;
          t.pending <- ""
        end;
        refill ()
    in
    scan ()
end

(* Write the whole string or say why not; a peer that stops reading runs
   into the deadline instead of wedging the writer forever. *)
let write_all fd s ~timeout =
  let deadline = Option.map (fun t -> Unix.gettimeofday () +. t) timeout in
  let len = String.length s in
  let rec go off =
    if off >= len then Ok ()
    else
      let now = Unix.gettimeofday () in
      match deadline with
      | Some d when now >= d -> Error "write timed out"
      | _ -> (
        let tick =
          match deadline with
          | None -> 0.5
          | Some d -> Float.min 0.5 (Float.max 0. (d -. now))
        in
        match Unix.select [] [ fd ] [] tick with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | _, [], _ -> go off
        | _ -> (
          match Unix.write_substring fd s off (len - off) with
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            go off
          | exception Unix.Unix_error (e, _, _) ->
            Error (Unix.error_message e)
          | n -> go (off + n)))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Rows of {
      chunk : Chunk.t;
      schema : Schema.t;
      seconds : float;
      cached : bool;
      shared : bool;
      approx : Approx.info option;
    }
  | Err of {
      code : int;
      kind : string option;
      message : string;
      retry_after : float option;
    }

let err ?kind ?retry_after code message = Err { code; kind; message; retry_after }

(* Per-request lifecycle breakdown, filled in as the request moves from
   the session thread to the batcher and back; returned to the client as
   the response's "timing" object. *)
type req_timing = {
  read_s : float; (* first request byte -> line parsed *)
  mutable queue_s : float; (* submit -> batch pickup; 0 when not queued *)
  mutable exec_s : float; (* engine time (execute / shared scan; 0 cached) *)
}

(* A result-cache miss, bound on the session thread, waiting for a batch *)
type pending = {
  plan : Logical.t;
  submitted : float;
  (* trace handle + pre-allocated root ("session") span id, when request
     tracing is on: the batcher records queue-wait/batch/execute spans
     under the root, the session thread closes the root after the write *)
  trace : (Trace.handle * int) option;
  timing : req_timing;
  pm : Mutex.t;
  pc : Condition.t;
  mutable outcome : outcome option;
}

(* The N slowest recent request traces, kept for the [{"op":"trace"}]
   op. Insert-time eviction: entries older than [max_age] fall out, then
   the slowest [cap] survive — so the ring answers "where did recent slow
   requests spend their time", not "what was slow since boot". *)
module Trace_ring = struct
  type entry = {
    sql : string;
    session : int;
    total_s : float;
    captured : float; (* absolute completion time *)
    spans : Trace.span list;
  }

  type t = {
    mutex : Mutex.t;
    cap : int;
    max_age : float;
    mutable entries : entry list; (* slowest first, length <= cap *)
  }

  let create ~cap = { mutex = Mutex.create (); cap; max_age = 300.; entries = [] }

  let offer t e =
    if t.cap > 0 then
      Mutex.protect t.mutex (fun () ->
          let live =
            List.filter
              (fun x -> e.captured -. x.captured <= t.max_age)
              t.entries
          in
          let by_slowest a b = compare b.total_s a.total_s in
          t.entries <-
            List.filteri
              (fun i _ -> i < t.cap)
              (List.stable_sort by_slowest (e :: live)))

  let snapshot t ~now =
    Mutex.protect t.mutex (fun () ->
        List.filter (fun x -> now -. x.captured <= t.max_age) t.entries)
end

(* The latest armor events (shed, reap, too-large, watchdog, shared-scan
   fallback) as (site, choice, inputs), for the [stats] op: a fixed ring,
   so the newest event always shows however long the server has run. *)
module Armor = struct
  type t = {
    mutex : Mutex.t;
    ring : (string * string * (string * string) list) array;
    mutable n : int; (* events recorded since start *)
  }

  let create () = { mutex = Mutex.create (); ring = Array.make 32 ("", "", []); n = 0 }

  let record t ~site ~choice inputs =
    Mutex.protect t.mutex (fun () ->
        t.ring.(t.n mod Array.length t.ring) <- (site, choice, inputs);
        t.n <- t.n + 1)

  (* oldest first *)
  let recent t =
    Mutex.protect t.mutex (fun () ->
        let cap = Array.length t.ring in
        let k = min t.n cap in
        List.init k (fun i -> t.ring.((t.n - k + i) mod cap)))
end

(* A session's next request is read only after its reply is written, so
   the queue holds at most one request per session and the session cap
   already bounds it. This bounds it when the cap is off or set above
   it: four times the default cap of 256. *)
let max_pending = 1024

type t = {
  db : Raw_db.t;
  batch_window : float;
  cache_results : bool;
  (* armor knobs, copied out of the db's Config at serve time *)
  max_request_bytes : int;
  request_timeout : float option;
  idle_timeout : float option;
  max_sessions : int option;
  (* telemetry knobs, also from Config *)
  telemetry_tick : float;
  trace_retain : int;
  started : float;
  window : Window.t; (* ring of periodic counter snapshots *)
  traces : Trace_ring.t; (* slowest recent request traces *)
  armor : Armor.t; (* always-on armor audit log *)
  engine : Mutex.t;
      (* held by the batcher across a batch, and by a session thread
         across its bind, refresh and result-cache lookup *)
  qm : Mutex.t;
  qc : Condition.t;
  mutable queue : pending list; (* newest first *)
  mutable stopping : bool;
  mutable session_fds : (int * Unix.file_descr) list;
}

(* the hint we attach to shed responses: long enough to clear a batch
   window, never silly-small *)
let retry_hint t = Float.max (4. *. t.batch_window) 0.05

(* ------------------------------------------------------------------ *)
(* Outcomes                                                            *)
(* ------------------------------------------------------------------ *)

(* Error codes mirror the CLI exit codes (bin/rawq.ml): 1 parse/bind,
   2 bad request, 3 data error, 4 deadline/cancelled, 5 overloaded. *)
let outcome_of_exn = function
  | Raw_sql.Parser.Error msg -> err 1 ("parse error: " ^ msg)
  | Sql_binder.Bind_error msg -> err 1 ("bind error: " ^ msg)
  | Scan_errors.Error e ->
    err 3
      (Printf.sprintf "data error: %s at byte %d" e.Scan_errors.cause
         e.Scan_errors.offset)
  | Resource_error.Deadline_exceeded _ -> err 4 "deadline exceeded"
  | Resource_error.Cancelled _ -> err 4 "cancelled"
  | Resource_error.Overloaded { active; limit } ->
    (* admission rejects before executing anything, so a retry is safe *)
    err ~kind:"overloaded" ~retry_after:0.05 5
      (Printf.sprintf "overloaded: %d active (limit %d); retry later" active
         limit)
  | e -> err 3 (Printexc.to_string e)

(* idempotent: the first outcome wins, so the watchdog can fail a whole
   batch without ever double-answering a member already answered *)
let fulfill p o =
  Mutex.protect p.pm (fun () ->
      if p.outcome = None then begin
        p.outcome <- Some o;
        Condition.signal p.pc
      end)

let await p =
  Mutex.protect p.pm (fun () ->
      while p.outcome = None do
        Condition.wait p.pc p.pm
      done;
      Option.get p.outcome)

(* ------------------------------------------------------------------ *)
(* Result cache and batch processing                                   *)
(* ------------------------------------------------------------------ *)

(* The result-cache key of [plan] as the engine now sees its files, or
   None when results are not cached. Approximate answers are sample
   artifacts, not facts about the file: they are never served from the
   result cache (a later identical query deserves a fresh — possibly
   exact — run) nor folded into a shared exact traversal (the whole
   point is to NOT scan everything). *)
let approx_on t = (Catalog.config (Raw_db.catalog t.db)).Config.approx <> None

let result_key t plan =
  if t.cache_results && not (approx_on t) then
    Stmt_cache.result_key (Raw_db.catalog t.db) plan
  else None

let try_put_result t plan key chunk schema =
  match key with
  | Some key when t.cache_results ->
    Stmt_cache.put_result (Raw_db.stmt_cache t.db) (Raw_db.catalog t.db) ~key
      ~tables:(Logical.tables plan) chunk schema
  | _ -> ()

(* The queue-wait edge of a request: one span and one histogram
   observation, 0 long for a request answered without queueing *)
let record_queue_wait trace timing ~submitted ~until =
  let q = Float.max 0. (until -. submitted) in
  timing.queue_s <- q;
  Metrics.observe Metrics.server_queue_seconds q;
  match trace with
  | Some (h, root) ->
    Trace.record h ~parent:root ~start:submitted ~dur:q "queue-wait"
  | None -> ()

(* Close a request's "batch" span: the child (execute / shared-scan /
   cached) is recorded first under a pre-allocated parent id, then the
   parent closes covering the cache check and execution. Must run before
   the outcome is handed over — after that, the session thread may
   export the tree at any moment. *)
let record_batch_span ?child trace ~t_batch =
  match trace with
  | None -> ()
  | Some (h, root) ->
    let batch_id = Trace.alloc h in
    (match child with
     | Some (name, start, dur) ->
       Trace.record h ~parent:batch_id ~start ~dur name
     | None -> ());
    Trace.record h ~id:batch_id ~parent:root ~start:t_batch
      ~dur:(Timing.now () -. t_batch) "batch"

(* One query through the ordinary path: its outcome, not yet answered *)
let execute t plan key =
  match Raw_db.run_plan t.db plan with
  | report ->
    try_put_result t plan key report.Executor.chunk report.Executor.schema;
    Rows
      {
        chunk = report.Executor.chunk;
        schema = report.Executor.schema;
        seconds = report.Executor.total_seconds;
        cached = false;
        shared = false;
        approx = report.Executor.approx;
      }
  | exception e -> outcome_of_exn e

let answer p ~t_batch ~child:((_, _, dur) as child) o =
  p.timing.exec_s <- dur;
  record_batch_span p.trace ~t_batch ~child;
  fulfill p o

let run_individual t ~t_batch (p, key) =
  let t0 = Timing.now () in
  let o = execute t p.plan key in
  answer p ~t_batch ~child:("execute", t0, Timing.now () -. t0) o

(* A group is one warm pass, then its members as ordinary queries whose
   fetches hit the warmed shred pool. Each member is answered with the
   group's wall time, the engine time it shared with the others. If the
   warm pass fails, the members simply run unshared. *)
let run_shared t ~t_batch members =
  let t0 = Timing.now () in
  match
    Cancel.with_current (Raw_db.fresh_cancel t.db) (fun () ->
        Shared_scan.warm (Raw_db.catalog t.db) (Raw_db.options t.db)
          (List.map (fun (p, _) -> p.plan) members))
  with
  | Ok () ->
    Metrics.incr Metrics.server_batches;
    Metrics.add Metrics.server_batched_queries (List.length members);
    let outcomes = List.map (fun (p, key) -> execute t p.plan key) members in
    let dur = Timing.now () -. t0 in
    List.iter2
      (fun (p, _) o ->
        answer p ~t_batch ~child:("shared-scan", t0, dur)
          (match o with
           | Rows r -> Rows { r with seconds = dur; shared = true }
           | Err _ -> o))
      members outcomes
  | Error e ->
    Metrics.incr Metrics.server_shared_fallbacks;
    Armor.record t.armor ~site:"server.shared_scan"
      ~choice:"fallback_individual"
      [
        ("members", string_of_int (List.length members));
        ("error", Printexc.to_string e);
      ];
    List.iter (run_individual t ~t_batch) members

(* Whether [plan] would read the raw file: only then can waiting for
   contemporaries lead to a shared read. Approximate answers never fold
   into a shared traversal. *)
let reads_raw t plan =
  (not (approx_on t))
  && Shared_scan.reads_raw (Raw_db.catalog t.db) (Raw_db.options t.db) plan

(* freshness: the files changed since they were opened extend or drop
   their per-file state here, so the shared pass reads the current bytes,
   each result is cached under the version it was computed from, and an
   invalidated file shows its columns as not in memory *)
let refresh t pendings =
  ignore
    (Raw_db.refresh_tables t.db
       (List.concat_map (fun p -> Logical.tables p.plan) pendings))

(* Runs on the batcher thread with the engine mutex held. Every member
   missed the result cache when its session looked it up. *)
let process_batch t batch =
  let t_batch = Timing.now () in
  (* queue-wait closes for the whole batch at pickup: one instant for
     every member *)
  List.iter
    (fun p ->
      record_queue_wait p.trace p.timing ~submitted:p.submitted ~until:t_batch)
    batch;
  refresh t batch;
  (* group by table; >= 2 members on one table share one traversal when
     it has something to read (approximate members never do) *)
  let groups : (string, (pending * string option) list) Hashtbl.t =
    Hashtbl.create 8
  in
  let singles = ref [] in
  List.iter
    (fun p ->
      let m = (p, result_key t p.plan) in
      match Shared_scan.shareable_table (Raw_db.options t.db) p.plan with
      | Some table ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt groups table) in
        Hashtbl.replace groups table (prev @ [ m ])
      | None -> singles := m :: !singles)
    batch;
  let shared_groups, lone =
    Hashtbl.fold (fun _ ms acc -> ms :: acc) groups []
    |> List.partition (fun ms ->
           List.length ms >= 2 && List.exists (fun (p, _) -> reads_raw t p.plan) ms)
  in
  List.iter (run_shared t ~t_batch) shared_groups;
  List.iter (run_individual t ~t_batch) (List.concat lone @ List.rev !singles)

(* Runs with the engine mutex held: whether a queued miss would read the
   raw file, after re-statting the queued files. A failure is left to the
   batch, which meets it again and answers it. *)
let needs_raw_read t =
  let queued = Mutex.protect t.qm (fun () -> t.queue) in
  match refresh t queued with
  | () -> List.exists (fun p -> reads_raw t p.plan) queued
  | exception _ -> false

(* Runs with the engine mutex held *)
let run_batch t =
  let batch =
    Mutex.protect t.qm (fun () ->
        let b = List.rev t.queue in
        t.queue <- [];
        b)
  in
  if batch <> [] then
    try process_batch t batch
    with e ->
      (* the batcher must survive anything: fail the batch, not the
         server *)
      let o = outcome_of_exn e in
      List.iter (fun p -> fulfill p o) batch

let batcher_loop t =
  let rec loop () =
    let proceed =
      Mutex.protect t.qm (fun () ->
          while t.queue = [] && not t.stopping do
            Condition.wait t.qc t.qm
          done;
          t.queue <> [])
    in
    if proceed then begin
      (* the batching window lets contemporaries join the batch, which
         pays only when one of them would read the raw file. The engine
         mutex is taken before the queue is drained: a miss queued by a
         lookup that held it joins this batch, and a lookup that waits
         for it sees this batch's results *)
      let wait =
        Mutex.protect t.engine (fun () ->
            if t.batch_window > 0. && needs_raw_read t then true
            else begin
              run_batch t;
              false
            end)
      in
      if wait then begin
        Thread.delay t.batch_window;
        Mutex.protect t.engine (fun () -> run_batch t)
      end;
      loop ()
    end
    (* stopping and drained: exit *)
  in
  loop ()

(* Watchdog around the batcher: if anything escapes the per-batch guard
   above (it should not, but the serving tier assumes it will), fail the
   orphaned requests, count the restart, and relaunch the loop — the
   process never dies with client requests parked on the queue. *)
let rec batcher_supervisor t =
  match batcher_loop t with
  | () -> ()
  | exception e ->
    Metrics.incr Metrics.server_batcher_restarts;
    Armor.record t.armor ~site:"server.watchdog"
      ~choice:"batcher_restart"
      [ ("error", Printexc.to_string e) ];
    Printf.eprintf "rawq serve: batcher restarted after: %s\n%!"
      (Printexc.to_string e);
    let orphans =
      Mutex.protect t.qm (fun () ->
          let q = t.queue in
          t.queue <- [];
          q)
    in
    let o = outcome_of_exn e in
    List.iter (fun p -> fulfill p o) orphans;
    if not (Mutex.protect t.qm (fun () -> t.stopping)) then batcher_supervisor t

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)
(* ------------------------------------------------------------------ *)

let json_of_value = function
  | Value.Int n -> Jsons.Int n
  | Value.Float f -> Jsons.Float f
  | Value.Bool b -> Jsons.Bool b
  | Value.String s -> Jsons.Str s
  | Value.Null -> Jsons.Null

(* non-finite band values (a zero estimate makes [relative] infinite)
   must not leak into the wire JSON *)
let fin f = if Float.is_finite f then Jsons.Float f else Jsons.Null

let json_of_approx (info : Approx.info) =
  Jsons.Obj
    [
      ("eps", Jsons.Float info.Approx.eps);
      ("seed", Jsons.Int info.Approx.seed);
      ("exact", Jsons.Bool info.Approx.exact);
      ("fraction", Jsons.Float (Approx.fraction info));
      ("morsels_sampled", Jsons.Int info.Approx.morsels_sampled);
      ("morsels_total", Jsons.Int info.Approx.morsels_total);
      ("rows_sampled", Jsons.Int info.Approx.rows_sampled);
      ("rows_total", Jsons.Int info.Approx.rows_total);
      ( "aggs",
        Jsons.List
          (List.map
             (fun (b : Approx.band) ->
               Jsons.Obj
                 [
                   ("name", Jsons.Str b.Approx.name);
                   ("estimate", fin b.Approx.estimate);
                   ("bound", fin b.Approx.half_width);
                   ("relative", fin b.Approx.relative);
                 ])
             info.Approx.bands) );
    ]

(* The breakdown a client sees without asking for the full trace:
   [total_s] runs from the request's first byte to response serialization
   (the write itself cannot appear in its own response; it lives in the
   retained trace as the "write" span). *)
let timing_json (tm, total_s) =
  ( "timing",
    Jsons.Obj
      [
        ("read_s", Jsons.Float tm.read_s);
        ("queue_s", Jsons.Float tm.queue_s);
        ("execute_s", Jsons.Float tm.exec_s);
        ("total_s", Jsons.Float total_s);
      ] )

let response_of_outcome ?timing id = function
  | Rows { chunk; schema; seconds; cached; shared; approx } ->
    let fields = Schema.fields schema in
    Jsons.Obj
      ([
        ("id", id);
        ("ok", Jsons.Bool true);
        ( "columns",
          Jsons.List
            (List.map (fun (f : Schema.field) -> Jsons.Str f.name) fields) );
        ( "types",
          Jsons.List
            (List.map
               (fun (f : Schema.field) -> Jsons.Str (Dtype.to_string f.dtype))
               fields) );
        ( "rows",
          Jsons.List
            (List.init (Chunk.n_rows chunk) (fun i ->
                 Jsons.List (List.map json_of_value (Chunk.row chunk i)))) );
        ("row_count", Jsons.Int (Chunk.n_rows chunk));
        ("seconds", Jsons.Float seconds);
        ("cached", Jsons.Bool cached);
        ("shared", Jsons.Bool shared);
      ]
      @ (match approx with
         | None -> []
         | Some info -> [ ("approx", json_of_approx info) ])
      @ match timing with None -> [] | Some tm -> [ timing_json tm ])
  | Err { code; kind; message; retry_after } ->
    Metrics.incr Metrics.server_errors;
    Jsons.Obj
      ([
        ("id", id);
        ("ok", Jsons.Bool false);
        ("code", Jsons.Int code);
        ("error", Jsons.Str message);
      ]
      @ (match kind with None -> [] | Some k -> [ ("kind", Jsons.Str k) ])
      @ (match retry_after with
         | None -> []
         | Some s -> [ ("retry_after", Jsons.Float s) ])
      @ match timing with None -> [] | Some tm -> [ timing_json tm ])

(* Bind, refresh and look the result up on the session thread, under
   the engine mutex. A bind error or a result-cache hit is answered at
   once, with no queue wait; only a miss is queued for the batcher, and
   so only misses wait for the batch window. *)
let submit t session_id ~trace ~timing sql =
  let submitted = Timing.now () in
  let answer_now ?child o =
    record_queue_wait trace timing ~submitted ~until:submitted;
    record_batch_span ?child trace ~t_batch:submitted;
    o
  in
  let enqueue plan =
    let p =
      {
        plan;
        submitted;
        trace;
        timing;
        pm = Mutex.create ();
        pc = Condition.create ();
        outcome = None;
      }
    in
    Mutex.protect t.qm (fun () ->
        if t.stopping then `Stopping
        else if List.length t.queue >= max_pending then `Full
        else begin
          t.queue <- p :: t.queue;
          Condition.signal t.qc;
          `Queued p
        end)
  in
  let look_up () =
    let plan = Raw_db.bind_cached t.db sql in
    (* freshness: a changed raw file drops the table's cached statements
       and results before the lookup, so a hit never serves stale bytes.
       The miss that follows brings the per-file state up to date on the
       batcher, which allocates every other engine structure too; settled
       here, the grown structures would land in each session thread's own
       malloc arena and raise peak RSS (DESIGN.md §10). *)
    List.iter
      (Stmt_cache.invalidate_table (Raw_db.stmt_cache t.db))
      (Raw_db.stale_tables t.db (Logical.tables plan));
    match
      Option.bind (result_key t plan)
        (Stmt_cache.find_result (Raw_db.stmt_cache t.db))
    with
    | Some hit -> `Hit hit
    | None -> `Miss plan
  in
  let looked_up =
    Mutex.protect t.engine (fun () ->
        match look_up () with
        | exception e -> `Answer (answer_now (outcome_of_exn e))
        | `Hit (chunk, schema) ->
          `Answer
            (answer_now ~child:("cached", Timing.now (), 0.)
               (Rows
                  {
                    chunk;
                    schema;
                    seconds = 0.;
                    cached = true;
                    shared = false;
                    approx = None;
                  }))
        | `Miss plan -> enqueue plan)
  in
  match looked_up with
  | `Answer o -> o
  | `Queued p -> await p
  | `Stopping -> err ~kind:"shutting_down" 5 "server is shutting down"
  | `Full ->
    Metrics.incr Metrics.server_shed_requests;
    Armor.record t.armor ~site:"server.shed" ~choice:"queue_full"
      [
        ("session", string_of_int session_id);
        ("max_pending", string_of_int max_pending);
      ];
    err ~kind:"overloaded" ~retry_after:(retry_hint t) 5
      (Printf.sprintf "overloaded: %d requests queued; retry later"
         max_pending)

(* p50/p95/p99 of a (possibly delta) snapshot; keys omitted when the
   histogram is empty there, so "p99 present" means "requests happened". *)
let percentile_fields snap =
  List.filter_map
    (fun (name, q) ->
      Option.map
        (fun v -> (name, Jsons.Float v))
        (Metrics.quantile_of_snapshot snap Metrics.server_request_seconds ~q))
    [ ("p50", 0.5); ("p95", 0.95); ("p99", 0.99) ]

let stats_response t id =
  (* one snapshot feeds every cumulative figure in the response, so a
     client diffing successive stats (rawq top) never sees one counter
     from before a batch and another from after it *)
  let snap = Io_stats.snapshot () in
  let now = Timing.now () in
  let interesting (k, _) =
    String.starts_with ~prefix:"server." k
    || String.starts_with ~prefix:"cache." k
    || String.starts_with ~prefix:"catalog." k
    || String.starts_with ~prefix:"gov." k
    || String.starts_with ~prefix:"history." k
  in
  let lookup_delta d k =
    match List.assoc_opt k d with Some v -> v | None -> 0.
  in
  let windows =
    if t.telemetry_tick <= 0. then []
    else
      List.filter_map
        (fun w ->
          match Window.delta t.window ~window:w with
          | None -> None
          | Some (elapsed, d) when elapsed > 0. ->
            let requests = lookup_delta d "server.requests" in
            Some
              ( Printf.sprintf "%gs" w,
                Jsons.Obj
                  ([
                     ("seconds", Jsons.Float elapsed);
                     ("requests", Jsons.Float requests);
                     ("qps", Jsons.Float (requests /. elapsed));
                   ]
                  @ percentile_fields d) )
          | Some _ -> None)
        Window.standard_windows
  in
  let sessions_active =
    Mutex.protect t.qm (fun () -> List.length t.session_fds)
  in
  Jsons.Obj
    [
      ("id", id);
      ("ok", Jsons.Bool true);
      ("op", Jsons.Str "stats");
      ("uptime_s", Jsons.Float (now -. t.started));
      ("sessions_active", Jsons.Int sessions_active);
      ( "counters",
        Jsons.Obj
          (snap
          |> List.filter interesting
          |> List.map (fun (k, v) -> (k, Jsons.Float v))) );
      ( "latency",
        Jsons.Obj
          [
            ( "cumulative",
              Jsons.Obj
                (( "count",
                   Jsons.Float
                     (lookup_delta snap
                        (Metrics.count_key Metrics.server_request_seconds)) )
                :: percentile_fields snap) );
            ("windows", Jsons.Obj windows);
          ] );
      ( "armor",
        Jsons.List
          (List.map
             (fun (site, choice, inputs) ->
               Jsons.Obj
                 [
                   ("site", Jsons.Str site);
                   ("choice", Jsons.Str choice);
                   ( "inputs",
                     Jsons.Obj
                       (List.map (fun (k, v) -> (k, Jsons.Str v)) inputs) );
                 ])
             (* why recent connections were shed or reaped *)
             (Armor.recent t.armor)) );
    ]

(* Prometheus text exposition tunneled through the line protocol: the
   exposition rides in a JSON string field (the wire is one JSON object
   per line), scrapers unwrap ["exposition"]. *)
let metrics_response id =
  Jsons.Obj
    [
      ("id", id);
      ("ok", Jsons.Bool true);
      ("op", Jsons.Str "metrics");
      ("content_type", Jsons.Str "text/plain; version=0.0.4");
      ( "exposition",
        Jsons.Str (Export.prometheus_of_snapshot (Io_stats.snapshot ())) );
    ]

let trace_response t id =
  let now = Timing.now () in
  Jsons.Obj
    [
      ("id", id);
      ("ok", Jsons.Bool true);
      ("op", Jsons.Str "trace");
      ("retain", Jsons.Int t.trace_retain);
      ( "traces",
        Jsons.List
          (List.map
             (fun (e : Trace_ring.entry) ->
               Jsons.Obj
                 [
                   ("sql", Jsons.Str e.Trace_ring.sql);
                   ("session", Jsons.Int e.Trace_ring.session);
                   ("seconds", Jsons.Float e.Trace_ring.total_s);
                   ("age_s", Jsons.Float (now -. e.Trace_ring.captured));
                   ("trace", Export.chrome_trace_json e.Trace_ring.spans);
                 ])
             (Trace_ring.snapshot t.traces ~now)) );
    ]

(* Folded flamegraph stacks over the retained slowest request traces,
   plus the process's cumulative copy-site counters. Each retained entry
   folds separately (span ids clash across entries) and the outputs
   concatenate: identical stacks from different requests stay separate
   lines, which flamegraph tooling sums anyway. Useful even without
   Config.profile — wall-time stacks come from request tracing alone;
   allocation stacks appear once the server runs with profiling on. *)
let profile_response t id =
  let now = Timing.now () in
  let folded =
    String.concat ""
      (List.map
         (fun (e : Trace_ring.entry) -> Prof.folded_of_spans e.Trace_ring.spans)
         (Trace_ring.snapshot t.traces ~now))
    ^ Prof.folded_of_copies (Io_stats.snapshot ())
  in
  Jsons.Obj
    [
      ("id", id);
      ("ok", Jsons.Bool true);
      ("op", Jsons.Str "profile");
      ("retain", Jsons.Int t.trace_retain);
      ("folded", Jsons.Str folded);
    ]

(* Shut down: stop accepting, wake the batcher (it drains the queue and
   exits), and half-close every session socket so blocked reads return
   EOF. Responses in flight still go out: only the receive side is shut. *)
let initiate_stop t =
  Mutex.protect t.qm (fun () ->
      if not t.stopping then begin
        t.stopping <- true;
        Condition.broadcast t.qc;
        List.iter
          (fun (_, fd) ->
            try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with _ -> ())
          t.session_fds
      end)

let unregister_session t id =
  Mutex.protect t.qm (fun () ->
      t.session_fds <- List.filter (fun (i, _) -> i <> id) t.session_fds)

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

(* The session fd is already registered by the accept loop (registration
   must happen under the same lock as the session-cap check, or a burst
   of connections races past the cap). *)
let handle_session t session_id fd =
  Metrics.incr Metrics.server_connections;
  Unix.set_nonblock fd;
  let reader =
    Line_reader.make fd ~max_bytes:t.max_request_bytes
      ~idle_timeout:t.idle_timeout ~request_timeout:t.request_timeout
  in
  (* response writes share the request-timeout budget: a client that
     sends but never reads is a write-side slow loris *)
  let send j =
    write_all fd (Jsons.to_string j ^ "\n") ~timeout:t.request_timeout
  in
  let reply j k = match send j with Ok () -> k | Error _ -> `Write_error in
  let handle line =
    match Jsons.parse line with
    | Error e ->
      reply
        (response_of_outcome Jsons.Null (err 2 ("bad request: " ^ e)))
        `Continue
    | Ok j -> (
      let id = Option.value (Jsons.member "id" j) ~default:Jsons.Null in
      match (Jsons.member "op" j, Jsons.member "sql" j) with
      | Some (Jsons.Str "ping"), _ ->
        reply
          (Jsons.Obj
             [ ("id", id); ("ok", Jsons.Bool true); ("op", Jsons.Str "ping") ])
          `Continue
      | Some (Jsons.Str "stats"), _ -> reply (stats_response t id) `Continue
      | Some (Jsons.Str "metrics"), _ -> reply (metrics_response id) `Continue
      | Some (Jsons.Str "trace"), _ -> reply (trace_response t id) `Continue
      | Some (Jsons.Str "profile"), _ ->
        reply (profile_response t id) `Continue
      | Some (Jsons.Str "shutdown"), _ -> (
        match
          send
            (Jsons.Obj
               [
                 ("id", id);
                 ("ok", Jsons.Bool true);
                 ("op", Jsons.Str "shutdown");
               ])
        with
        | Ok () ->
          initiate_stop t;
          `Stop
        | Error _ ->
          initiate_stop t;
          `Write_error)
      | _, Some (Jsons.Str sql) ->
        Metrics.incr Metrics.server_requests;
        (* lifecycle clock starts at the request's first byte *)
        let t_read = reader.Line_reader.req_start in
        let t_parsed = Timing.now () in
        let trace =
          if t.trace_retain > 0 then begin
            let h = Trace.create ~epoch:t_read () in
            let root = Trace.alloc h in
            Trace.record h ~parent:root ~start:t_read
              ~dur:(t_parsed -. t_read) "read";
            Some (h, root)
          end
          else None
        in
        let timing =
          { read_s = t_parsed -. t_read; queue_s = 0.; exec_s = 0. }
        in
        let outcome = submit t session_id ~trace ~timing sql in
        let t_write = Timing.now () in
        let sent =
          send
            (response_of_outcome ~timing:(timing, t_write -. t_read) id
               outcome)
        in
        let t_done = Timing.now () in
        Metrics.observe Metrics.server_request_seconds (t_done -. t_read);
        (match trace with
         | Some (h, root) ->
           Trace.record h ~parent:root ~start:t_write
             ~dur:(t_done -. t_write) "write";
           Trace.record h ~id:root ~start:t_read ~dur:(t_done -. t_read)
             ~args:
               [
                 ("sql", sql); ("session", string_of_int session_id);
               ]
             "session";
           Trace_ring.offer t.traces
             {
               Trace_ring.sql;
               session = session_id;
               total_s = t_done -. t_read;
               captured = t_done;
               spans = Trace.spans h;
             }
         | None -> ());
        (match sent with Ok () -> `Continue | Error _ -> `Write_error)
      | _ ->
        reply
          (response_of_outcome id (err 2 "request needs \"sql\" or \"op\""))
          `Continue)
  in
  let reap choice =
    Armor.record t.armor ~site:"server.reap" ~choice
      [
        ("session", string_of_int session_id);
        ( "limit_seconds",
          match
            if choice = "idle" then t.idle_timeout else t.request_timeout
          with
          | Some s -> Printf.sprintf "%g" s
          | None -> "none" );
      ]
  in
  let rec loop () =
    match Line_reader.next reader with
    | Line line ->
      if String.trim line = "" then loop ()
      else (
        match handle line with
        | `Continue -> loop ()
        | `Stop -> "clean"
        | `Write_error -> "write_error")
    | Too_large ->
      (* typed response, session stays usable: the oversized line was
         drained, the next line parses normally *)
      Metrics.incr Metrics.server_too_large;
      Armor.record t.armor ~site:"server.protocol" ~choice:"too_large"
        [
          ("session", string_of_int session_id);
          ("limit_bytes", string_of_int t.max_request_bytes);
        ];
      (match
         send
           (response_of_outcome Jsons.Null
              (err ~kind:"too_large" 2
                 (Printf.sprintf
                    "request line exceeds max_request_bytes (%d)"
                    t.max_request_bytes)))
       with
      | Ok () -> loop ()
      | Error _ -> "write_error")
    | Eof `Clean -> "clean"
    | Eof `Mid_request -> "eof_mid_request"
    | Timed_out `Idle ->
      reap "idle";
      "timeout_idle"
    | Timed_out `Request ->
      reap "request_timeout";
      "timeout_request"
    | Io_error msg ->
      Printf.eprintf "rawq serve: session %d read error: %s\n%!" session_id
        msg;
      "error"
  in
  let cause = try loop () with _ -> "error" in
  Io_stats.incr ("server.session_end." ^ cause);
  if cause <> "clean" then
    Printf.eprintf "rawq serve: session %d ended: %s\n%!" session_id cause;
  unregister_session t session_id;
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ());
  try Unix.close fd with _ -> ()

(* Past the session cap a connection gets exactly one line — code 5 with
   a retry hint — and the door closed; it never gets a session thread
   that could hold engine-side state. *)
let shed_session t fd =
  Unix.set_nonblock fd;
  let line =
    Jsons.to_string
      (response_of_outcome Jsons.Null
         (err ~kind:"overloaded" ~retry_after:(retry_hint t) 5
            "overloaded: session limit reached; retry later"))
    ^ "\n"
  in
  ignore (write_all fd line ~timeout:(Some 1.0));
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ());
  try Unix.close fd with _ -> ()

(* ------------------------------------------------------------------ *)
(* Accept loop                                                         *)
(* ------------------------------------------------------------------ *)

(* Telemetry ticker: its own thread, because the batcher blocks on its
   condition indefinitely when idle (Condition has no timed wait) and
   windows must advance even on an idle server. One ~hundred-key
   snapshot per tick; Window.observe enforces the tick spacing, so the
   short sleep only bounds shutdown latency. *)
let ticker_loop t =
  let rec loop () =
    if not (Mutex.protect t.qm (fun () -> t.stopping)) then begin
      Thread.delay (Float.min t.telemetry_tick 0.25);
      ignore (Window.observe t.window (Io_stats.snapshot ()));
      loop ()
    end
  in
  loop ()

let serve ?(batch_window = 0.002) ?(cache_results = true) ~socket_path db =
  (* a client vanishing mid-write must not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let cfg = Catalog.config (Raw_db.catalog db) in
  let t =
    {
      db;
      batch_window;
      cache_results;
      max_request_bytes = cfg.Config.max_request_bytes;
      request_timeout = cfg.Config.request_timeout;
      idle_timeout = cfg.Config.idle_timeout;
      max_sessions = cfg.Config.max_sessions;
      telemetry_tick = cfg.Config.telemetry_tick;
      trace_retain = cfg.Config.trace_retain;
      started = Timing.now ();
      window = Window.create ~interval:(Float.max cfg.Config.telemetry_tick 0.01) ();
      traces = Trace_ring.create ~cap:cfg.Config.trace_retain;
      armor = Armor.create ();
      engine = Mutex.create ();
      qm = Mutex.create ();
      qc = Condition.create ();
      queue = [];
      stopping = false;
      session_fds = [];
    }
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listener with Unix.Unix_error _ -> ());
      try Unix.unlink socket_path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind listener (Unix.ADDR_UNIX socket_path);
      Unix.listen listener 64;
      let batcher = Thread.create batcher_supervisor t in
      let ticker =
        if t.telemetry_tick > 0. then begin
          (* seed the ring now so the first tick already yields a delta *)
          ignore (Window.observe t.window (Io_stats.snapshot ()));
          Some (Thread.create ticker_loop t)
        end
        else None
      in
      let sessions = ref [] in
      let next_session = ref 0 in
      let rec accept_loop backoff =
        if not (Mutex.protect t.qm (fun () -> t.stopping)) then begin
          match Unix.select [ listener ] [] [] 0.25 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop backoff
          | [], _, _ -> accept_loop backoff
          | _ -> (
            match Unix.accept listener with
            | exception
                Unix.Unix_error
                  ( ( Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN
                    | Unix.EWOULDBLOCK ),
                    _,
                    _ ) ->
              accept_loop backoff
            | exception
                Unix.Unix_error
                  ( (Unix.EMFILE | Unix.ENFILE | Unix.ENOBUFS | Unix.ENOMEM)
                    as e,
                    _,
                    _ ) ->
              (* fd exhaustion is weather, not a crash: back off and let
                 sessions drain fds back to us *)
              Metrics.incr Metrics.server_accept_retries;
              Printf.eprintf "rawq serve: accept: %s; backing off %.2fs\n%!"
                (Unix.error_message e) backoff;
              Thread.delay backoff;
              accept_loop (Float.min 1.0 (backoff *. 2.))
            | fd, _ ->
              incr next_session;
              let id = !next_session in
              let admitted =
                Mutex.protect t.qm (fun () ->
                    match t.max_sessions with
                    | Some cap when List.length t.session_fds >= cap -> false
                    | _ ->
                      t.session_fds <- (id, fd) :: t.session_fds;
                      if t.stopping then (
                        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
                        with _ -> ());
                      true)
              in
              if admitted then
                sessions := Thread.create (handle_session t id) fd :: !sessions
              else begin
                Metrics.incr Metrics.server_shed_sessions;
                Armor.record t.armor ~site:"server.shed"
                  ~choice:"session_cap"
                  [
                    ( "max_sessions",
                      match t.max_sessions with
                      | Some n -> string_of_int n
                      | None -> "none" );
                  ];
                sessions := Thread.create (shed_session t) fd :: !sessions
              end;
              accept_loop 0.05)
        end
      in
      accept_loop 0.05;
      (* drain: the batcher exits once the queue is empty, sessions exit
         on the half-closed sockets *)
      Mutex.protect t.qm (fun () -> Condition.broadcast t.qc);
      Thread.join batcher;
      Option.iter Thread.join ticker;
      List.iter Thread.join !sessions)

(* ------------------------------------------------------------------ *)
(* Client                                                              *)
(* ------------------------------------------------------------------ *)

module Client = struct
  type conn = {
    fd : Unix.file_descr;
    reader : Line_reader.t;
    request_timeout : float option;
  }

  type err_kind = Refused | Send_failed | Response_timeout | Closed_mid_response | Bad_frame
  type err = { kind : err_kind; detail : string }

  let err_to_string e =
    let k =
      match e.kind with
      | Refused -> "connection refused"
      | Send_failed -> "send failed"
      | Response_timeout -> "response timed out"
      | Closed_mid_response -> "connection closed mid-response"
      | Bad_frame -> "bad response frame"
    in
    if e.detail = "" then k else k ^ ": " ^ e.detail

  let connect ?connect_timeout ?request_timeout socket_path =
    (* a server vanishing mid-write must not kill the client either *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       match connect_timeout with
       | None -> Unix.connect fd (Unix.ADDR_UNIX socket_path)
       | Some limit -> (
         Unix.set_nonblock fd;
         try Unix.connect fd (Unix.ADDR_UNIX socket_path)
         with Unix.Unix_error
             ((Unix.EINPROGRESS | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
           match Unix.select [] [ fd ] [] limit with
           | _, [], _ ->
             raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", socket_path))
           | _ -> (
             match Unix.getsockopt_error fd with
             | None -> ()
             | Some e -> raise (Unix.Unix_error (e, "connect", socket_path)))))
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    Unix.set_nonblock fd;
    {
      fd;
      (* responses can be arbitrarily large result sets: no line bound on
         the client side, just the deadlines *)
      reader =
        Line_reader.make fd ~max_bytes:Sys.max_string_length
          ~idle_timeout:request_timeout ~request_timeout;
      request_timeout;
    }

  let rpc c request =
    let line = Jsons.to_string request ^ "\n" in
    match write_all c.fd line ~timeout:c.request_timeout with
    | Error detail ->
      Metrics.incr Metrics.server_client_send_errors;
      Error { kind = Send_failed; detail }
    | Ok () -> (
      match Line_reader.next c.reader with
      | Line l -> (
        match Jsons.parse l with
        | Ok j -> Ok j
        | Error e -> Error { kind = Bad_frame; detail = e })
      | Too_large -> Error { kind = Bad_frame; detail = "oversized response" }
      | Eof _ ->
        Error
          { kind = Closed_mid_response; detail = "server closed the connection" }
      | Timed_out _ -> Error { kind = Response_timeout; detail = "" }
      | Io_error d -> Error { kind = Closed_mid_response; detail = d })

  let query ?id c sql =
    let id = match id with Some i -> Jsons.Int i | None -> Jsons.Null in
    rpc c (Jsons.Obj [ ("id", id); ("sql", Jsons.Str sql) ])

  let ping c = rpc c (Jsons.Obj [ ("op", Jsons.Str "ping") ])
  let stats c = rpc c (Jsons.Obj [ ("op", Jsons.Str "stats") ])
  let metrics c = rpc c (Jsons.Obj [ ("op", Jsons.Str "metrics") ])
  let trace c = rpc c (Jsons.Obj [ ("op", Jsons.Str "trace") ])
  let profile c = rpc c (Jsons.Obj [ ("op", Jsons.Str "profile") ])
  let shutdown c = rpc c (Jsons.Obj [ ("op", Jsons.Str "shutdown") ])

  let close c =
    (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    try Unix.close c.fd with Unix.Unix_error _ -> ()

  type retry_policy = {
    attempts : int;
    base_delay : float;
    max_delay : float;
    seed : int;
  }

  let default_retry =
    { attempts = 4; base_delay = 0.05; max_delay = 2.0; seed = 0x5eed }

  (* The only response worth retrying: ok:false, code 5, with an explicit
     retry_after — the server is saying "I shed this before running it". *)
  let retryable_response = function
    | Error _ -> None
    | Ok j -> (
      match
        (Jsons.member "ok" j, Jsons.member "code" j, Jsons.member "retry_after" j)
      with
      | Some (Jsons.Bool false), Some (Jsons.Int 5), Some hint -> (
        match hint with
        | Jsons.Float f -> Some f
        | Jsons.Int n -> Some (float_of_int n)
        | _ -> Some 0.)
      | _ -> None)

  let with_retry ?(policy = default_retry) ?connect_timeout ?request_timeout
      ~socket f =
    let stream = Net_fault.Stream.make ~seed:policy.seed in
    let rec attempt k =
      let backoff () =
        Float.min policy.max_delay
          (policy.base_delay *. (2. ** float_of_int k))
        *. Net_fault.Stream.jitter stream
      in
      (* None = out of attempts, caller keeps the terminal result *)
      let retry hint =
        if k + 1 >= policy.attempts then None
        else begin
          Metrics.incr Metrics.server_client_retries;
          Thread.delay (Float.max hint (backoff ()));
          Some (attempt (k + 1))
        end
      in
      match connect ?connect_timeout ?request_timeout socket with
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT) as e, _, _)
        -> (
        match retry 0. with
        | Some r -> r
        | None -> Error { kind = Refused; detail = Unix.error_message e })
      | exception Unix.Unix_error (e, fn, _) ->
        Error
          {
            kind = Refused;
            detail = Printf.sprintf "%s (%s)" (Unix.error_message e) fn;
          }
      | c -> (
        let result = Fun.protect ~finally:(fun () -> close c) (fun () -> f c) in
        match retryable_response result with
        | Some hint -> (
          match retry hint with Some r -> r | None -> result)
        | None -> result)
    in
    attempt 0
end
