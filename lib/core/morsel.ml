open Raw_storage

(* Split [lo, hi) into at most [n] contiguous non-empty ranges. *)
let split_range ~lo ~hi ~n =
  let total = hi - lo in
  if total <= 0 then []
  else if n <= 1 then [ (lo, hi) ]
  else begin
    let per = (total + n - 1) / n in
    let rec go a acc =
      if a >= hi then List.rev acc
      else begin
        let b = min (a + per) hi in
        go b ((a, b) :: acc)
      end
    in
    go lo []
  end

(* One fresh domain per morsel; the calling domain blocks in join. Each
   worker's Io_stats and Scan_errors land in its own domain-local cell
   (empty at spawn); after join the coordinator folds every worker's delta
   into its own counters — Scan_errors.merge is deterministic, so parallel
   and sequential scans produce identical error reports — and records
   per-domain wall time under "par.domain<i>.seconds" (the executor
   surfaces these as the per-domain CPU breakdown). Results come back in
   morsel order, so order-sensitive merging (column segments, posmap
   segments) is just concatenation.

   Quiesce is deterministic: every domain is joined and every worker's
   stats are merged — partial progress from cancelled morsels counts —
   before the first failure (in morsel order) is re-raised. The shared
   cancel token is re-installed as ambient in each worker because
   domain-local storage is not inherited across Domain.spawn. *)
let map_domains ?(cancel = Cancel.current ()) work items =
  let module Trace = Raw_obs.Trace in
  let module Metrics = Raw_obs.Metrics in
  (* one "morsel" span per item regardless of path, so the span tree's
     shape is invariant across parallelism levels *)
  let timed_work item =
    Trace.with_span ~cat:"scan" "morsel" (fun () ->
        let r, seconds = Timing.time (fun () -> work item) in
        Metrics.observe Metrics.morsel_seconds seconds;
        r)
  in
  match items with
  | [] -> []
  | [ item ] ->
    let restore = Cancel.current () in
    Cancel.set_current cancel;
    Fun.protect ~finally:(fun () -> Cancel.set_current restore) (fun () ->
        [ timed_work item ])
  | items ->
    (* DLS is not inherited across Domain.spawn: re-install the cancel
       token, and the trace context when observing, in each worker.
       Worker spans and decisions parent under the coordinator's current
       span with tid 1 + morsel index. *)
    let fp = Trace.fork () in
    (* the profiling gate is DLS too: mirror the coordinator's value so
       worker-side copy sites and GC deltas are attributed; each worker
       samples its own domain's GC counters, so merged alloc counters
       are additive across the join with no double counting *)
    let prof = Prof_gate.on () in
    let run i item () =
      Cancel.set_current cancel;
      Prof_gate.set prof;
      let g0 = if prof then Some (Raw_obs.Prof.sample ()) else None in
      let with_obs f =
        match fp with
        | Some fp -> Trace.with_fork fp ~tid:(i + 1) f
        | None -> f ()
      in
      let t0 = Timing.now () in
      let r = try Ok (with_obs (fun () -> timed_work item)) with e -> Error e in
      (* flush this worker's GC delta into its own Io_stats shard before
         the snapshot below, so the coordinator's merge carries it *)
      (match g0 with Some g -> Raw_obs.Prof.record_since g | None -> ());
      (r, Io_stats.snapshot (), Scan_errors.snapshot (), Timing.now () -. t0)
    in
    let domains = List.mapi (fun i item -> Domain.spawn (run i item)) items in
    let parts = List.map Domain.join domains in
    List.iteri
      (fun i (_, stats, errs, seconds) ->
        Io_stats.merge stats;
        Scan_errors.merge errs;
        Io_stats.add_float (Printf.sprintf "par.domain%d.seconds" i) seconds)
      parts;
    List.map
      (fun (r, _, _, _) -> match r with Ok v -> v | Error e -> raise e)
      parts

let fork_join ~fork ~absorb work items =
  let parts = map_domains (fun item -> let view = fork () in (work view item, view)) items in
  List.iter (fun (_, view) -> absorb view) parts;
  List.map fst parts

let concat_columns = function
  | [] -> [||]
  | first :: _ as parts ->
    Array.init (Array.length first) (fun k ->
        Raw_vector.Column.concat (List.map (fun cols -> cols.(k)) parts))
