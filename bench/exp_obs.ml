(* e23: observability overhead — the whole subsystem must cost nothing
   measurable when Config.observe is false (the default). Three checks:

   1. A no-op Trace.with_span and a no-op Trace.decision (no handle
      installed) are each a single DLS read plus a branch; assert each
      stays under 1 µs/call (generous: the real cost is a few ns, the
      bound only guards against an accidental allocation or lock on the
      disabled path). Printed and asserted only, not a harness sample.
   2. A query on a default-config db reports no spans, so no decision
      events either.
   3. Warm-query wall time with observability on vs off, printed and
      persisted (via the harness samples) so regressions show in
      BENCH_e23.json. *)

open Raw_core
open Bench_util

let e23 () =
  header "e23 — observability overhead"
    "disabled path must be free; enabled path priced on a warm query";
  (* 1. no-op span and decision cost *)
  let n = 1_000_000 in
  let bound name f =
    let t0 = Unix.gettimeofday () in
    for i = 1 to n do
      f i
    done;
    let per_call = (Unix.gettimeofday () -. t0) /. float_of_int n in
    Printf.printf "no-op %s: %.1f ns/call (bound 1000)\n" name
      (per_call *. 1e9);
    if per_call >= 1e-6 then
      failwith
        (Printf.sprintf "disabled %s too slow: %.0f ns/call" name
           (per_call *. 1e9))
  in
  let sink = ref 0 in
  bound "with_span" (fun i ->
      sink := Raw_obs.Trace.with_span "noop" (fun () -> !sink + i));
  bound "decision" (fun _ -> Raw_obs.Trace.decision ~site:"noop" ~choice:"x" []);
  (* 2. observe=false => no spans, so no decision events, in the report *)
  let o = opts () in
  let q = "SELECT MAX(col1) FROM t30 WHERE col0 < 500000000" in
  let db_off = db_q30 () in
  let r = run db_off o q in
  assert (r.Executor.spans = []);
  (* 3. enabled vs disabled, warm (template cached, posmap built) *)
  let db_on = db_q30 ~config:{ Config.default with observe = true } () in
  ignore (run db_on o q);
  let t_off = min_of ~reps:5 (fun () -> total (run db_off o q)) in
  let t_on = min_of ~reps:5 (fun () -> total (run db_on o q)) in
  print_rows ~columns:[ "warm s" ]
    [ ("observe=false", [ t_off ]); ("observe=true", [ t_on ]) ];
  Printf.printf "overhead: %+.1f%%\n%!" (((t_on /. t_off) -. 1.) *. 100.)
