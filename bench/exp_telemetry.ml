(* e27 — cost of continuous telemetry on the serving hot path.

   PR 9 turns the server's observability from "ask and it computes" into
   "always on": a ticker thread snapshotting the metrics registry into
   the window ring, a span tree built for every request, a timing object
   serialized into every response, and the slowest-trace ring updated at
   request end. All of that must be close to free, or the default knobs
   (telemetry_tick = 1 s, trace_retain = 32) would tax every deployment.

   The measurement is a duel, same design as e26's armor gate: a
   telemetry-heavy server (tick cranked to 50 ms, tracing on, plus a
   poller session fetching stats + metrics + trace five times a second —
   a deliberately attached [rawq top]) races a telemetry-off server
   (tick 0, retain 0) through the identical 32-session workload in the
   same wall-clock window, so load spikes hit both sides equally and the
   throughput ratio self-normalizes. The best per-duel ratio over
   [Exp_chaos.duels] rounds must stay above [gate_fraction] (overhead <=
   2%), with one re-measure retry for stray scheduler spikes
   ({!Exp_chaos.duel}). Every response is
   still verified against the one-shot oracle. *)

open Raw_core

(* telemetry-on throughput must stay within 2% of telemetry-off *)
let gate_fraction = 0.98

let telemetry_on_config =
  { Config.default with Config.telemetry_tick = 0.05; trace_retain = 32 }

let telemetry_off_config =
  { Config.default with Config.telemetry_tick = 0.; trace_retain = 0 }

let e27 () =
  Bench_util.header "e27 — telemetry overhead"
    "telemetry-on (50 ms ticks, tracing, polled stats/metrics/trace) vs \
     telemetry-off, same-window duel";
  let clients, failures = Exp_chaos.verified_clients "e27" in
  let ratio, (on_best, off_best) =
    Exp_chaos.duel ~label:"telemetry" ~gate:gate_fraction
      ~poll:(fun c ->
        ignore (Server.Client.stats c);
        ignore (Server.Client.metrics c);
        ignore (Server.Client.trace c))
      ~on:(telemetry_on_config, "on") ~off:(telemetry_off_config, "off") clients
  in
  if on_best.Exp_chaos.qps < gate_fraction *. off_best.Exp_chaos.qps then begin
    Printf.eprintf
      "e27: telemetry-on throughput %.1f q/s is below %.0f%% of \
       telemetry-off %.1f q/s in every same-window duel — continuous \
       telemetry is taxing the hot path\n\
       %!"
      on_best.Exp_chaos.qps
      (100. *. gate_fraction)
      off_best.Exp_chaos.qps;
    exit 1
  end;
  Printf.printf
    "  gate ok: telemetry-on %.1f q/s >= %.0f%% of telemetry-off %.1f in a \
     duel\n\
     %!"
    on_best.Exp_chaos.qps
    (100. *. gate_fraction)
    off_best.Exp_chaos.qps;
  Bench_util.record_metric ~name:"serve.telemetry_on.qps" on_best.Exp_chaos.qps;
  Bench_util.record_metric ~name:"serve.telemetry_on.p99_ms"
    on_best.Exp_chaos.p99_ms;
  Bench_util.record_metric ~name:"serve.telemetry_off.qps"
    off_best.Exp_chaos.qps;
  Bench_util.record_metric ~name:"serve.telemetry_off.p99_ms"
    off_best.Exp_chaos.p99_ms;
  Bench_util.record_metric ~name:"serve.telemetry.duel_ratio" ratio;
  let nq = Exp_chaos.sessions * Exp_chaos.queries_per_client in
  Bench_util.record_raw_sample ~label:"serve telemetry=on"
    ~wall_seconds:on_best.Exp_chaos.wall ~result_rows:nq ();
  Bench_util.record_raw_sample ~label:"serve telemetry=off"
    ~wall_seconds:off_best.Exp_chaos.wall ~result_rows:nq ();
  Exp_chaos.check_failures "e27" failures
