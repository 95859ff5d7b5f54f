(* e28 — cost of the per-query resource profiler on the serving hot path.

   The profiler (Obs.Prof + Prof_gate) threads two kinds of
   instrumentation through the engine: Gc.quick_stat sampling at span
   boundaries (paid only when Config.profile is set) and Prof_gate.copy
   calls at every intermediate-copy site in the format kernels and
   buffer builders (always present in the code, gated by a domain-local
   bool). Both must be near-free when disabled, and cheap enough when
   enabled that a profiled deployment is still a usable deployment.

   Two checks:

   1. Disabled cost. One million Prof_gate.copy calls with the gate
      down must average under a microsecond each (they should be ~ns:
      one DLS read plus a branch). This is the e23 pattern and is what
      licenses leaving the call sites in the hot paths permanently.

   2. Enabled cost, end to end. A duel in the e26/e27 mold: a server
      running with Config.profile = true (every query pays GC sampling,
      copy accounting, and alloc span args) races an unprofiled server
      through the identical 32-session workload in the same wall-clock
      window, with a poller session pulling the profile op from the
      profiled side throughout (a deliberately attached flamegraph
      consumer). The best per-duel throughput ratio over
      [Exp_chaos.duels] rounds must stay above [gate_fraction] (overhead
      <= 3%), with one re-measure retry for stray scheduler spikes
      ({!Exp_chaos.duel}). Every response is
      still verified against the one-shot oracle — profiling must not
      change results, only record where the time and bytes went. *)

open Raw_core

(* profiled throughput must stay within 3% of unprofiled *)
let gate_fraction = 0.97

let profile_on_config = { Config.default with Config.profile = true }
let profile_off_config = Config.default

(* -- check 1: the gate-down copy call is ~free ---------------------- *)

let bench_site = Raw_storage.Prof_gate.site "bench.disabled_cost"

let assert_disabled_cost () =
  Raw_storage.Prof_gate.set false;
  let n = 1_000_000 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to n do
    Raw_storage.Prof_gate.copy bench_site i
  done;
  let per_call = (Unix.gettimeofday () -. t0) /. float_of_int n in
  Printf.printf "  disabled Prof_gate.copy: %.1f ns/call over %d calls\n%!"
    (per_call *. 1e9) n;
  if per_call >= 1e-6 then
    failwith
      (Printf.sprintf
         "e28: disabled Prof_gate.copy costs %.0f ns/call (>= 1 us) — the \
          copy-site instrumentation is taxing unprofiled queries"
         (per_call *. 1e9));
  Bench_util.record_metric ~name:"prof.disabled_copy.ns_per_call"
    (per_call *. 1e9)

(* -- check 2: profiled vs unprofiled duel --------------------------- *)

let e28 () =
  Bench_util.header "e28 — resource profiler overhead"
    "profiled server (GC sampling, copy accounting, polled folded stacks) \
     vs unprofiled, same-window duel; plus disabled-cost assert";
  assert_disabled_cost ();
  let clients, failures = Exp_chaos.verified_clients "e28" in
  let ratio, (on_best, off_best) =
    Exp_chaos.duel ~label:"profile" ~gate:gate_fraction
      ~poll:(fun c -> ignore (Server.Client.profile c))
      ~on:(profile_on_config, "on") ~off:(profile_off_config, "off") clients
  in
  if on_best.Exp_chaos.qps < gate_fraction *. off_best.Exp_chaos.qps then begin
    Printf.eprintf
      "e28: profiled throughput %.1f q/s is below %.0f%% of unprofiled %.1f \
       q/s in every same-window duel — the resource profiler is taxing the \
       hot path\n\
       %!"
      on_best.Exp_chaos.qps
      (100. *. gate_fraction)
      off_best.Exp_chaos.qps;
    exit 1
  end;
  Printf.printf
    "  gate ok: profiled %.1f q/s >= %.0f%% of unprofiled %.1f in a duel\n%!"
    on_best.Exp_chaos.qps
    (100. *. gate_fraction)
    off_best.Exp_chaos.qps;
  Bench_util.record_metric ~name:"serve.profile_on.qps" on_best.Exp_chaos.qps;
  Bench_util.record_metric ~name:"serve.profile_on.p99_ms"
    on_best.Exp_chaos.p99_ms;
  Bench_util.record_metric ~name:"serve.profile_off.qps" off_best.Exp_chaos.qps;
  Bench_util.record_metric ~name:"serve.profile_off.p99_ms"
    off_best.Exp_chaos.p99_ms;
  Bench_util.record_metric ~name:"serve.profile.duel_ratio" ratio;
  let nq = Exp_chaos.sessions * Exp_chaos.queries_per_client in
  Bench_util.record_raw_sample ~label:"serve profile=on"
    ~wall_seconds:on_best.Exp_chaos.wall ~result_rows:nq ();
  Bench_util.record_raw_sample ~label:"serve profile=off"
    ~wall_seconds:off_best.Exp_chaos.wall ~result_rows:nq ();
  Exp_chaos.check_failures "e28" failures
