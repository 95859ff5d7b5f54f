(* Perf-regression gate: compare fresh BENCH_<id>.json files against the
   committed baselines under bench/baselines/.

   Usage:
     dune exec bench/diff.exe -- [options] BASELINE_DIR FRESH_DIR [id ...]

   With no ids, every BENCH_<id>.json found in BASELINE_DIR is compared.
   Exit codes: 0 no regression, 1 regression detected, 2 usage error /
   unreadable file / scale mismatch / a sample lacking one of label,
   wall_seconds, io_seconds, compile_seconds, rows_scanned, result_rows
   or counters (results are not comparable).

   What is compared, per sample label (a label can repeat — sweeps take
   the best of N reps, and cold/warm pairs share a query string — so
   wall aggregates by min, the noise-resistant statistic the sweeps
   print, while the deterministic quantities aggregate by sum: the
   cold/warm sequence a label runs through is fixed, so its summed cost
   is reproducible):

   - [rows_scanned] and [result_rows] sums must match exactly: the data
     is seeded, so a drift here is a correctness regression, not noise.
   - [io_seconds] and [compile_seconds] are simulated (deterministic
     cost-model charges), compared within a small relative tolerance
     (--io-tolerance) that absorbs cache-order effects only.
   - [wall_seconds] is real time and machine-dependent. Fresh wall times
     are first divided by a machine-speed factor: the geometric mean of
     fresh/baseline ratios over the [micro.*.ns_per_run] anchors from
     BENCH_micro.json, clamped to [0.25, 4]. Individual labels are far
     too noisy to gate on (a shared runner spikes single queries 2-4x),
     so the wall check is per experiment: the geometric mean of the
     normalized fresh/baseline ratios over labels whose baseline wall is
     at least 1ms must stay under 1 + --tolerance. Random spikes average
     out across labels; a real slowdown shifts every ratio and moves the
     geomean with it.
   - The CSV JIT/interpreted micro ratio ([micro.csv.seq_scan jit] over
     [micro.csv.seq_scan interpreted]) must not grow past the baseline's
     by more than --micro-tolerance: the JIT kernel keeps its lead over
     the interpreted baseline whatever the machine speed.
   - The micro anchors themselves regress when a single kernel slows
     down relative to the fleet (its ratio divided by the geomean
     exceeds 1 + --micro-tolerance): a uniform machine-speed change
     moves all anchors together and cancels out. The default tolerance
     is deliberately loose (1.5, i.e. trip at 2.5x the fleet) — ns-scale
     estimates are noisy on shared runners, and this check is a backstop
     for catastrophic single-kernel regressions, not small drifts; the
     deterministic io/compile and exact row checks carry the precision.

   --inject FACTOR is the gate's self-test: it multiplies the fresh
   run's reported costs (wall AND the simulated io/compile seconds, but
   NOT the micro anchors — those are the normalizer, and scaling them
   too would cancel the injection) so CI can prove the gate goes red on
   a synthetic 2x slowdown. The io path makes the trip deterministic:
   simulated seconds do not depend on machine load, so a 2x inflation
   always clears the 10% tolerance no matter how noisy the runner is. *)

module J = Raw_obs.Jsons

let die_usage msg =
  prerr_endline msg;
  exit 2

let read_json path =
  let contents =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e -> die_usage (Printf.sprintf "bench/diff: %s" e)
  in
  match J.parse contents with
  | Ok v -> v
  | Error e -> die_usage (Printf.sprintf "bench/diff: %s: %s" path e)

let truncate_label s =
  if String.length s <= 56 then s else String.sub s 0 53 ^ "..."

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

type agg = {
  wall : float;
  io : float;
  compile : float;
  rows_scanned : int;
  result_rows : int;
}

let samples_of path json =
  let tbl : (string, agg) Hashtbl.t = Hashtbl.create 64 in
  let items =
    match J.member "samples" json with Some (J.List l) -> l | _ -> []
  in
  List.iter
    (fun s ->
      let fl k =
        match Option.bind (J.member k s) J.to_float_opt with
        | Some v -> v
        | None ->
          die_usage (Printf.sprintf "bench/diff: %s: sample missing %S" path k)
      in
      let it k =
        match Option.bind (J.member k s) J.to_int_opt with
        | Some v -> v
        | None ->
          die_usage (Printf.sprintf "bench/diff: %s: sample missing %S" path k)
      in
      let label =
        match Option.bind (J.member "label" s) J.to_string_opt with
        | Some l -> l
        | None -> die_usage (Printf.sprintf "bench/diff: %s: unlabeled sample" path)
      in
      (* not compared, but part of the sample schema every bench writes *)
      (match J.member "counters" s with
      | Some (J.Obj _) -> ()
      | _ ->
        die_usage
          (Printf.sprintf "bench/diff: %s: sample missing \"counters\"" path));
      let a =
        {
          wall = fl "wall_seconds";
          io = fl "io_seconds";
          compile = fl "compile_seconds";
          rows_scanned = it "rows_scanned";
          result_rows = it "result_rows";
        }
      in
      match Hashtbl.find_opt tbl label with
      | None -> Hashtbl.replace tbl label a
      | Some prev ->
        (* wall: min over reps; deterministic quantities: sum over the
           label's fixed cold/warm sequence *)
        Hashtbl.replace tbl label
          {
            wall = Float.min prev.wall a.wall;
            io = prev.io +. a.io;
            compile = prev.compile +. a.compile;
            rows_scanned = prev.rows_scanned + a.rows_scanned;
            result_rows = prev.result_rows + a.result_rows;
          })
    items;
  tbl

let metrics_of json =
  match J.member "metrics" json with
  | Some (J.Obj fields) ->
    List.filter_map
      (fun (k, v) -> Option.map (fun f -> (k, f)) (J.to_float_opt v))
      fields
  | _ -> []

let is_anchor name =
  String.length name > 6
  && String.sub name 0 6 = "micro."
  && Filename.check_suffix name ".ns_per_run"

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let regressions = ref 0
let checks = ref 0

(* every tripped check is remembered with a severity so the summary can
   name the worst offenders: the ratio observed/allowed-ish quantity for
   perf checks, +inf for correctness checks (changed rows, missing
   samples) which always outrank a slowdown *)
let offenders : (string * float * string) list ref = ref []
let current_experiment = ref "?"

let check ?severity ~ok fmt =
  incr checks;
  if not ok then incr regressions;
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        Printf.printf "  REGRESSION %s\n" msg;
        let s = match severity with Some s -> s | None -> infinity in
        offenders := (!current_experiment, s, msg) :: !offenders
      end)
    fmt

(* single labels on a shared runner spike 2-4x from scheduling noise, so
   only baselines at least this long contribute to the wall geomean *)
let min_wall = 0.001

let compare_experiment ~norm ~wall_tol ~io_tol ~micro_tol ~inject id
    (base_j, fresh_j) =
  Printf.printf "%s:\n" id;
  current_experiment := id;
  let base_s = samples_of (id ^ " (baseline)") base_j in
  let fresh_s = samples_of (id ^ " (fresh)") fresh_j in
  let labels =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) base_s [])
  in
  let wall_ratios = ref [] in
  List.iter
    (fun label ->
      let b = Hashtbl.find base_s label in
      match Hashtbl.find_opt fresh_s label with
      | None ->
        check ~ok:false "%s: sample missing from fresh run" (truncate_label label)
      | Some f ->
        let f =
          {
            f with
            wall = f.wall *. inject;
            io = f.io *. inject;
            compile = f.compile *. inject;
          }
        in
        check
          ~ok:(f.rows_scanned = b.rows_scanned && f.result_rows = b.result_rows)
          "%s: rows changed (scanned %d->%d, result %d->%d)"
          (truncate_label label) b.rows_scanned f.rows_scanned b.result_rows
          f.result_rows;
        check
          ?severity:(if b.io > 0. then Some (f.io /. b.io) else None)
          ~ok:(f.io <= (b.io *. (1. +. io_tol)) +. 1e-9)
          "%s: io_seconds %.4f -> %.4f (> %+.0f%%)" (truncate_label label) b.io
          f.io (io_tol *. 100.);
        check
          ?severity:
            (if b.compile > 0. then Some (f.compile /. b.compile) else None)
          ~ok:(f.compile <= (b.compile *. (1. +. io_tol)) +. 1e-9)
          "%s: compile_seconds %.4f -> %.4f (> %+.0f%%)" (truncate_label label)
          b.compile f.compile (io_tol *. 100.);
        if b.wall >= min_wall && f.wall > 0. then
          wall_ratios := (f.wall /. norm /. b.wall) :: !wall_ratios)
    labels;
  (match !wall_ratios with
  | [] -> ()
  | rs ->
    let geo =
      exp
        (List.fold_left (fun acc r -> acc +. log r) 0. rs
        /. float_of_int (List.length rs))
    in
    Printf.printf "  wall geomean %.2fx over %d label(s)\n" geo
      (List.length rs);
    check ~severity:geo
      ~ok:(geo <= 1. +. wall_tol)
      "wall clock: normalized fresh/baseline geomean %.2fx over %d label(s) \
       (> %+.0f%%)"
      geo (List.length rs) (wall_tol *. 100.));
  let base_m = metrics_of base_j and fresh_m = metrics_of fresh_j in
  List.iter
    (fun (name, bv) ->
      if is_anchor name && bv >= 1.0 then
        match List.assoc_opt name fresh_m with
        | None -> check ~ok:false "%s: anchor missing from fresh run" name
        | Some fv ->
          let adj = fv /. bv /. norm in
          check ~severity:adj
            ~ok:(adj <= 1. +. micro_tol)
            "%s: %.1f -> %.1f ns/run (%.2fx the fleet)" name bv fv adj)
    base_m;
  (* the paper's central mechanism, gated as a ratio: machine speed
     cancels out, so a JIT kernel that loses its lead over the
     interpreted one trips even when both anchors sit inside the fleet *)
  let jit_ratio m =
    match
      ( List.assoc_opt "micro.csv.seq_scan jit.ns_per_run" m,
        List.assoc_opt "micro.csv.seq_scan interpreted.ns_per_run" m )
    with
    | Some j, Some i when j > 0. && i > 0. -> Some (j /. i)
    | _ -> None
  in
  (match jit_ratio base_m, jit_ratio fresh_m with
  | Some b, Some f ->
    let adj = f /. b in
    check ~severity:adj
      ~ok:(adj <= 1. +. micro_tol)
      "micro.csv.seq_scan jit/interpreted: %.2f -> %.2f (%.2fx the baseline \
       ratio)"
      b f adj
  | Some _, None -> check ~ok:false "micro.csv.seq_scan jit/interpreted: anchors missing from fresh run"
  | None, _ -> ());
  Printf.printf "  %d label(s), %d metric(s) compared\n" (List.length labels)
    (List.length base_m)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let usage =
  "usage: diff.exe [options] BASELINE_DIR FRESH_DIR [id ...]\n\
   Compares fresh BENCH_<id>.json files against committed baselines.\n\
   Exit: 0 ok, 1 regression, 2 usage/parse/scale mismatch."

let discover_ids dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun f ->
         if
           String.length f > 11
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json"
         then Some (String.sub f 6 (String.length f - 11))
         else None)
  |> List.sort compare

let () =
  let wall_tol = ref 0.5 in
  let io_tol = ref 0.10 in
  let micro_tol = ref 1.5 in
  let inject = ref 1.0 in
  let pos = ref [] in
  let spec =
    [
      ( "--tolerance",
        Arg.Set_float wall_tol,
        "REL relative wall-clock tolerance after normalization (default 0.5)" );
      ( "--io-tolerance",
        Arg.Set_float io_tol,
        "REL tolerance on simulated io/compile seconds (default 0.1)" );
      ( "--micro-tolerance",
        Arg.Set_float micro_tol,
        "REL tolerance on a micro anchor vs the fleet geomean (default 1.5)" );
      ( "--inject",
        Arg.Set_float inject,
        "FACTOR multiply fresh wall/io/compile costs (gate self-test; micro \
         anchors unaffected)" );
    ]
  in
  Arg.parse spec (fun a -> pos := a :: !pos) usage;
  let base_dir, fresh_dir, ids =
    match List.rev !pos with
    | base :: fresh :: ids -> (base, fresh, ids)
    | _ -> die_usage usage
  in
  if not (Sys.file_exists base_dir && Sys.is_directory base_dir) then
    die_usage (Printf.sprintf "bench/diff: %s: not a directory" base_dir);
  let ids = if ids = [] then discover_ids base_dir else ids in
  if ids = [] then
    die_usage (Printf.sprintf "bench/diff: no BENCH_*.json under %s" base_dir);
  let pairs =
    List.map
      (fun id ->
        let file d = Filename.concat d (Printf.sprintf "BENCH_%s.json" id) in
        let base = read_json (file base_dir) in
        let fresh = read_json (file fresh_dir) in
        if J.member "scale" base <> J.member "scale" fresh then
          die_usage
            (Printf.sprintf
               "bench/diff: %s: scale mismatch (baseline vs fresh run at \
                different RAW_BENCH_SCALE) — results are not comparable"
               id);
        (id, (base, fresh)))
      ids
  in
  (* machine-speed normalization: geomean of fresh/baseline micro ratios *)
  let ratios =
    List.concat_map
      (fun (_, (base, fresh)) ->
        let fm = metrics_of fresh in
        List.filter_map
          (fun (name, bv) ->
            if is_anchor name && bv > 0. then
              match List.assoc_opt name fm with
              | Some fv when fv > 0. -> Some (fv /. bv)
              | _ -> None
            else None)
          (metrics_of base))
      pairs
  in
  let norm =
    match ratios with
    | [] -> 1.0
    | rs ->
      let g =
        exp
          (List.fold_left (fun acc r -> acc +. log r) 0. rs
          /. float_of_int (List.length rs))
      in
      Float.max 0.25 (Float.min 4.0 g)
  in
  Printf.printf
    "bench/diff: machine-speed factor %.3f (%d anchor(s)); wall tolerance \
     %+.0f%%, io %+.0f%%\n"
    norm (List.length ratios) (!wall_tol *. 100.) (!io_tol *. 100.);
  List.iter
    (fun (id, pair) ->
      compare_experiment ~norm ~wall_tol:!wall_tol ~io_tol:!io_tol
        ~micro_tol:!micro_tol ~inject:!inject id pair)
    pairs;
  if !regressions > 0 then begin
    (* name the worst offenders up front so a red CI log leads with the
       metric that moved, not a wall of per-label noise: correctness
       trips (infinite severity) first, then by how far past baseline *)
    let top =
      List.sort (fun (_, a, _) (_, b, _) -> compare b a) !offenders
    in
    Printf.printf "bench/diff: top offender(s):\n";
    List.iteri
      (fun i (id, s, msg) ->
        if i < 5 then
          if Float.is_finite s then
            Printf.printf "  %5.2fx  %s: %s\n" s id msg
          else Printf.printf "      !  %s: %s\n" id msg)
      top;
    if List.length top > 5 then
      Printf.printf "  ... and %d more\n" (List.length top - 5);
    Printf.printf "bench/diff: %d regression(s) in %d check(s)\n" !regressions
      !checks;
    exit 1
  end
  else Printf.printf "bench/diff: ok (%d check(s), no regression)\n" !checks
