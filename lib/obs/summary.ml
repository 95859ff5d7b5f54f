(* Exact nearest-rank percentiles over recorded history — the cross-query
   complement to the per-process bucket estimates in Metrics.quantile. *)

let percentile xs q =
  if xs = [] || not (Float.is_finite q) || q < 0. || q > 1. then None
  else
    let arr = Array.of_list xs in
    Array.sort compare arr;
    let n = Array.length arr in
    (* nearest-rank: ceil(q*n), 1-based; q=0 reads the minimum *)
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    Some arr.(max 0 (min (n - 1) (rank - 1)))

type group = {
  key : string;
  n : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

(* Group an arbitrary per-record sample; records where the metric is
   absent are skipped, so profiled-only columns (alloc_words) rank over
   exactly the records that carry them. *)
let group_vals metric key_of records =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (r : History.record) ->
      match metric r with
      | None -> ()
      | Some v ->
        let k = key_of r in
        Hashtbl.replace tbl k
          (v
           :: (match Hashtbl.find_opt tbl k with Some l -> l | None -> [])))
    records;
  Hashtbl.fold
    (fun key xs acc ->
      let n = List.length xs in
      let p q = Option.value ~default:0. (percentile xs q) in
      {
        key;
        n;
        mean = List.fold_left ( +. ) 0. xs /. float_of_int n;
        p50 = p 0.5;
        p95 = p 0.95;
        p99 = p 0.99;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> String.compare a.key b.key)

let group_by key_of records =
  group_vals (fun (r : History.record) -> Some r.History.total_seconds)
    key_of records

let by_access = group_by (fun (r : History.record) -> r.History.access)
let by_shape = group_by (fun (r : History.record) -> r.History.shape)

(* allocation ranking: profiled records only, heaviest mean first *)
let by_shape_alloc records =
  group_vals
    (fun (r : History.record) -> r.History.alloc_words)
    (fun r -> r.History.shape)
    records
  |> List.sort (fun a b -> compare b.mean a.mean)

let halves records =
  let n = List.length records in
  let rec split i acc = function
    | rest when i = n / 2 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | r :: rest -> split (i + 1) (r :: acc) rest
  in
  split 0 [] records

let rate hits misses =
  let total = hits + misses in
  if total = 0 then None else Some (float_of_int hits /. float_of_int total)

let hit_rate_trend records =
  let first, second = halves records in
  let sum f rs = List.fold_left (fun acc r -> acc + f r) 0 rs in
  let trend name hits misses =
    ( name,
      rate (sum hits first) (sum misses first),
      rate (sum hits second) (sum misses second) )
  in
  [
    trend "template"
      (fun (r : History.record) -> r.History.tmpl_hits)
      (fun r -> r.History.tmpl_misses);
    trend "shred_pool"
      (fun (r : History.record) -> r.History.pool_hits)
      (fun r -> r.History.pool_misses);
  ]

let top_regressed ?(limit = 5) records =
  let first, second = halves records in
  let means rs =
    List.map (fun g -> (g.key, g.mean)) (by_shape rs)
  in
  let m1 = means first and m2 = means second in
  List.filter_map
    (fun (shape, mean2) ->
      match List.assoc_opt shape m1 with
      | Some mean1 when mean1 > 0. -> Some (shape, mean2 /. mean1)
      | _ -> None)
    m2
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.filteri (fun i _ -> i < limit)

(* Per-strategy prediction-error statistics. A record participates when
   the planner went through the adaptive resolution (sel_est present); it
   is "measurable" when the executor also observed the selectivity of the
   same filter chain. *)
type strategy_stats = {
  strategy : string;
  queries : int;
  measurable : int;
  mispredicts : int;
  sel_ratio_mean : float;
  sel_ratio_p50 : float;
  sel_ratio_p95 : float;
  cost_per_second_p50 : float;
}

let calibration records =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (r : History.record) ->
      match r.History.sel_est with
      | None -> ()
      | Some _ ->
        let k = r.History.strategy in
        Hashtbl.replace tbl k
          (r
           :: (match Hashtbl.find_opt tbl k with Some l -> l | None -> [])))
    records;
  Hashtbl.fold
    (fun strategy rs acc ->
      let measurable =
        List.filter_map
          (fun (r : History.record) ->
            match (r.History.sel_est, r.History.sel_obs) with
            | Some est, Some obs -> Some (est /. Float.max obs 1e-6)
            | _ -> None)
          rs
      in
      let cost_rates =
        List.filter_map
          (fun (r : History.record) ->
            match r.History.cost_predicted with
            | Some c when r.History.total_seconds > 0. ->
              Some (c /. r.History.total_seconds)
            | _ -> None)
          rs
      in
      let n_meas = List.length measurable in
      let p xs q = Option.value ~default:0. (percentile xs q) in
      {
        strategy;
        queries = List.length rs;
        measurable = n_meas;
        mispredicts =
          List.length
            (List.filter
               (fun (r : History.record) ->
                 r.History.mispredicted = Some true)
               rs);
        sel_ratio_mean =
          (if n_meas = 0 then 0.
           else List.fold_left ( +. ) 0. measurable /. float_of_int n_meas);
        sel_ratio_p50 = p measurable 0.5;
        sel_ratio_p95 = p measurable 0.95;
        cost_per_second_p50 = p cost_rates 0.5;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> String.compare a.strategy b.strategy)

let truncate_key k =
  if String.length k <= 44 then k else String.sub k 0 41 ^ "..."

let pp_groups_with pp_val ppf title groups =
  Format.fprintf ppf "@,%s@," title;
  Format.fprintf ppf "  %-44s %5s %10s %10s %10s %10s@," "key" "n" "mean"
    "p50" "p95" "p99";
  List.iter
    (fun g ->
      Format.fprintf ppf "  %-44s %5d %a %a %a %a@," (truncate_key g.key)
        g.n pp_val g.mean pp_val g.p50 pp_val g.p95 pp_val g.p99)
    groups

let pp_seconds ppf v = Format.fprintf ppf "%9.4fs" v
let pp_words ppf v = Format.fprintf ppf "%10.0f" v
let pp_groups ppf title groups = pp_groups_with pp_seconds ppf title groups

let pp_calibration ppf stats =
  Format.fprintf ppf "@,cost-model calibration (adaptive decisions)@,";
  if stats = [] then
    Format.fprintf ppf "  no adaptive decisions recorded@,"
  else begin
    Format.fprintf ppf "  %-12s %7s %7s %7s %12s %12s %12s %14s@," "strategy"
      "queries" "meas" "mispred" "selratio-avg" "selratio-p50" "selratio-p95"
      "cost/s-p50";
    List.iter
      (fun s ->
        Format.fprintf ppf "  %-12s %7d %7d %7d %12.3f %12.3f %12.3f %14.1f@,"
          s.strategy s.queries s.measurable s.mispredicts s.sel_ratio_mean
          s.sel_ratio_p50 s.sel_ratio_p95 s.cost_per_second_p50)
      stats
  end;
  Format.fprintf ppf
    "  (selratio = predicted / observed selectivity; 1.0 is perfect)@,"

let pp_report ppf records =
  Format.fprintf ppf "@[<v>";
  let n = List.length records in
  let by_status = Hashtbl.create 8 in
  let mispredicts = ref 0 in
  List.iter
    (fun (r : History.record) ->
      let s = History.status_to_string r.History.status in
      Hashtbl.replace by_status s
        (1 + Option.value ~default:0 (Hashtbl.find_opt by_status s));
      if r.History.mispredicted = Some true then incr mispredicts)
    records;
  Format.fprintf ppf "workload history: %d record(s)" n;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_status []
  |> List.sort compare
  |> List.iter (fun (k, v) -> Format.fprintf ppf ", %s=%d" k v);
  Format.fprintf ppf "; mispredicted=%d@," !mispredicts;
  if records <> [] then begin
    pp_groups ppf "latency by access path (seconds)" (by_access records);
    pp_groups ppf "latency by query shape (seconds)" (by_shape records);
    (match by_shape_alloc records with
    | [] -> () (* no profiled records in this window *)
    | groups ->
      pp_groups_with pp_words ppf
        "allocation by query shape (words, profiled queries)" groups);
    Format.fprintf ppf "@,cache hit rates (first half -> second half)@,";
    List.iter
      (fun (name, a, b) ->
        let p = function
          | Some r -> Printf.sprintf "%.1f%%" (100. *. r)
          | None -> "n/a"
        in
        Format.fprintf ppf "  %-12s %s -> %s@," name (p a) (p b))
      (hit_rate_trend records);
    (match top_regressed records with
    | [] -> ()
    | regressed ->
      Format.fprintf ppf "@,top regressed shapes (2nd-half mean / 1st-half mean)@,";
      List.iter
        (fun (shape, ratio) ->
          Format.fprintf ppf "  %-44s %5.2fx@," (truncate_key shape) ratio)
        regressed);
    pp_calibration ppf (calibration records)
  end;
  Format.fprintf ppf "@]"
