open Raw_storage

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON (chrome://tracing, Perfetto)                *)
(* ------------------------------------------------------------------ *)

(* Complete ("X") events: one per span, microsecond timestamps relative to
   the trace epoch. Nesting is implicit per tid; exact parent links ride
   along in args for tools (and tests) that want the tree. *)
let chrome_trace_json spans =
  let event (s : Trace.span) =
    let args =
      ("span_id", Jsons.Int s.Trace.id)
      :: (match s.Trace.parent with
          | Some p -> [ ("parent_id", Jsons.Int p) ]
          | None -> [])
      @ List.map (fun (k, v) -> (k, Jsons.Str v)) s.Trace.args
    in
    Jsons.Obj
      [
        ("name", Jsons.Str s.Trace.name);
        ("cat", Jsons.Str s.Trace.cat);
        ("ph", Jsons.Str "X");
        ("ts", Jsons.Float (s.Trace.start_s *. 1e6));
        ("dur", Jsons.Float (s.Trace.dur_s *. 1e6));
        ("pid", Jsons.Int 1);
        ("tid", Jsons.Int s.Trace.tid);
        ("args", Jsons.Obj args);
      ]
  in
  Jsons.Obj
    [
      ("traceEvents", Jsons.List (List.map event spans));
      ("displayTimeUnit", Jsons.Str "ms");
    ]

let chrome_trace spans = Jsons.to_string (chrome_trace_json spans)

let write_chrome_trace ~path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_trace spans))

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

let sanitize id =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    id

let prom_name id = "raw_" ^ sanitize id

let prom_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

(* Prometheus text-format escaping: HELP text escapes backslash and
   newline; label values additionally escape the double quote. *)
let escape_help s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Expose a counter snapshot (as produced by Io_stats.snapshot) through the
   declared registry: declared counters/gauges get HELP/TYPE headers (one
   pair per exposed series — family members are distinct metric names in
   the exposition, so each needs its own metadata), counter names take the
   conventional _total suffix, histograms are reassembled into cumulative
   buckets with sum and count, and any key the registry does not own is
   exposed untyped rather than dropped — the exposition is complete by
   construction. *)
(* Build identity, exposed as the conventional *_build_info gauge: the
   value is always 1, the interesting data rides in the labels — joinable
   in PromQL against any other series to slice by deployed version. *)
let build_version = "0.10"

let build_info () =
  Printf.sprintf
    "# HELP rawq_build_info Build identity of the exposing binary \
     (constant 1; data is in the labels).\n\
     # TYPE rawq_build_info gauge\n\
     rawq_build_info{version=\"%s\",ocaml=\"%s\"} 1\n"
    (escape_label_value build_version)
    (escape_label_value Sys.ocaml_version)

let prometheus_of_snapshot snapshot =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (build_info ());
  let lookup key =
    match List.assoc_opt key snapshot with Some v -> v | None -> 0.
  in
  let covered = Hashtbl.create 64 in
  let emit_meta name help kind_str =
    Buffer.add_string buf
      (Printf.sprintf "# HELP %s %s\n" name (escape_help help));
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind_str)
  in
  List.iter
    (fun m ->
      let mid = Metrics.id m in
      match Metrics.kind m with
      | Metrics.Counter | Metrics.Gauge ->
        let is_counter = Metrics.kind m = Metrics.Counter in
        let kind_str = if is_counter then "counter" else "gauge" in
        let series =
          List.filter
            (fun (k, _) ->
              k = mid
              || (Metrics.owner k = Some m && Metrics.find k = None))
            snapshot
        in
        List.iter
          (fun (k, v) ->
            Hashtbl.replace covered k ();
            let name =
              if is_counter then prom_name k ^ "_total" else prom_name k
            in
            emit_meta name (Metrics.help m) kind_str;
            Buffer.add_string buf
              (Printf.sprintf "%s %s\n" name (prom_value v)))
          series
      | Metrics.Histogram ->
        let count_k = Metrics.count_key m in
        if List.mem_assoc count_k snapshot then begin
          emit_meta (prom_name mid) (Metrics.help m) "histogram";
          let cumulative = ref 0. in
          List.iter
            (fun b ->
              let k = Metrics.bucket_key m b in
              Hashtbl.replace covered k ();
              cumulative := !cumulative +. lookup k;
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%s\"} %s\n" (prom_name mid)
                   (escape_label_value (Printf.sprintf "%g" b))
                   (prom_value !cumulative)))
            (Metrics.buckets m);
          let inf_k = Metrics.inf_bucket_key m in
          Hashtbl.replace covered inf_k ();
          cumulative := !cumulative +. lookup inf_k;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"+Inf\"} %s\n" (prom_name mid)
               (prom_value !cumulative));
          let sum_k = Metrics.sum_key m in
          Hashtbl.replace covered sum_k ();
          Hashtbl.replace covered count_k ();
          Buffer.add_string buf
            (Printf.sprintf "%s_sum %s\n" (prom_name mid)
               (prom_value (lookup sum_k)));
          Buffer.add_string buf
            (Printf.sprintf "%s_count %s\n" (prom_name mid)
               (prom_value (lookup count_k)))
        end)
    (Metrics.all ());
  List.iter
    (fun (k, v) ->
      if not (Hashtbl.mem covered k) then begin
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s untyped\n" (prom_name k));
        Buffer.add_string buf
          (Printf.sprintf "%s %s\n" (prom_name k) (prom_value v))
      end)
    snapshot;
  Buffer.contents buf

let prometheus () = prometheus_of_snapshot (Io_stats.snapshot ())

(* ------------------------------------------------------------------ *)
(* Human-readable span tree (EXPLAIN ANALYZE style)                    *)
(* ------------------------------------------------------------------ *)

(* decision events are listed apart (Executor.pp_report), not as nodes *)
let pp_span_tree ppf spans =
  let spans = List.filter (fun s -> not (Trace.is_decision s)) spans in
  let children = Hashtbl.create 32 in
  let roots = ref [] in
  List.iter
    (fun (s : Trace.span) ->
      match s.Trace.parent with
      | Some p ->
        Hashtbl.replace children p
          (s :: (match Hashtbl.find_opt children p with Some l -> l | None -> []))
      | None -> roots := s :: !roots)
    spans;
  let by_start a b =
    match compare a.Trace.start_s b.Trace.start_s with
    | 0 -> compare a.Trace.id b.Trace.id
    | c -> c
  in
  let first = ref true in
  let rec pp_node depth (s : Trace.span) =
    if !first then first := false else Format.fprintf ppf "@,";
    let label =
      if s.Trace.tid = 0 then s.Trace.name
      else Printf.sprintf "%s (d%d)" s.Trace.name s.Trace.tid
    in
    let args =
      match s.Trace.args with
      | [] -> ""
      | l ->
        "  ["
        ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) l)
        ^ "]"
    in
    Format.fprintf ppf "%s%-*s %9.3fms%s" (String.make (depth * 2) ' ')
      (max 1 (34 - (depth * 2)))
      label
      (s.Trace.dur_s *. 1e3)
      args;
    List.iter (pp_node (depth + 1))
      (List.sort by_start
         (match Hashtbl.find_opt children s.Trace.id with
          | Some l -> l
          | None -> []))
  in
  Format.fprintf ppf "@[<v>";
  List.iter (pp_node 0) (List.sort by_start !roots);
  Format.fprintf ppf "@]"
