open Raw_vector
open Raw_storage
open Raw_engine
open Raw_formats
module Metrics = Raw_obs.Metrics
module Trace = Raw_obs.Trace

type mode = Dbms | External | In_situ | Jit

let mode_to_string = function
  | Dbms -> "dbms"
  | External -> "external"
  | In_situ -> "insitu"
  | Jit -> "jit"

let scan_mode = function
  | Jit -> Scan_csv.Jit
  | Dbms -> Scan_csv.Jit (* loading uses the JIT readers; queries never rescan *)
  | External | In_situ -> Scan_csv.Interpreted

(* Charge the template cache for a generated kernel shape (Jit mode only).
   [kind] namespaces the cache slot by artifact type (see Template_cache). *)
let charge_template cat ~mode ~kind key =
  match mode with
  | Jit -> Template_cache.get (Catalog.templates cat) ~kind ~key (fun () -> ())
  | Dbms | External | In_situ -> ()

let parallelism cat = (Catalog.config cat).Config.parallelism
let policy cat = (Catalog.config cat).Config.on_error

(* Under the lenient policies a HEP event table's row ids are positions in
   the valid-entry enumeration, not raw entry ids; translate before the
   kernel (identity on a clean file). *)
let hep_entry_rowids cat ~(entry : Catalog.entry) rowids =
  match policy cat with
  | Scan_errors.Fail_fast -> rowids
  | Scan_errors.Skip_row | Scan_errors.Null_fill ->
    let r = Catalog.hep_reader cat entry in
    let v = Hep.Reader.valid_entries r in
    if Array.length v = Hep.Reader.n_events r then rowids
    else Array.map (fun i -> v.(i)) rowids

let all_schema_cols (entry : Catalog.entry) =
  List.init (Schema.arity entry.schema) (fun i -> i)

(* ------------------------------------------------------------------ *)
(* Raw reads                                                           *)
(* ------------------------------------------------------------------ *)

type rows = All | Ids of int array

let need what = function
  | Some x -> x
  | None -> failwith ("Access.read: " ^ what)

(* Read [cols] of every row ([All], through the morsel-parallel kernels)
   or of [Ids rowids] (a point fetch, through the sequential ones). A CSV
   [All] read also builds a positional map over [tracked] when the entry
   has none; a CSV fetch needs that map, a JSONL fetch the row starts. *)
let read cat ~mode ~(entry : Catalog.entry) ~tracked ~cols rows =
  let smode = scan_mode mode and policy = policy cat in
  let phase, ids, shape =
    match rows with
    | All -> ("seq", None, [ ("phase", "full") ])
    | Ids r ->
      ("fetch", Some r, [ ("phase", "fetch"); ("rows", string_of_int (Array.length r)) ])
  in
  Trace.decision ~site:"scan.kernel"
    ~choice:(Scan_csv.mode_to_string smode)
    (("table", entry.name) :: ("format", Format_kind.to_string entry.format) :: shape);
  (* charge this read's generated kernel; [prefix] keeps IBX and JSONL
     child-table kernels apart from their base formats' *)
  let jit ?(prefix = "") fmt template_key =
    charge_template cat ~mode ~kind:(fmt ^ ".jit")
      (template_key ~phase:(prefix ^ phase) ~table:entry.name ~needed:cols
         ~policy)
  in
  match entry.format with
  | Format_kind.Csv { sep } -> (
    match rows with
    | All ->
      let posmap = entry.state.posmap in
      let build_pm = posmap = None && tracked <> [] && mode <> External in
      Trace.decision ~site:"posmap"
        ~choice:
          (if build_pm then "build" else if posmap <> None then "have" else "skip")
        [ ("table", entry.name); ("tracked", string_of_int (List.length tracked)) ];
      let tracked = if build_pm then tracked else [] in
      jit "csv" (Scan_csv.template_key ~sep ~tracked);
      let columns, pm =
        Scan_csv.par_scan ~mode:smode ~policy ~parallelism:(parallelism cat)
          ~file:(Catalog.file cat entry) ~sep ~schema:entry.schema ~needed:cols
          ~tracked ()
      in
      Option.iter (Catalog.set_posmap cat entry) pm;
      columns
    | Ids rowids ->
      let posmap = need "CSV fetch without positional map" entry.state.posmap in
      let tracked = Array.to_list (Posmap.tracked posmap) in
      Trace.decision ~site:"posmap" ~choice:"use"
        [ ("table", entry.name); ("tracked", string_of_int (List.length tracked)) ];
      jit "csv" (Scan_csv.template_key ~sep ~tracked);
      Scan_csv.fetch ~mode:smode ~policy ~file:(Catalog.file cat entry) ~sep
        ~schema:entry.schema ~posmap ~cols ~rowids ())
  | Format_kind.Jsonl -> (
    jit "jsonl" Scan_jsonl.template_key;
    match rows with
    | All ->
      let columns, starts =
        Scan_jsonl.seq_scan ~mode:smode ~policy ~file:(Catalog.file cat entry)
          ~schema:entry.schema ~needed:cols ()
      in
      if mode <> External && entry.state.row_starts = None then
        Catalog.set_row_starts cat entry starts;
      columns
    | Ids rowids ->
      let row_starts = need "JSONL fetch without row index" entry.state.row_starts in
      Scan_jsonl.fetch ~mode:smode ~policy ~file:(Catalog.file cat entry)
        ~schema:entry.schema ~row_starts ~cols ~rowids ())
  | Format_kind.Jsonl_array _ ->
    jit ~prefix:"arr-" "jsonl" Scan_jsonl.template_key;
    Scan_jsonl.scan_array ~mode:smode ~policy ~file:(Catalog.file cat entry)
      ~schema:entry.schema ~index:(Catalog.jarr_index cat entry) ~needed:cols
      ~rowids:ids ()
  | Format_kind.Fwb -> (
    jit "fwb" Scan_fwb.template_key;
    let file = Catalog.file cat entry and layout = Catalog.fwb_layout entry in
    match rows with
    | All ->
      Scan_fwb.par_scan ~mode:smode ~policy ~parallelism:(parallelism cat) ~file
        ~layout ~schema:entry.schema ~needed:cols ()
    | Ids rowids ->
      Scan_fwb.fetch ~mode:smode ~file ~layout ~schema:entry.schema ~cols ~rowids)
  | Format_kind.Ibx ->
    (* the data region is FWB; its layout comes from the footer *)
    let meta = Catalog.ibx_meta cat entry in
    jit ~prefix:"ibx-" "fwb" Scan_fwb.template_key;
    let rowids =
      match rows with All -> Sel.range 0 meta.Ibx.n_rows | Ids r -> r
    in
    Scan_fwb.fetch ~mode:smode ~file:(Catalog.file cat entry)
      ~layout:meta.Ibx.layout ~schema:entry.schema ~cols ~rowids
  | Format_kind.Hep_events -> (
    jit "hep" Scan_hep.template_key;
    let reader = Catalog.hep_reader cat entry in
    match rows with
    | All ->
      Scan_hep.par_scan_events ~mode:smode ~policy ~parallelism:(parallelism cat)
        ~reader ~needed:cols ~rowids:None ()
    | Ids rowids ->
      Scan_hep.scan_events ~mode:smode ~reader ~needed:cols
        ~rowids:(Some (hep_entry_rowids cat ~entry rowids)) ())
  | Format_kind.Hep_particles coll -> (
    jit "hep" Scan_hep.template_key;
    let reader = Catalog.hep_reader cat entry
    and index = Catalog.hep_index cat entry in
    match rows with
    | All ->
      Scan_hep.par_scan_particles ~mode:smode ~parallelism:(parallelism cat)
        ~reader ~coll ~index ~needed:cols ~rowids:None
    | Ids _ ->
      Scan_hep.scan_particles ~mode:smode ~reader ~coll ~index ~needed:cols
        ~rowids:ids)

(* A full-table [read]; its complete columns feed the statistics store.
   [path] is the [access.path] decision that chose the scan, recorded
   inside its span with the rows it read. *)
let full_scan ?path cat ~mode ~(entry : Catalog.entry) ~tracked ~cols =
  Trace.with_span ~cat:"scan" "scan.full"
    ~args:
      [
        ("table", entry.name);
        ("format", Format_kind.to_string entry.format);
        ("kernel", Scan_csv.mode_to_string (scan_mode mode));
      ]
  @@ fun () ->
  let columns = read cat ~mode ~entry ~tracked ~cols All in
  List.iteri
    (fun k c ->
      Table_stats.observe (Catalog.stats cat) ~table:entry.name ~col:c
        columns.(k))
    cols;
  (* a CSV pass sizes the table as it goes (Skip_row keeps the rows the
     count pass would), so no count pass need precede it *)
  (match entry.format with
   | Format_kind.Csv _ when cols <> [] ->
     Catalog.set_n_rows entry (Column.length columns.(0))
   | _ -> ());
  Option.iter
    (fun (choice, inputs) ->
      Trace.decision ~site:"access.path" ~choice
        ((("table", entry.name) :: inputs)
        @ [ ("rows", string_of_int (Column.length columns.(0))) ]))
    path;
  columns

(* One full read of [cols], pooling each complete column the budget can
   hold: pooling is an optimization, never a correctness requirement. *)
let scan_and_pool cat ~mode ~(entry : Catalog.entry) ~tracked ~path cols =
  let full = full_scan ~path cat ~mode ~entry ~tracked ~cols in
  List.iteri
    (fun k c ->
      if Catalog.reserve_bytes cat (Column.byte_size full.(k)) then
        Shred_pool.put (Catalog.shreds cat)
          { Shred_pool.table = entry.name; column = c }
          full.(k)
      else Metrics.incr Metrics.gov_fallback_shred_pool)
    cols;
  full

(* Can a CSV positional fetch reach these columns? Non-CSV formats always
   compute positions. *)
let fetchable (entry : Catalog.entry) cols =
  match entry.format with
  | Format_kind.Csv _ ->
    (match entry.state.posmap with
     | None -> false
     | Some posmap -> Scan_csv.can_fetch ~schema:entry.schema ~posmap ~cols)
  | Format_kind.Jsonl -> entry.state.row_starts <> None
  | Format_kind.Jsonl_array _ | Format_kind.Fwb | Format_kind.Ibx
  | Format_kind.Hep_events | Format_kind.Hep_particles _ ->
    true

(* ------------------------------------------------------------------ *)
(* DBMS mode                                                           *)
(* ------------------------------------------------------------------ *)

(* every schema column, loaded on first use *)
let loaded cat (entry : Catalog.entry) =
  match entry.state.loaded with
  | Some columns -> columns
  | None ->
    let cols = all_schema_cols entry in
    let columns = full_scan cat ~mode:Dbms ~entry ~tracked:[] ~cols in
    Metrics.add Metrics.dbms_columns_loaded (Array.length columns);
    Catalog.set_loaded entry columns;
    columns

(* ------------------------------------------------------------------ *)
(* fetch_columns                                                       *)
(* ------------------------------------------------------------------ *)

let fetch_columns cat ~mode ~(entry : Catalog.entry) ~tracked ~cols ~rowids =
  match mode with
  | Dbms ->
    let loaded = loaded cat entry in
    Metrics.add Metrics.dbms_values_gathered (Array.length rowids * List.length cols);
    Array.of_list (List.map (fun c -> Column.gather loaded.(c) rowids) cols)
  | External ->
    (* the external-table operator re-converts the whole file every time *)
    let full = full_scan cat ~mode ~entry ~tracked:[] ~cols:(all_schema_cols entry) in
    Array.of_list
      (List.map (fun c -> Column.gather full.(c) rowids) cols)
  | In_situ | Jit ->
    Trace.with_span ~cat:"scan" "scan.fetch"
      ~args:
        [ ("table", entry.name); ("rows", string_of_int (Array.length rowids)) ]
    @@ fun () ->
    let pool = Catalog.shreds cat in
    let n_rows = Catalog.n_rows cat entry in
    let results : (int, Column.t) Hashtbl.t = Hashtbl.create 8 in
    (* 1. serve what the shred pool subsumes *)
    let uncovered =
      List.filter
        (fun c ->
          let key = { Shred_pool.table = entry.name; column = c } in
          match Shred_pool.find pool key with
          | Some shred when Shred_pool.subsumes shred rowids ->
            Shred_pool.record_hit pool;
            Metrics.add Metrics.pool_values_gathered (Array.length rowids);
            Hashtbl.replace results c (Column.gather (Shred_pool.column shred) rowids);
            false
          | _ ->
            Shred_pool.record_miss pool;
            true)
        cols
    in
    if List.length uncovered < List.length cols then
      Trace.decision ~site:"shred_pool" ~choice:"reuse"
        [
          ("table", entry.name);
          ( "columns",
            string_of_int (List.length cols - List.length uncovered) );
          ("rows", string_of_int (Array.length rowids));
        ];
    (* 2. split the rest by how the raw file can be reached *)
    let reachable, unreachable = List.partition (fun c -> fetchable entry [ c ]) uncovered in
    (* 2a. columns with no way to navigate point-wise: full scan, pool the
       complete columns *)
    let scan_and_pool ?(why = []) cols =
      if cols <> [] then begin
        let path =
          ("full_scan_pool", ("columns", string_of_int (List.length cols)) :: why)
        in
        let full = scan_and_pool cat ~mode ~entry ~tracked ~path cols in
        List.iteri (fun k c -> Hashtbl.replace results c (Column.gather full.(k) rowids)) cols
      end
    in
    scan_and_pool unreachable;
    (* 2b. point-fetch missing rows, filling pooled shreds in place;
       columns sharing a missing-row signature fetch together (one pass
       per row over the file). A pooled shred is a full-length column; if
       the budget cannot hold one, degrade that column to a streaming
       point-fetch of just the requested rows — correct, cached nowhere. *)
    let reachable, streaming =
      List.partition
        (fun c ->
          let key = { Shred_pool.table = entry.name; column = c } in
          Shred_pool.find pool key <> None
          (* values and validity, 9 bytes a row, plus a coverage bit *)
          || Catalog.reserve_bytes cat ((9 * n_rows) + ((n_rows + 7) / 8)))
        reachable
    in
    (* the reservations above may have evicted this table's own positional
       map or row index: then the columns that needed it are read by a
       full scan instead *)
    let reachable, streaming =
      if fetchable entry (reachable @ streaming) then (reachable, streaming)
      else begin
        scan_and_pool ~why:[ ("reason", "index_evicted") ] (reachable @ streaming);
        ([], [])
      end
    in
    if streaming <> [] then begin
      Metrics.add Metrics.gov_fallback_streaming (List.length streaming);
      Trace.decision ~site:"access.path" ~choice:"stream"
        [
          ("table", entry.name);
          ("columns", string_of_int (List.length streaming));
          ("reason", "memory_budget");
        ];
      let packed = read cat ~mode ~entry ~tracked ~cols:streaming (Ids rowids) in
      List.iteri (fun k c -> Hashtbl.replace results c packed.(k)) streaming
    end;
    if reachable <> [] then begin
      Trace.decision ~site:"access.path" ~choice:"point_fetch"
        [
          ("table", entry.name);
          ("columns", string_of_int (List.length reachable));
        ];
      let with_missing =
        List.map
          (fun c ->
            let key = { Shred_pool.table = entry.name; column = c } in
            let shred =
              Shred_pool.ensure pool key ~n_rows ~dtype:(Schema.dtype entry.schema c)
            in
            (c, shred, Shred_pool.missing shred rowids))
          reachable
      in
      let groups : (int array * (int * Shred_pool.shred) list ref) list ref = ref [] in
      List.iter
        (fun (c, shred, missing) ->
          match List.find_opt (fun (m, _) -> m = missing) !groups with
          | Some (_, l) -> l := (c, shred) :: !l
          | None -> groups := (missing, ref [ (c, shred) ]) :: !groups)
        with_missing;
      List.iter
        (fun (missing, members) ->
          let members = List.rev !members in
          let cols = List.map fst members in
          if Array.length missing > 0 then begin
            let packed = read cat ~mode ~entry ~tracked ~cols (Ids missing) in
            List.iteri
              (fun k (_, shred) -> Shred_pool.fill shred missing packed.(k))
              members
          end;
          List.iter
            (fun (c, shred) ->
              Metrics.add Metrics.pool_values_gathered (Array.length rowids);
              Hashtbl.replace results c (Column.gather (Shred_pool.column shred) rowids))
            members)
        (List.rev !groups)
    end;
    Array.of_list (List.map (fun c -> Hashtbl.find results c) cols)

(* The complete pooled column, if the pool holds one. *)
let pooled cat (entry : Catalog.entry) c =
  match Shred_pool.find (Catalog.shreds cat) { Shred_pool.table = entry.name; column = c } with
  | Some shred when Shred_pool.complete shred -> Some (Shred_pool.column shred)
  | Some _ | None -> None

let needs_pass cat ~mode (entry : Catalog.entry) cols =
  match mode, entry.format with
  | (In_situ | Jit), Format_kind.Csv _ ->
    List.exists (fun c -> Option.is_none (pooled cat entry c) && not (fetchable entry [ c ])) cols
  | (In_situ | Jit), _ | (Dbms | External), _ -> false

(* The one pass over a CSV file that no positional map reaches: it
   converts every column the query reads that the pool does not hold
   complete, for every row, and sizes the table. The query gets the
   columns whether or not the pool keeps them. *)
let one_pass cat ~mode ~(entry : Catalog.entry) ~tracked cols =
  let held = List.map (fun c -> (c, pooled cat entry c)) cols in
  let cold = List.filter_map (fun (c, h) -> if Option.is_none h then Some c else None) held in
  let pool = Catalog.shreds cat in
  List.iter
    (fun (_, h) -> if Option.is_none h then Shred_pool.record_miss pool else Shred_pool.record_hit pool)
    held;
  let path =
    ("one_pass", [ ("columns", String.concat "," (List.map (Schema.name entry.schema) cold)) ])
  in
  let full = scan_and_pool cat ~mode ~entry ~tracked ~path cold in
  let converted = List.combine cold (Array.to_list full) in
  Array.of_list
    (List.map (fun (c, h) -> match h with Some col -> col | None -> List.assoc c converted) held)

let read_table cat ~mode ~(entry : Catalog.entry) ~tracked ~cols =
  if needs_pass cat ~mode entry cols then begin
    let columns = one_pass cat ~mode ~entry ~tracked cols in
    (columns, Sel.range 0 (Column.length columns.(0)))
  end
  else begin
    (* DBMS mode loads, and so sizes, the table before anything counts it *)
    if mode = Dbms then ignore (loaded cat entry);
    let rowids = Sel.range 0 (Catalog.n_rows cat entry) in
    (fetch_columns cat ~mode ~entry ~tracked ~cols ~rowids, rowids)
  end

let held cat ~mode (entry : Catalog.entry) col =
  match mode with
  | Dbms -> entry.state.loaded <> None
  | External -> false
  | In_situ | Jit ->
    Shred_pool.find (Catalog.shreds cat)
      { Shred_pool.table = entry.name; column = col }
    <> None

(* ------------------------------------------------------------------ *)
(* Operators                                                           *)
(* ------------------------------------------------------------------ *)

let base_scan cat (entry : Catalog.entry) =
  let n = Catalog.n_rows cat entry in
  let chunk_rows = (Catalog.config cat).chunk_rows in
  let next_start = ref 0 in
  Operator.of_fn ()
    ~next:(fun () ->
      if !next_start >= n then None
      else begin
        let start = !next_start in
        let len = min chunk_rows (n - start) in
        next_start := start + len;
        Some
          (Chunk.of_columns
             [ Column.of_int_array (Sel.range start len) ])
      end)

let late_scan cat ~mode ~entry ~tracked ~cols ~rowid_pos input =
  Operator.map_chunks
    (fun chunk ->
      let rowids = Column.int_array (Chunk.column chunk rowid_pos) in
      let new_cols = fetch_columns cat ~mode ~entry ~tracked ~cols ~rowids in
      Array.fold_left Chunk.append_column chunk new_cols)
    input

(* ------------------------------------------------------------------ *)
(* Index-based access (paper: exploit indexes embedded in the format)  *)
(* ------------------------------------------------------------------ *)

let index_range cat ~mode (entry : Catalog.entry) ~col ~lo ~hi =
  match entry.format with
  | Format_kind.Ibx ->
    let meta = Catalog.ibx_meta cat entry in
    let src = (Schema.field entry.schema col).Schema.source_index in
    if src <> meta.Ibx.indexed_field then None
    else begin
      charge_template cat ~mode ~kind:"ibx.index"
        (Printf.sprintf "ibx-index|%s|field=%d" entry.name src);
      Metrics.add Metrics.ibx_index_nodes
        (Ibx.index_nodes_visited (Catalog.file cat entry) meta ~lo ~hi);
      Some (Ibx.lookup_range (Catalog.file cat entry) meta ~lo ~hi)
    end
  | Format_kind.Csv _ | Format_kind.Jsonl | Format_kind.Jsonl_array _
  | Format_kind.Fwb | Format_kind.Hep_events | Format_kind.Hep_particles _ ->
    None

let rowid_scan cat rowids =
  let chunk_rows = (Catalog.config cat).Config.chunk_rows in
  let n = Array.length rowids in
  let next_start = ref 0 in
  Operator.of_fn ()
    ~next:(fun () ->
      if !next_start >= n then None
      else begin
        let start = !next_start in
        let len = min chunk_rows (n - start) in
        next_start := start + len;
        Some
          (Chunk.of_columns [ Column.of_int_array (Array.sub rowids start len) ])
      end)
