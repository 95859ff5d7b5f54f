open Raw_vector
open Raw_storage
open Raw_formats
module Metrics = Raw_obs.Metrics

(* Every structure RAW derives from one version of a raw file. An entry
   holds exactly one; a verified append extends it in place, and any
   other change swaps in a fresh one whole, so nothing derived from
   replaced bytes can survive. *)
type state = {
  mutable file : Mmap_file.t option;
  mutable hep : Hep.Reader.t option;
  mutable posmap : Posmap.t option;
  mutable loaded : Column.t array option;
  mutable n_rows : int option;
  mutable hep_index : (int array * int array) option;
  mutable row_starts : int array option;
  mutable jarr_index : (int array * int array) option;
  mutable ibx : Ibx.meta option;
  mutable identity : File_id.t option;
      (* dev/ino/mtime/size of the bytes read *)
}

let fresh_state () =
  { file = None; hep = None; posmap = None; loaded = None; n_rows = None;
    hep_index = None; row_starts = None; jarr_index = None; ibx = None;
    identity = None }

type entry = {
  name : string;
  path : string;
  format : Format_kind.t;
  schema : Schema.t;
  mutable state : state;
}

type t = {
  entries : (string, entry) Hashtbl.t;
  config : Config.t;
  shreds : Shred_pool.t;
  templates : Template_cache.t;
  stats : Table_stats.t;
  hep_readers : (string, Hep.Reader.t) Hashtbl.t;
      (* one reader (and mapped file) per path, shared by the four views *)
  budget : Mem_budget.t option;
}

(* the files behind [entries], each once (the four HEP views share one) *)
let files entries =
  List.fold_left
    (fun acc e ->
      match e.state.file with
      | Some f when not (List.memq f acc) -> f :: acc
      | Some _ | None -> acc)
    [] entries

let open_files t = files (List.of_seq (Hashtbl.to_seq_values t.entries))

let sorted_entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.entries []
  |> List.sort (fun a b -> String.compare a.name b.name)

let index_bytes (a, b) = 8 * (Array.length a + Array.length b)

(* The degradation ladder: under pressure the budget drops consumers'
   items in this priority order. Priority 0 is reserved for the result cache
   (registered by Stmt_cache — pure derived data, cheapest to lose), then
   cold shreds (the next query re-fetches the rows it needs), then
   templates (recompiling re-charges simulated compile latency), then
   positional maps and structure indexes (the next query re-tokenizes, or
   re-reads the index slots and collection headers), and only last the
   simulated file page cache (re-reads charge simulated I/O). *)
let register_consumers t budget =
  let register name priority items = Mem_budget.register budget ~name ~priority ~items in
  let item bytes drop = if bytes > 0 then Some { Mem_budget.bytes; drop } else None in
  register "shreds" 1 (fun () -> Shred_pool.items t.shreds);
  register "templates" 2 (fun () -> Template_cache.items t.templates);
  (* whole per-table structure indexes, in name order for determinism,
     then each HEP file's decoded event offsets, in path order; all are
     rebuilt from the raw file on demand *)
  register "posmaps" 3 (fun () ->
      List.filter_map
        (fun e ->
          let s = e.state in
          let size f = Option.fold ~none:0 ~some:f in
          let bytes =
            size Posmap.byte_size s.posmap
            + size (fun a -> 8 * Array.length a) s.row_starts
            + size index_bytes s.hep_index + size index_bytes s.jarr_index
          in
          item bytes (fun () ->
              s.posmap <- None;
              s.row_starts <- None;
              s.hep_index <- None;
              s.jarr_index <- None;
              Raw_obs.Trace.decision ~site:"governance" ~choice:"evict_posmap"
                [ ("table", e.name); ("freed_bytes", string_of_int bytes) ]))
        (sorted_entries t)
      @ (Hashtbl.fold (fun path r acc -> (path, r) :: acc) t.hep_readers []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.filter_map (fun (path, r) ->
               let bytes = Hep.Reader.offsets_bytes r in
               item bytes (fun () ->
                   Hep.Reader.drop_offsets r;
                   Raw_obs.Trace.decision ~site:"governance"
                     ~choice:"evict_event_offsets"
                     [ ("path", path); ("freed_bytes", string_of_int bytes) ]))));
  register "file_pages" 4 (fun () ->
      let ps = t.config.Config.mmap.Mmap_file.Config.page_size in
      List.filter_map
        (fun f -> item (ps * Mmap_file.resident_pages f) (fun () -> Mmap_file.drop_cache f))
        (open_files t))

let create ?(config = Config.default) () =
  let config = Config.check config in
  let t =
    {
      entries = Hashtbl.create 16;
      config;
      shreds = Shred_pool.create ~capacity:config.shred_pool_columns;
      templates = Template_cache.create ~compile_seconds:config.compile_seconds;
      stats = Table_stats.create ();
      hep_readers = Hashtbl.create 4;
      budget =
        Option.map
          (fun b -> Mem_budget.create ~capacity_bytes:b)
          config.memory_budget;
    }
  in
  Option.iter (register_consumers t) t.budget;
  Metrics.set Metrics.gov_budget_capacity_bytes
    (match config.memory_budget with Some b -> float_of_int b | None -> 0.);
  t

let config t = t.config
let shreds t = t.shreds
let templates t = t.templates
let stats t = t.stats
let budget t = t.budget

let reserve_bytes t bytes =
  match t.budget with None -> true | Some b -> Mem_budget.reserve b ~bytes

let register t ~name ~path ~format ~schema =
  if Hashtbl.mem t.entries name then
    invalid_arg ("Catalog.register: duplicate table " ^ name);
  (match format with
   | Format_kind.Fwb | Format_kind.Ibx ->
     List.iter
       (fun (f : Schema.field) ->
         if Dtype.equal f.dtype Dtype.String then
           invalid_arg "Catalog.register: FWB tables cannot have String columns")
       (Schema.fields schema)
   | Format_kind.Hep_events | Format_kind.Hep_particles _ ->
     if Schema.arity schema > 0 then
       invalid_arg "Catalog.register: HEP schemas are fixed; use register_hep"
   | Format_kind.Csv _ | Format_kind.Jsonl | Format_kind.Jsonl_array _ -> ());
  let schema =
    match format with
    | Format_kind.Hep_events -> Format_kind.hep_event_schema
    | Format_kind.Hep_particles _ -> Format_kind.hep_particle_schema
    | _ -> schema
  in
  Hashtbl.replace t.entries name
    { name; path; format; schema; state = fresh_state () }

let register_hep t ~name_prefix ~path =
  let empty = Schema.make [] in
  register t ~name:(name_prefix ^ "_events") ~path ~format:Format_kind.Hep_events
    ~schema:empty;
  List.iter
    (fun (coll, suffix) ->
      register t
        ~name:(name_prefix ^ suffix)
        ~path
        ~format:(Format_kind.Hep_particles coll)
        ~schema:empty)
    [ (Hep.Muons, "_muons"); (Hep.Electrons, "_electrons"); (Hep.Jets, "_jets") ]

let find t name = Hashtbl.find_opt t.entries name

let get t name =
  match find t name with
  | Some e -> e
  | None -> raise Not_found

let mem t name = Hashtbl.mem t.entries name

let tables t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.entries [] |> List.sort String.compare

let file t entry =
  match entry.state.file with
  | Some f -> f
  | None ->
    let f = Mmap_file.open_file ~config:t.config.mmap entry.path in
    entry.state.file <- Some f;
    entry.state.identity <- Mmap_file.identity f;
    f

let hep_reader t entry =
  match entry.state.hep with
  | Some r -> r
  | None ->
    let r =
      match Hashtbl.find_opt t.hep_readers entry.path with
      | Some r -> r
      | None ->
        let r =
          Hep.Reader.open_file ~config:t.config.mmap entry.path
        in
        Hashtbl.replace t.hep_readers entry.path r;
        r
    in
    entry.state.hep <- Some r;
    (* share the underlying mapped file so page accounting is unified *)
    entry.state.file <- Some (Hep.Reader.file r);
    entry.state.identity <- Mmap_file.identity (Hep.Reader.file r);
    r

let dtypes_of_schema schema =
  Array.of_list
    (List.map (fun (f : Schema.field) -> f.dtype) (Schema.fields schema))

let fwb_layout entry =
  match entry.format with
  | Format_kind.Fwb -> Fwb.layout (dtypes_of_schema entry.schema)
  | _ -> invalid_arg "Catalog.fwb_layout: not an FWB table"

let ibx_meta t entry =
  match entry.state.ibx with
  | Some m -> m
  | None ->
    (match entry.format with
     | Format_kind.Ibx ->
       let m =
         Ibx.read_meta (file t entry) ~dtypes:(dtypes_of_schema entry.schema)
       in
       entry.state.ibx <- Some m;
       entry.state.n_rows <- Some m.Ibx.n_rows;
       m
     | _ -> invalid_arg "Catalog.ibx_meta: not an IBX table")

(* Which entry ids a pass over a HEP file enumerates under the session
   error policy (lenient policies walk only the structurally valid
   entries, recording the rest — see Scan_hep). *)
let hep_entry_ids t r =
  match t.config.Config.on_error with
  | Scan_errors.Fail_fast -> Sel.range 0 (Hep.Reader.n_events r)
  | Scan_errors.Skip_row | Scan_errors.Null_fill ->
    Hep.Reader.record_invalid_entries r;
    Hep.Reader.valid_entries r

(* A count pass over the enumerated entries, then exact-size arrays. *)
let build_hep_index t entry coll =
  let r = hep_reader t entry in
  let ids = hep_entry_ids t r in
  let lens = Array.map (fun e -> Hep.Reader.collection_length r e coll) ids in
  let n = Array.fold_left ( + ) 0 lens in
  let entry_of = Array.make n 0 and item_of = Array.make n 0 in
  let row = ref 0 in
  Array.iteri
    (fun k e ->
      for i = 0 to lens.(k) - 1 do
        entry_of.(!row) <- e;
        item_of.(!row) <- i;
        incr row
      done)
    ids;
  (entry_of, item_of)

(* A row-id index (HEP particles, JSONL child elements) is retained only
   if the budget can hold it, like a positional map; either way it sets
   the row count. *)
let retain_index t entry idx set =
  if reserve_bytes t (index_bytes idx) then set (Some idx)
  else Metrics.incr Metrics.gov_fallback_posmap;
  entry.state.n_rows <- Some (Array.length (fst idx));
  idx

let hep_index t entry =
  match entry.state.hep_index with
  | Some idx -> idx
  | None ->
    (match entry.format with
     | Format_kind.Hep_particles coll ->
       retain_index t entry (build_hep_index t entry coll) (fun i ->
           entry.state.hep_index <- i)
     | _ -> invalid_arg "Catalog.hep_index: not a HEP particle table")

(* Row starts are the JSONL positional map: retained only if the budget
   can hold them, else counted as a governance fallback. *)
let set_row_starts t entry starts =
  if reserve_bytes t (8 * Array.length starts) then
    entry.state.row_starts <- Some starts
  else Metrics.incr Metrics.gov_fallback_posmap

(* The JSONL row pass from [pos] (a line start) on. Under Skip_row, row
   identity = the Skip_row scan's acceptance logic, not the physical line
   structure; child (array) tables keep the structural walk — their
   schema describes elements, not parent lines. *)
let jsonl_starts t entry ?pos file =
  match entry.format, t.config.Config.on_error with
  | Format_kind.Jsonl, Scan_errors.Skip_row ->
    Scan_jsonl.valid_row_starts ?pos ~file ~schema:entry.schema ~record:true ()
  | _ -> Jsonl.row_starts ?pos file

let jsonl_row_starts t entry =
  match entry.state.row_starts with
  | Some starts -> starts
  | None ->
    let starts = jsonl_starts t entry (file t entry) in
    set_row_starts t entry starts;
    starts

let jarr_index t entry =
  match entry.state.jarr_index with
  | Some idx -> idx
  | None ->
    (match entry.format with
     | Format_kind.Jsonl_array { array_path } ->
       retain_index t entry
         (Scan_jsonl.array_index ~file:(file t entry)
            ~row_starts:(jsonl_row_starts t entry)
            ~array_path:(String.split_on_char '.' array_path))
         (fun i -> entry.state.jarr_index <- i)
     | _ -> invalid_arg "Catalog.jarr_index: not a JSONL child table")

(* The CSV sizing pass, over [range] (row-aligned) or the whole file.
   Skip_row row identity is schema-wide validation, so it must apply the
   same acceptance logic (and, being a real pass over the data, it
   records what it rejects). *)
let csv_rows t entry ~sep ?range file =
  match t.config.Config.on_error with
  | Scan_errors.Skip_row ->
    Scan_csv.count_valid_rows ?range ~file ~sep ~schema:entry.schema ~record:true ()
  | Scan_errors.Fail_fast | Scan_errors.Null_fill ->
    Csv.count_rows ?pos:(Option.map fst range) file

let n_rows t entry =
  match entry.state.n_rows with
  | Some n -> n
  | None ->
    let policy = t.config.Config.on_error in
    let n =
      match entry.format with
      | Format_kind.Csv { sep } -> csv_rows t entry ~sep (file t entry)
      | Format_kind.Jsonl -> Array.length (jsonl_row_starts t entry)
      | Format_kind.Jsonl_array _ -> Array.length (fst (jarr_index t entry))
      | Format_kind.Fwb ->
        Scan_fwb.row_bound ~policy (fwb_layout entry) (file t entry)
      | Format_kind.Ibx -> (ibx_meta t entry).Ibx.n_rows
      | Format_kind.Hep_events ->
        Array.length (hep_entry_ids t (hep_reader t entry))
      | Format_kind.Hep_particles _ -> Array.length (fst (hep_index t entry))
    in
    entry.state.n_rows <- Some n;
    n

let set_n_rows entry n = entry.state.n_rows <- Some n

(* A positional map is only retained if the budget can hold it; otherwise
   the next query re-tokenizes (counted as a governance fallback). *)
let set_posmap t entry pm =
  if reserve_bytes t (Posmap.byte_size pm) then begin
    entry.state.posmap <- Some pm;
    Raw_obs.Trace.decision ~site:"governance" ~choice:"retain_posmap"
      [
        ("table", entry.name);
        ("bytes", string_of_int (Posmap.byte_size pm));
      ]
  end
  else begin
    Metrics.incr Metrics.gov_fallback_posmap;
    Raw_obs.Trace.decision ~site:"governance" ~choice:"drop_posmap"
      [
        ("table", entry.name);
        ("bytes", string_of_int (Posmap.byte_size pm));
        ("reason", "memory_budget");
      ]
  end

let set_loaded entry columns = entry.state.loaded <- Some columns

let drop_file_caches t = List.iter Mmap_file.drop_cache (open_files t)

let forget_data_state t =
  Hashtbl.iter
    (fun _ e ->
      let s = e.state in
      s.posmap <- None;
      s.loaded <- None;
      s.row_starts <- None;
      s.jarr_index <- None;
      Option.iter
        (fun r ->
          Hep.Reader.clear_object_cache r;
          Hep.Reader.drop_offsets r)
        s.hep)
    t.entries;
  Shred_pool.clear t.shreds

let forget_adaptive_state t =
  forget_data_state t;
  Table_stats.clear t.stats;
  Template_cache.clear t.templates

(* ------------------------------------------------------------------ *)
(* File identity: extension and invalidation                           *)
(* ------------------------------------------------------------------ *)

(* Drop every per-file structure for every entry sharing [path] (the four
   HEP views share one file). Pooled shreds hold the stale values too, so
   those tables' shreds go with it. Does nothing to stats/templates: column
   stats only steer cost estimates and the next complete-column scan
   replaces them, and compiled templates key on schema, not content. *)
let invalidate_path t path =
  let touched = ref [] in
  Hashtbl.iter
    (fun _ e ->
      if String.equal e.path path then begin
        if e.state.identity <> None || e.state.file <> None then
          touched := e.name :: !touched;
        e.state <- fresh_state ();
        let stale =
          Shred_pool.fold
            (fun (k : Shred_pool.key) _ acc ->
              if String.equal k.table e.name then k :: acc else acc)
            t.shreds []
        in
        List.iter (Shred_pool.remove t.shreds) stale
      end)
    t.entries;
  Hashtbl.remove t.hep_readers path;
  List.sort String.compare !touched

(* Why [now] is not [old] grown by an append, if it is not. *)
let not_grown (old : File_id.t) (now : File_id.t option) =
  match now with
  | None -> Some "missing"
  | Some now when now.dev <> old.dev || now.ino <> old.ino -> Some "replaced"
  | Some now when now.size < old.size -> Some "truncated"
  | Some now when now.size = old.size -> Some "rewritten"
  | Some _ -> None

(* What a fresh open derives from the appended bytes [old_len, end) of
   [file]: the new rows' count and, for each structure index the entry
   holds, its entries over those rows — the same row passes, over the new
   range only. Touches no catalog state. *)
type growth = { rows : int; starts : int array option; posmap : Posmap.t option }

let growth t entry ~old_len file =
  match entry.format with
  | Format_kind.Jsonl ->
    let starts = jsonl_starts t entry ~pos:old_len file in
    { rows = Array.length starts;
      starts = Option.map (fun _ -> starts) entry.state.row_starts;
      posmap = None }
  | Format_kind.Csv { sep } ->
    let range = (old_len, Mmap_file.length file) in
    let rows = csv_rows t entry ~sep ~range file in
    let posmap =
      Option.bind entry.state.posmap (fun pm ->
          snd
            (Scan_csv.seq_scan ~mode:Scan_csv.Jit ~policy:t.config.Config.on_error
               ~range ~file ~sep ~schema:entry.schema ~needed:[]
               ~tracked:(Array.to_list (Posmap.tracked pm)) ()))
    in
    { rows; starts = None; posmap }
  | _ -> invalid_arg "Catalog.growth: not an extensible format"

let extend_entry t entry (file, g) =
  let both f a b = match (a, b) with Some a, Some b -> Some (f a b) | _ -> None in
  let s = entry.state in
  s.file <- Some file;
  s.identity <- Mmap_file.identity file;
  s.loaded <- None;
  s.row_starts <- both Array.append s.row_starts g.starts;
  s.posmap <- both (fun pm seg -> Posmap.concat [ pm; seg ]) s.posmap g.posmap;
  s.n_rows <- Option.map (( + ) g.rows) s.n_rows;
  Shred_pool.fold
    (fun (k : Shred_pool.key) shred acc ->
      if String.equal k.table entry.name then (k, shred) :: acc else acc)
    t.shreds []
  |> List.iter (fun (k, shred) ->
         match s.n_rows with
         | Some n_rows -> Shred_pool.grow shred ~n_rows
         | None -> Shred_pool.remove t.shreds k)

(* The changed entries of one path extend iff every one of them is a
   CSV or JSONL table whose file only grew (same device and inode, larger
   size), was opened without an injected fault, ended in a newline, and
   is byte for byte a prefix of the file as read now ({!Mmap_file.extend}:
   the read a fresh open would pay, an exact compare, no hash). Nothing
   is changed unless all of them extend. Returns the old bytes verified
   and the rows appended, or why not. *)
let try_extend t ~now changed =
  let ( let* ) = Result.bind in
  let check cond reason = if cond then Ok () else Error reason in
  let all f = List.for_all f changed in
  let held e = Option.get e.state.file in
  let stamp_reason e now = not_grown (Option.get e.state.identity) now in
  let* () =
    check
      (all (fun e ->
           match e.format with
           | Format_kind.Csv _ | Format_kind.Jsonl -> e.state.file <> None
           | _ -> false))
      "format"
  in
  let* () = Option.fold ~none:(Ok ()) ~some:Result.error (List.find_map (fun e -> stamp_reason e now) changed) in
  let ends_in_newline f =
    let n = Mmap_file.length f in
    n > 0 && Bytes.get (Mmap_file.bytes f) (n - 1) = '\n'
  in
  let* () = check (all (fun e -> ends_in_newline (held e))) "partial_line" in
  let rec grown acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest ->
      let old = held e in
      (match Mmap_file.extend ~old e.path with
       | Ok file -> (
         match growth t e ~old_len:(Mmap_file.length old) file with
         | g -> grown ((file, g) :: acc) rest
         | exception Scan_errors.Error _ -> Error "scan_error")
       | Error `Fault -> Error "fault"
       | Error `Prefix -> Error "prefix"
       | Error (`Stamp stamp) ->
         Error (Option.value ~default:"changed" (stamp_reason e (Some stamp)))
       | exception Sys_error _ -> Error "missing")
  in
  let* extended = grown [] changed in
  let verified = List.fold_left (fun a e -> max a (Mmap_file.length (held e))) 0 changed in
  List.iter2 (extend_entry t) changed extended;
  Ok (verified, List.fold_left (fun a (_, g) -> a + g.rows) 0 extended)

(* The entries backed by [path], its current stamp, and the opened
   entries that stamp no longer matches — [None] when nothing at [path]
   was opened or nothing changed: one stat, no other work. *)
let changes t path =
  let at_path =
    Hashtbl.fold (fun _ e acc -> if String.equal e.path path then e :: acc else acc) t.entries []
  in
  match List.filter_map (fun e -> e.state.identity) at_path with
  | [] -> None (* never opened: nothing cached to go stale *)
  | stamps ->
    let now = File_id.stat path in
    let current id = match now with Some now -> File_id.equal now id | None -> false in
    if List.for_all current stamps then None
    else
      Some
        ( at_path,
          now,
          List.filter
            (fun e -> match e.state.identity with Some id -> not (current id) | None -> false)
            at_path
          |> List.sort (fun a b -> String.compare a.name b.name) )

let stale_path t path = Option.is_some (changes t path)

let refresh_path t path =
  match changes t path with
  | None -> []
  | Some (at_path, now, changed) ->
    let touched =
      List.filter (fun e -> e.state.identity <> None || e.state.file <> None) at_path
      |> List.map (fun e -> e.name)
      |> List.sort String.compare
    in
    let tables = ("tables", String.concat "," touched) in
    (match try_extend t ~now changed with
     | Ok (verified, rows) ->
       Metrics.incr Metrics.catalog_extends;
       Raw_obs.Trace.decision ~site:"catalog" ~choice:"extend_file"
         [ ("path", path); tables; ("bytes_verified", string_of_int verified);
           ("rows_appended", string_of_int rows) ]
     | Error reason ->
       ignore (invalidate_path t path);
       Metrics.incr Metrics.catalog_invalidations;
       Raw_obs.Trace.decision ~site:"catalog" ~choice:"invalidate_file"
         [ ("path", path); tables; ("reason", reason) ]);
    touched
