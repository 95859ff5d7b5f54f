open Raw_vector
open Raw_storage
open Raw_formats
module Metrics = Raw_obs.Metrics

let template_key = Scan_kit.template_key "hep"

(* [rowids] are always actual entry ids; [policy] only governs what a full
   enumeration ([rowids = None]) means. A HEP record whose structure is
   corrupt has no recoverable fields — the record boundary itself is gone —
   so {e both} lenient policies enumerate the structurally valid entries
   ([Null_fill] degrades to skip; see DESIGN.md) and record the rest. *)
let entry_ids ~policy reader = function
  | Some ids -> ids
  | None ->
    (match (policy : Scan_errors.policy) with
     | Fail_fast -> Sel.range 0 (Hep.Reader.n_events reader)
     | Skip_row | Null_fill ->
       Hep.Reader.record_invalid_entries reader;
       Hep.Reader.valid_entries reader)

(* Events and particles share one column loop. A table is described by
   [jit n col], the monomorphic reader selected once per column, and by
   [value col row], the general-purpose read that dispatches on the column
   for every value. *)
let scan ~mode ~schema ~jit ~value ~ids needed =
  let n = Array.length ids in
  let reader col =
    match (mode : Scan_csv.mode) with
    | Jit -> jit n col
    | Interpreted -> Scan_kit.values n (Schema.dtype schema col) (value col)
  in
  let columns = Scan_kit.columns ~ids n (List.map reader needed) in
  Metrics.add Metrics.hep_fields_read (n * List.length needed);
  Metrics.add Metrics.scan_values_built (n * List.length needed);
  columns

(* The field API: what the interpreted readers call per value. *)
let event_field reader col =
  match col with
  | 0 -> Hep.Reader.read_event_id reader
  | 1 -> Hep.Reader.read_run_number reader
  | _ -> invalid_arg "Scan_hep.scan_events: bad column"

(* A JIT events column: one load at the entry's decoded offset. *)
let event_column reader col =
  let field =
    match col with
    | 0 | 1 -> 8 * col
    | _ -> invalid_arg "Scan_hep.scan_events: bad column"
  in
  fun e -> Hep.Reader.read_i64 reader (Hep.Reader.event_offset reader e + field)

let scan_events ~mode ?(policy = Scan_errors.Fail_fast) ~reader ~needed
    ~rowids () =
  scan ~mode ~schema:Format_kind.hep_event_schema
    ~jit:(fun n col -> Scan_kit.ints n (event_column reader col))
    ~value:(fun col r -> Value.Int (event_field reader col r))
    ~ids:(entry_ids ~policy reader rowids) needed

let pfield_col col : Hep.pfield =
  match col with
  | 1 -> Hep.Pt
  | 2 -> Hep.Eta
  | 3 -> Hep.Phi
  | _ -> invalid_arg "Scan_hep.scan_particles: bad column"

let all_particles (entry_of, _) = function
  | Some ids -> ids
  | None -> Sel.range 0 (Array.length entry_of)

(* A JIT particle column. A table's rows run through each event's
   collection in order, so the collection's start is resolved once per
   run of rows from one event; each value is then one load. *)
let particle_column reader coll (entry_of, item_of) pfield =
  let field = Hep.Reader.pfield_offset pfield in
  let last = ref (-1) and start = ref 0 and len = ref 0 in
  fun r ->
    let e = entry_of.(r) in
    if e <> !last then begin
      let s, l = Hep.Reader.collection_span reader (Hep.Reader.event_offset reader e) coll in
      last := e;
      start := s;
      len := l
    end;
    let item = item_of.(r) in
    if item < 0 || item >= !len then
      invalid_arg (Printf.sprintf "Scan_hep.scan_particles: item %d/%d" item !len);
    Hep.Reader.read_f64 reader (!start + (item * Hep.particle_size) + field)

let scan_particles ~mode ~reader ~coll ~index ~needed ~rowids =
  let entry_of, item_of = index in
  let event r = Hep.Reader.read_event_id reader entry_of.(r) in
  let field f r =
    Hep.Reader.read_particle_field reader ~entry:entry_of.(r) coll
      ~item:item_of.(r) f
  in
  scan ~mode ~schema:Format_kind.hep_particle_schema
    ~jit:(fun n col ->
      if col = 0 then
        Scan_kit.ints n (fun r ->
            Hep.Reader.read_i64 reader (Hep.Reader.event_offset reader entry_of.(r)))
      else Scan_kit.floats n (particle_column reader coll index (pfield_col col)))
    ~value:(fun col r ->
      if col = 0 then Value.Int (event r)
      else Value.Float (field (pfield_col col) r))
    ~ids:(all_particles index rowids) needed

(* The record index (entry ids, or dense particle row ids) is the morsel
   axis: contiguous slices of the id array, one worker domain per slice
   against a forked reader. A JIT scan first decodes the entries it will
   read ([entry] maps an id to its entry), so the views share one decoded
   array and each slot is read, and its page charged, once. *)
let par ~mode ~parallelism ~reader ~entry work ids =
  let n = Array.length ids in
  match if parallelism <= 1 then [] else Morsel.split_range ~lo:0 ~hi:n ~n:parallelism with
  | [] | [ _ ] -> work reader ids
  | slices ->
    if mode = Scan_csv.Jit then Array.iter (fun i -> Hep.Reader.decode reader (entry i)) ids;
    Morsel.concat_columns
      (Morsel.fork_join
         ~fork:(fun () -> Hep.Reader.fork_view reader)
         ~absorb:(fun r ->
           Mmap_file.absorb ~into:(Hep.Reader.file reader) (Hep.Reader.file r))
         (fun r (lo, hi) -> work r (Array.sub ids lo (hi - lo)))
         slices)

let par_scan_events ~mode ?(policy = Scan_errors.Fail_fast) ~parallelism
    ~reader ~needed ~rowids () =
  (* resolve the enumeration (and its error recording) exactly once *)
  par ~mode ~parallelism ~reader ~entry:Fun.id
    (fun reader ids -> scan_events ~mode ~reader ~needed ~rowids:(Some ids) ())
    (entry_ids ~policy reader rowids)

let par_scan_particles ~mode ~parallelism ~reader ~coll ~index ~needed ~rowids =
  par ~mode ~parallelism ~reader ~entry:(Array.get (fst index))
    (fun reader ids ->
      scan_particles ~mode ~reader ~coll ~index ~needed ~rowids:(Some ids))
    (all_particles index rowids)
