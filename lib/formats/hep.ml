open Raw_storage

type particle = { pt : float; eta : float; phi : float }

type event = {
  event_id : int;
  run_number : int;
  aux : float array;
  muons : particle array;
  electrons : particle array;
  jets : particle array;
}

type coll = Muons | Electrons | Jets
type pfield = Pt | Eta | Phi

let coll_to_string = function
  | Muons -> "muons"
  | Electrons -> "electrons"
  | Jets -> "jets"

let pfield_to_string = function Pt -> "pt" | Eta -> "eta" | Phi -> "phi"

let magic = "HEPF"
let header_size = 4 + 4 + 8 + 8
let particle_size = 24 (* 3 f64 *)
let event_fixed_size = 8 + 8 + 4 + 4 + 4 + 4 (* ids, counts, n_aux *)

(* ---------- writing ---------- *)

let write_file ~path events =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let b8 = Bytes.create 8 in
      let w64 x = Bytes.set_int64_le b8 0 (Int64.of_int x); output_bytes oc b8 in
      let w32 x = Bytes.set_int32_le b8 0 (Int32.of_int x); output oc b8 0 4 in
      let wf x = Bytes.set_int64_le b8 0 (Int64.bits_of_float x); output_bytes oc b8 in
      (* header placeholder *)
      output_string oc magic;
      w32 1;
      w64 0; (* n_events, patched below *)
      w64 0; (* index_off, patched below *)
      let offsets = Buffer_int.create () in
      let n = ref 0 in
      let write_particles ps = Array.iter (fun p -> wf p.pt; wf p.eta; wf p.phi) ps in
      Seq.iter
        (fun e ->
          Buffer_int.add offsets (pos_out oc);
          incr n;
          w64 e.event_id;
          w64 e.run_number;
          w32 (Array.length e.muons);
          w32 (Array.length e.electrons);
          w32 (Array.length e.jets);
          w32 (Array.length e.aux);
          Array.iter wf e.aux;
          write_particles e.muons;
          write_particles e.electrons;
          write_particles e.jets)
        events;
      let index_off = pos_out oc in
      for i = 0 to !n - 1 do
        w64 (Buffer_int.get offsets i)
      done;
      (* patch header *)
      seek_out oc 8;
      w64 !n;
      w64 index_off)

let generate ~path ~n_events ?(n_runs = 64) ?(mean_particles = 3.0)
    ?(n_aux = 24) ~seed () =
  let st = Random.State.make [| seed |] in
  (* geometric count with the requested mean *)
  let p = 1.0 /. (1.0 +. mean_particles) in
  let geom () =
    let rec go n = if Random.State.float st 1.0 < p then n else go (n + 1) in
    go 0
  in
  let particle () =
    {
      pt = -25.0 *. log (1.0 -. Random.State.float st 1.0);
      eta = Random.State.float st 5.0 -. 2.5;
      phi = Random.State.float st (2.0 *. Float.pi) -. Float.pi;
    }
  in
  let particles () = Array.init (geom ()) (fun _ -> particle ()) in
  let events =
    Seq.init n_events (fun i ->
        {
          event_id = i;
          run_number = Random.State.int st n_runs;
          aux = Array.init n_aux (fun _ -> Random.State.float st 1.0);
          muons = particles ();
          electrons = particles ();
          jets = particles ();
        })
  in
  write_file ~path events

(* ---------- reading ---------- *)

module Reader = struct
  type t = {
    file : Mmap_file.t;
    buf : Bytes.t;
    n_events : int;
    index_off : int;
    cache : (int, event) Lru.t;
    mutable cache_hits : int;
    mutable cache_misses : int;
    mutable valid : int array option; (* entries whose spans fit; lazy *)
    mutable offsets : int array option;
        (* decoded index slots, -1 until first read; lazy, shared by views *)
  }

  (* Reads are bounds-checked against the mapped length: a corrupt record
     header or index slot pointing past EOF is malformed user data, so it
     raises the typed scan error, not Invalid_argument. *)
  let oob pos =
    Scan_errors.fail ~offset:pos ~field:(-1) ~cause:"hep: read past EOF"

  let read_i64 t pos =
    if pos < 0 || pos + 8 > Bytes.length t.buf then oob pos;
    Mmap_file.touch t.file pos 8;
    Int64.to_int (Bytes.get_int64_le t.buf pos)

  let read_i32 t pos =
    if pos < 0 || pos + 4 > Bytes.length t.buf then oob pos;
    Mmap_file.touch t.file pos 4;
    Int32.to_int (Bytes.get_int32_le t.buf pos)

  let read_f64 t pos =
    if pos < 0 || pos + 8 > Bytes.length t.buf then oob pos;
    Mmap_file.touch t.file pos 8;
    Int64.float_of_bits (Bytes.get_int64_le t.buf pos)

  let open_file ?config ?fault ?(object_cache_capacity = 4096) path =
    let file = Mmap_file.open_file ?config ?fault path in
    let buf = Mmap_file.bytes file in
    if Mmap_file.length file < header_size
       || Bytes.sub_string buf 0 4 <> magic
    then
      Scan_errors.fail ~offset:0 ~field:(-1)
        ~cause:("hep: not a HEP file: " ^ path);
    let t =
      {
        file;
        buf;
        n_events = 0;
        index_off = 0;
        cache = Lru.create ~capacity:object_cache_capacity ();
        cache_hits = 0;
        cache_misses = 0;
        valid = None;
        offsets = None;
      }
    in
    let n_events = read_i64 t 8 in
    let index_off = read_i64 t 16 in
    if n_events < 0 then
      Scan_errors.fail ~offset:8 ~field:(-1) ~cause:"hep: bad event count";
    { t with n_events; index_off }

  let file t = t.file
  let n_events t = t.n_events

  (* A reader for a worker domain: shares the underlying bytes, event
     index and decoded offsets, but owns a private page-residency view and
     a fresh object cache (the LRU is not safe for concurrent mutation).
     The coordinator absorbs the forked file's counters via
     [Mmap_file.absorb] after joining. *)
  let fork_view t =
    let cache =
      match Lru.capacity t.cache with
      | Some c -> Lru.create ~capacity:c ()
      | None -> Lru.create ()
    in
    {
      t with
      file = Mmap_file.fork_view t.file;
      cache;
      cache_hits = 0;
      cache_misses = 0;
    }

  let check_entry t entry =
    if entry < 0 || entry >= t.n_events then
      invalid_arg (Printf.sprintf "Hep.Reader: entry %d out of range" entry)

  (* The field API re-reads an entry's index slot on every call, as the
     library API it stands in for does. *)
  let slot_offset t entry =
    check_entry t entry;
    read_i64 t (t.index_off + (8 * entry))

  let read_event_id t entry = read_i64 t (slot_offset t entry)
  let read_run_number t entry = read_i64 t (slot_offset t entry + 8)

  (* The decoded offsets cover the entries whose slot lies inside the
     file; a slot past EOF is never cached, so reading it raises exactly
     where the field API would. *)
  let offsets t =
    match t.offsets with
    | Some a -> a
    | None ->
      let len = Bytes.length t.buf in
      let decodable =
        if t.index_off < 0 || t.index_off > len then 0
        else min t.n_events ((len - t.index_off) / 8)
      in
      let a = Array.make decodable (-1) in
      t.offsets <- Some a;
      a

  (* Page-accounted on the first read of a slot only. A negative offset is
     corrupt (any read at it raises) and is left undecoded. *)
  let event_offset t entry =
    let offs = offsets t in
    if entry >= 0 && entry < Array.length offs then begin
      let o = Array.unsafe_get offs entry in
      if o >= 0 then o
      else begin
        let o = slot_offset t entry in
        if o >= 0 then Array.unsafe_set offs entry o;
        o
      end
    end
    else slot_offset t entry

  let decode t entry =
    let offs = offsets t in
    if entry >= 0 && entry < Array.length offs && Array.unsafe_get offs entry < 0
    then ignore (event_offset t entry)

  let offsets_bytes t =
    match t.offsets with Some a -> 8 * Array.length a | None -> 0

  let drop_offsets t = t.offsets <- None

  (* Structural validation of one index entry: its slot must lie inside
     the file and the record it points at — fixed header, aux payload and
     all three collections — must fit between the file header and the
     index. Raw byte reads, no page accounting: validation is a metadata
     probe like the morsel boundary finder, and must not perturb the
     simulated I/O counters (or parallel and sequential scans would
     diverge). Never raises. *)
  let entry_ok t entry =
    let len = Bytes.length t.buf in
    let data_end = min t.index_off len in
    entry >= 0 && entry < t.n_events && t.index_off >= header_size
    && t.index_off + (8 * (entry + 1)) <= len
    &&
    let off =
      Int64.to_int (Bytes.get_int64_le t.buf (t.index_off + (8 * entry)))
    in
    off >= header_size
    && off + event_fixed_size <= data_end
    &&
    let n_mu = Int32.to_int (Bytes.get_int32_le t.buf (off + 16)) in
    let n_el = Int32.to_int (Bytes.get_int32_le t.buf (off + 20)) in
    let n_jet = Int32.to_int (Bytes.get_int32_le t.buf (off + 24)) in
    let n_aux = Int32.to_int (Bytes.get_int32_le t.buf (off + 28)) in
    n_mu >= 0 && n_el >= 0 && n_jet >= 0 && n_aux >= 0
    && off + event_fixed_size + (n_aux * 8)
       + ((n_mu + n_el + n_jet) * particle_size)
       <= data_end

  let valid_entries t =
    match t.valid with
    | Some v -> v
    | None ->
      let buf = Buffer_int.create ~capacity:(max t.n_events 1) () in
      for e = 0 to t.n_events - 1 do
        if entry_ok t e then Buffer_int.add buf e
      done;
      let v = Buffer_int.contents buf in
      t.valid <- Some v;
      v

  let record_invalid_entries t =
    if Array.length (valid_entries t) < t.n_events then
      for e = 0 to t.n_events - 1 do
        if not (entry_ok t e) then
          Scan_errors.record
            ~offset:(t.index_off + (8 * e))
            ~field:(-1) ~cause:"hep: corrupt event record"
      done

  (* (start offset of collection, length); collections sit after the aux
     payload, which the field API skips without reading *)
  let collection_span t off coll =
    let n_mu = read_i32 t (off + 16) in
    let n_aux = read_i32 t (off + 28) in
    let base = off + event_fixed_size + (n_aux * 8) in
    match coll with
    | Muons -> (base, n_mu)
    | Electrons ->
      let n_el = read_i32 t (off + 20) in
      (base + (n_mu * particle_size), n_el)
    | Jets ->
      let n_el = read_i32 t (off + 20) in
      let n_jet = read_i32 t (off + 24) in
      (base + ((n_mu + n_el) * particle_size), n_jet)

  let collection_length t entry coll =
    let off = event_offset t entry in
    match coll with
    | Muons -> read_i32 t (off + 16)
    | Electrons -> read_i32 t (off + 20)
    | Jets -> read_i32 t (off + 24)

  let pfield_offset = function Pt -> 0 | Eta -> 8 | Phi -> 16

  let read_particle_field t ~entry coll ~item f =
    let off = slot_offset t entry in
    let start, len = collection_span t off coll in
    if item < 0 || item >= len then
      invalid_arg
        (Printf.sprintf "Hep.Reader.read_particle_field: item %d/%d" item len);
    read_f64 t (start + (item * particle_size) + pfield_offset f)

  (* copy-accounting: deserialization duplicates each particle's bytes
     into an OCaml record; charged per collection, not per field read *)
  let site_particles = Prof_gate.site "hep.particles"

  let read_particles t start n =
    Prof_gate.copy site_particles (n * particle_size);
    Array.init n (fun i ->
        let base = start + (i * particle_size) in
        { pt = read_f64 t base; eta = read_f64 t (base + 8);
          phi = read_f64 t (base + 16) })

  let deserialize t entry =
    let off = slot_offset t entry in
    let event_id = read_i64 t off in
    let run_number = read_i64 t (off + 8) in
    let n_mu = read_i32 t (off + 16) in
    let n_el = read_i32 t (off + 20) in
    let n_jet = read_i32 t (off + 24) in
    let n_aux = read_i32 t (off + 28) in
    (* the object API materializes the whole event, aux payload included —
       what a C++ analysis pays on every getEntry *)
    let aux =
      Array.init n_aux (fun k -> read_f64 t (off + event_fixed_size + (k * 8)))
    in
    let mu_start = off + event_fixed_size + (n_aux * 8) in
    let el_start = mu_start + (n_mu * particle_size) in
    let jet_start = el_start + (n_el * particle_size) in
    {
      event_id;
      run_number;
      aux;
      muons = read_particles t mu_start n_mu;
      electrons = read_particles t el_start n_el;
      jets = read_particles t jet_start n_jet;
    }

  let get_entry t entry =
    check_entry t entry;
    match Lru.find t.cache entry with
    | Some e ->
      t.cache_hits <- t.cache_hits + 1;
      e
    | None ->
      t.cache_misses <- t.cache_misses + 1;
      let e = deserialize t entry in
      ignore (Lru.add t.cache entry e);
      e

  let object_cache_hits t = t.cache_hits
  let object_cache_misses t = t.cache_misses

  let clear_object_cache t =
    Lru.clear t.cache;
    t.cache_hits <- 0;
    t.cache_misses <- 0
end
