(** HEP — a ROOT-substitute nested event format (paper §6).

    The ATLAS use case stores {e events}, each containing variable-length
    collections of muons, electrons and jets. ROOT itself is proprietary-
    complex; what the paper actually relies on is (i) objects addressable by
    entry id through a library API ([getEntry], [readROOTField(name, id)]),
    (ii) an internal object cache ("buffer pool") serving repeated accesses,
    and (iii) enough layout knowledge to read a single field of a single
    entry without deserializing the world. This format reproduces exactly
    those properties with a compact binary layout:

    {v
    header : magic "HEPF" | version i32 | n_events i64 | index_off i64
    event  : event_id i64 | run_number i64 | n_mu i32 | n_el i32 | n_jet i32
             | n_aux i32 | aux n_aux*f64
             | muons n_mu*(pt,eta,phi f64) | electrons ... | jets ...
    index  : n_events * i64 (absolute offset of each event record)
    v}

    RAW models a HEP file as four relational tables (event, muon, electron,
    jet) joined on event id; the entry-id-addressable layout is what maps to
    the paper's "index-based scan" access abstraction. *)

open Raw_storage

type particle = { pt : float; eta : float; phi : float }

type event = {
  event_id : int;
  run_number : int;
  aux : float array;
      (** auxiliary payload: stands in for the thousands of fields a real
          ROOT event carries that an analysis never touches (the paper's
          "ignore the rest 6 to 12 thousand fields in the file", §3). The
          object API deserializes them; the field API never reads them. *)
  muons : particle array;
  electrons : particle array;
  jets : particle array;
}

type coll = Muons | Electrons | Jets
type pfield = Pt | Eta | Phi

val particle_size : int
(** Bytes per particle record: pt, eta, phi as f64. *)

val coll_to_string : coll -> string
val pfield_to_string : pfield -> string

(** {1 Writing} *)

val write_file : path:string -> event Seq.t -> unit

val generate :
  path:string ->
  n_events:int ->
  ?n_runs:int ->
  ?mean_particles:float ->
  ?n_aux:int ->
  seed:int ->
  unit ->
  unit
(** Synthetic collision events: sequential event ids, run numbers uniform in
    [0, n_runs), geometric collection sizes with the given mean, exponential
    pt, uniform eta in [-2.5, 2.5] and phi in [-pi, pi]. Deterministic. *)

(** {1 Reading} *)

module Reader : sig
  type t

  val open_file :
    ?config:Mmap_file.Config.t ->
    ?fault:Mmap_file.Fault.t ->
    ?object_cache_capacity:int ->
    string ->
    t
  (** [object_cache_capacity] bounds the LRU cache of deserialized events
      (the ROOT "buffer pool" stand-in; default 4096 events). Raises the
      typed [Raw_storage.Scan_errors.Error] on a malformed file; so do all
      reads below that a corrupt index or record header sends past EOF. *)

  val file : t -> Mmap_file.t
  val n_events : t -> int

  val entry_ok : t -> int -> bool
  (** Structural validation of one index entry: the slot lies inside the
      file and the record it points at (header, aux payload, all three
      collections) fits between the file header and the index. A pure
      metadata probe — no page accounting, never raises. *)

  val valid_entries : t -> int array
  (** The entry ids passing {!entry_ok}, ascending; computed once and
      cached. [Skip_row]/[Null_fill] scans of a corrupt file enumerate
      these instead of [0 .. n_events-1]. *)

  val record_invalid_entries : t -> unit
  (** Record one {!Raw_storage.Scan_errors} sample per entry failing
      {!entry_ok} (offset = its index slot, cause
      ["hep: corrupt event record"]). No-op on a clean file. Called once
      per enumerating pass by the lenient scan policies. *)

  val fork_view : t -> t
  (** A reader for a worker domain: shares the file bytes and event index
      but owns a {!Mmap_file.fork_view} of the file and an empty object
      cache. The coordinator folds the forked file back with
      {!Mmap_file.absorb} after joining. *)

  val get_entry : t -> int -> event
  (** Full-object deserialization through the object cache — what the
      hand-written C++ analysis uses. *)

  val object_cache_hits : t -> int
  val object_cache_misses : t -> int
  val clear_object_cache : t -> unit

  (** {2 Field-level API}

      Point reads by entry id, as the ROOT I/O library offers them: each
      call re-reads the entry's index slot and whatever collection header
      it needs, then the field, touching only those bytes. They bypass
      the object cache. The interpreted access paths read through them
      (the library-call baseline). *)

  val read_event_id : t -> int -> int
  val read_run_number : t -> int -> int
  val read_particle_field : t -> entry:int -> coll -> item:int -> pfield -> float

  (** {2 Decoded offsets}

      RAW's generated access paths read through offsets instead of
      navigating per value: the event index is decoded once per file into
      one [int array] (an entry's record offset, or unread), held by the
      reader, shared by the four tables over the file and by every
      {!fork_view}. An entry's slot is decoded, lazily, the first time
      {!event_offset} asks for it; from then on the slot is never read
      again.

      {b Page accounting.} Decoding a slot reads it through the simulated
      page cache like any field read; a decoded slot costs nothing
      further. So a sequential scan through the decoded offsets touches a
      subsequence of what the field-API walk touches, first touch of
      every page included: on a fresh reader (or after
      {!Raw_storage.Mmap_file.drop_cache} and {!drop_offsets}) it faults
      exactly the same pages, whatever entries it reads, full scan or
      sparse fetch. Only {!Raw_storage.Mmap_file.hits} is lower.

      Under a bounded [residency_capacity] the JIT path still touches the
      same distinct pages, but fewer times: later queries no longer
      re-touch index slots, and a collection header is read once per
      event and column instead of once per value. The LRU then evicts in
      a different order, and fault counts can move either way: a page
      the field API keeps recent by re-reading it can be evicted between
      two JIT reads of it (2 events, 56-byte pages, 3 resident: 15 faults
      against the field API's 14), while pages the JIT path no longer
      revisits stop displacing others. *)

  val event_offset : t -> int -> int
  (** The record offset of an entry, decoded on first use. A slot past
      EOF raises the typed scan error on every call, and a negative
      offset is returned undecoded (any read at it raises), so a corrupt
      slot fails wherever the field API fails. Raises [Invalid_argument]
      for an entry id out of range. *)

  val decode : t -> int -> unit
  (** Decode one entry's slot if it lies inside the file and is not yet
      decoded; never raises. A parallel scan decodes its entries before
      {!fork_view}, so its views share the work. *)

  val offsets_bytes : t -> int
  (** Bytes the decoded offsets hold; 0 before the first decode. *)

  val drop_offsets : t -> unit
  (** Forget the decoded offsets (a memory-budget eviction); the next
      {!event_offset} re-reads and re-charges its slot. *)

  val collection_length : t -> int -> coll -> int
  (** One collection's length, at the entry's decoded offset. *)

  val collection_span : t -> int -> coll -> int * int
  (** [collection_span t off coll] = (start, length) of a collection of
      the record at offset [off]: reads its length and the counts before
      it. *)

  val read_i64 : t -> int -> int
  val read_f64 : t -> int -> float
  (** Page-accounted reads at an absolute position; raise the typed scan
      error past EOF. *)

  val pfield_offset : pfield -> int
  (** A field's byte offset within a particle. *)
end
