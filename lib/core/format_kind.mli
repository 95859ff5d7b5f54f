(** The raw file formats RAW can couple to the engine, and the access-path
    abstractions each exposes (paper §3: sequential and index-based scans
    are the generic abstractions the executor understands; plug-ins map
    format capabilities onto them). *)

open Raw_formats

type t =
  | Csv of { sep : char }
      (** textual, delimiter-separated; locations data-dependent *)
  | Jsonl
      (** newline-delimited JSON objects; hierarchical, fields addressed by
          dotted paths, key order unstable *)
  | Jsonl_array of { array_path : string }
      (** flattened child table over an array of objects inside each JSONL
          row (dotted path to the array); schema column 0 is the parent row
          id *)
  | Fwb  (** fixed-width binary; locations computed from the schema *)
  | Ibx
      (** indexed fixed-width binary: FWB rows + an embedded B+-tree over
          one integer column (the HDF/shapefile class of formats) *)
  | Hep_events  (** HEP event table (event_id, run_number) *)
  | Hep_particles of Hep.coll
      (** HEP particle table (event_id, pt, eta, phi), id-addressable *)

type capability = Sequential_scan | Index_scan

val capabilities : t -> capability list

val textual : t -> bool
(** Values are parsed from text (CSV, JSONL): the cost model prices their
    reads and positional jumps above the binary formats'. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val hep_event_schema : Raw_vector.Schema.t
val hep_particle_schema : Raw_vector.Schema.t
