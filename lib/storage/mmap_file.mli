(** Memory-mapped raw files with simulated page-cache accounting.

    The paper memory-maps raw files and relies on the OS page cache; cold
    and warm runs differ only in whether pages are already resident. At
    laptop scale we cannot (and should not) drop the real OS cache, so this
    module loads the file into memory once and then *simulates* the page
    cache deterministically: scan operators declare the byte ranges they
    read via {!touch}; a first touch of a page is a fault charged with a
    configurable I/O latency, later touches are hits. {!drop_cache} makes
    the next run "cold".

    The simulated I/O seconds are reported alongside measured CPU time by
    the benchmark harness, reproducing the paper's "I/O masks the
    difference in the first query" effect without a 28 GB file. *)

module Config : sig
  type t = {
    page_size : int;  (** bytes per simulated page (default 64 KiB) *)
    io_seconds_per_page : float;
        (** charged per page fault (default 0.6 ms ≈ 100 MB/s disk) *)
    residency_capacity : int option;
        (** max resident pages; [None] = unbounded (default) *)
  }

  val default : t
end

(** Deterministic, seed-driven media-fault injection. Faults are applied
    once, when the file is opened: [truncate_pages] simulated short reads
    (whole pages dropped from the tail) and per-page byte flips with
    probability [flip_per_page], both derived from a pure hash of
    [(seed, page)] — no [Random] state, so the same seed corrupts the
    same bytes in every process and on every domain. When no [?fault] is
    passed explicitly, the environment is consulted ({!Fault.from_env}):
    [RAW_FAULT_SEED], [RAW_FAULT_FLIP] (probability per page),
    [RAW_FAULT_TRUNC] (pages), and [RAW_FAULT_ONLY] (only corrupt files
    whose name contains the given substring) — letting CI run the whole
    suite under injected faults without touching fixtures by hand. *)
module Fault : sig
  type t = {
    seed : int;
    flip_per_page : float;  (** probability a given page gets one byte flip *)
    truncate_pages : int;  (** pages removed from the end of the file *)
    only : string option;  (** substring filter on the file name *)
  }

  val make :
    ?seed:int ->
    ?flip_per_page:float ->
    ?truncate_pages:int ->
    ?only:string ->
    unit ->
    t

  val applies : t -> name:string -> bool
  val from_env : unit -> t option
end

type t

val open_file : ?config:Config.t -> ?fault:Fault.t -> string -> t
(** Reads the whole file: exactly the [st_size] bytes [fstat] reports on
    the descriptor read from (fewer if it shrank meanwhile). Raises
    [Sys_error] if unreadable. An explicit [?fault] overrides any
    environment-configured injection. *)

val identity : t -> File_id.t option
(** The stamp of the bytes {!open_file} read, taken from the same
    descriptor, with [size] = {!length} unless a fault truncated the
    copy. [None] for {!of_bytes}. *)

val of_bytes : ?config:Config.t -> ?fault:Fault.t -> name:string -> Bytes.t -> t
(** In-memory file, mainly for tests. When a fault applies, the stored
    contents are a corrupted {e copy}; the caller's buffer is untouched. *)

val injected_flips : t -> int
(** Byte flips the fault injector applied at open time. *)

val injected_truncated_bytes : t -> int
(** Bytes the fault injector removed from the tail at open time. *)

val faulted : t -> bool
(** Whether a fault injector applied to this file at open time (even one
    that happened to flip nothing). *)

val extend :
  ?fault:Fault.t ->
  old:t ->
  string ->
  (t, [ `Fault | `Prefix | `Stamp of File_id.t ]) result
(** [extend ~old path] re-reads the file [old] was opened from, when it
    only grew: same device and inode, more bytes, and its first
    [length old] bytes equal [old]'s — an exact compare against [old]'s
    buffer, word at a time. The result holds the grown file with [old]'s
    resident pages still resident and fresh counters. The new bytes go
    into spare room at the end of [old]'s buffer when it has enough
    (buffers [extend] allocates keep an eighth, at least 4 KiB, spare), so an append
    costs no second copy of the file; [old] keeps seeing only its own
    bytes. [`Fault]: a fault injector applied to [old] or applies to
    [path] ([?fault] as in {!open_file}); [`Stamp s]: the file read is not [old] grown ([s] is
    its stamp); [`Prefix]: the old bytes changed. Raises [Sys_error] if
    unreadable. *)

val name : t -> string
val length : t -> int

val bytes : t -> Bytes.t
(** The raw contents: the first {!length} bytes (a buffer grown by
    {!extend} may be longer — never read past {!length}). Parsers read
    this directly (zero-copy) and are responsible for calling {!touch} on
    the ranges they consume. Treat as read-only. *)

val touch : t -> int -> int -> unit
(** [touch t pos len] records an access to bytes [pos, pos+len). Cheap when
    the range stays within the most recently touched page. Out-of-range
    positions are clamped. *)

val faults : t -> int
val hits : t -> int
val resident_pages : t -> int

(** {1 Concurrent-read views}

    [t] is not safe to {!touch} from several domains at once (the residency
    structures and counters are unsynchronized). A parallel scan gives each
    worker domain its own {!fork_view} — sharing the underlying bytes but
    owning a private copy of the residency state with zeroed counters — and
    the coordinator folds the views back with {!absorb} after joining. *)

val fork_view : t -> t
(** A view sharing the file contents and current page residency, with its
    own counters (zeroed) and residency copy. Only the forking domain may
    continue touching the original while views are live. *)

val absorb : into:t -> t -> unit
(** [absorb ~into view] adds the view's fault/hit counts into [into] and
    marks the view's resident pages resident there (bounded residency keeps
    [into]'s LRU recency for pages it already held). *)

val simulated_io_seconds : t -> float
(** [faults * io_seconds_per_page], accumulated since the last
    {!reset_counters}. *)

val drop_cache : t -> unit
(** Evict all resident pages (next run is cold). Also resets the counters. *)

val reset_counters : t -> unit
(** Zero the fault/hit counters but keep pages resident (start of a warm
    measurement). *)

val config : t -> Config.t
