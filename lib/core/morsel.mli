(** Morsel-driven parallel execution over OCaml 5 domains.

    A parallel scan splits its input into row-aligned morsels (byte ranges
    for CSV, row ranges for FWB, entry slices for HEP), runs the existing
    sequential kernel per morsel on its own domain, and stitches the results
    in morsel order. All shared mutable state is either forked per worker
    ({!Raw_storage.Mmap_file.fork_view}, {!Raw_formats.Hep.Reader.fork_view})
    or domain-local ({!Raw_storage.Io_stats}) and merged after join, which
    makes any-parallelism output bit-identical to the sequential scan. *)

val split_range : lo:int -> hi:int -> n:int -> (int * int) list
(** At most [n] contiguous non-empty [(a, b)] ranges partitioning
    [[lo, hi)]; [[]] when the range is empty. *)

val map_domains :
  ?cancel:Raw_storage.Cancel.t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_domains work items] runs [work] on each item in a fresh domain
    (inline when there is at most one item) and returns results in item
    order. Each worker's {!Raw_storage.Io_stats} delta is merged into the
    calling domain's counters, and the wall time of domain [i] is recorded
    under the counter ["par.domain<i>.seconds"].

    [cancel] (default: the caller's ambient token) is installed as the
    ambient {!Raw_storage.Cancel} token inside every worker. Quiesce is
    deterministic: all domains are joined and all partial stats merged
    before the first worker failure, in morsel order, is re-raised on the
    calling domain. *)

val fork_join :
  fork:(unit -> 'v) -> absorb:('v -> unit) -> ('v -> 'a -> 'b) -> 'a list ->
  'b list
(** The fork/absorb skeleton of every parallel scan: [work view morsel]
    runs per morsel (through {!map_domains}) against a private [view] made
    by [fork]; after the join each view is [absorb]ed back (its page
    counters and residency) in morsel order. *)

val concat_columns : Raw_vector.Column.t array list -> Raw_vector.Column.t array
(** Stitch per-morsel column segments in morsel order. *)
