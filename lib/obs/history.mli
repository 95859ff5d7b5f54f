(** Append-only JSONL workload history.

    One record per executed query — the feedback substrate for cross-query
    percentile reporting and cost-model calibration ({!Summary}), and any
    future workload-driven optimization. Records are
    written even for failed, cancelled, or deadline-exceeded queries (the
    {!record.status} field says which), because mispredictions that blow a
    deadline are exactly the signal calibration needs.

    {b Atomicity.} {!append} serializes the record to one line and writes
    it on an [O_APPEND] descriptor, so concurrent appenders (multiple
    processes sharing a history file) interleave whole lines, never bytes.
    The write loops until the full line is out — a short write (signals,
    quotas) resumes rather than emitting a torn line (resumptions are
    counted under [history.write_retries]). In-process appenders (worker
    domains, server sessions) additionally serialize on a module mutex so
    rotation and write form one atomic step. There is no fsync: history is
    an observability artifact, not a ledger.

    {b Rotation.} When the file would exceed [max_bytes] the current file
    is renamed to [<path>.1] (replacing any previous [.1]) and a fresh
    file starts, so history is bounded by roughly [2 * max_bytes] on disk.
    Rotations are counted under [history.rotations]. If two appenders
    (different processes) race the rotation, the loser's [ENOENT] rename
    is tolerated: the winner's rotation already took effect, and the
    loser's record is appended to the fresh generation rather than being
    dropped or miscounted as a write error.

    {b Robustness.} {!load} skips unparseable lines (counting them) rather
    than failing, so a torn tail from a crashed writer cannot poison
    reports. {!append} never raises into the query path: write failures
    are swallowed and counted under [history.write_errors]. *)

type status =
  | Completed
  | Deadline  (** unwound by {!Raw_storage.Cancel} deadline *)
  | Cancelled  (** unwound by user cancellation *)
  | Failed of string  (** any other error; the payload is a short tag *)

type record = {
  ts : float;  (** unix seconds at completion *)
  shape : string;  (** query-shape fingerprint ({!Logical.fingerprint}) *)
  access : string;  (** access path: table format, e.g. ["csv"], ["hep"] *)
  strategy : string;  (** executed strategy: full/shreds/multishreds/... *)
  status : status;
  cpu_seconds : float;
  io_seconds : float;  (** simulated cold-read I/O *)
  compile_seconds : float;  (** simulated JIT compile *)
  total_seconds : float;
  rows_scanned : int;
  result_rows : int;
  parallelism : int;
  sel_est : float option;  (** planner's selectivity estimate (adaptive) *)
  sel_obs : float option;  (** measured rows_out/rows_in of filter chains *)
  cost_predicted : float option;  (** cost-model units of the chosen strategy *)
  mispredicted : bool option;
      (** [Some true] iff re-running the cost model at [sel_obs] reverses
          the adaptive choice; [None] when not measurable *)
  better : string option;  (** the strategy the model prefers at [sel_obs] *)
  tmpl_hits : int;
  tmpl_misses : int;
  pool_hits : int;
  pool_misses : int;
  degraded : string list;  (** governance degradation notes *)
  errors_tolerated : int;  (** malformed rows skipped/nulled *)
  alloc_words : float option;
      (** words allocated (minor + direct major) across every domain the
          query touched. [Some] only for queries run with
          [Config.profile]; absence distinguishes "not profiled" from
          "profiled, allocated nothing". Not deterministic across
          parallelism levels (domain spawn itself allocates). *)
  gc_minor : int option;  (** minor collections during the query (profiled) *)
  gc_major : int option;  (** major cycles during the query (profiled) *)
  bytes_copied : float option;
      (** total [bytes.copied.*] charged by the scan->shred->column chain
          (profiled queries only) *)
}

val status_to_string : status -> string
val status_of_string : string -> status
val to_json : record -> Jsons.t
val of_json : Jsons.t -> (record, string) result

val append : path:string -> ?max_bytes:int -> record -> unit
(** Append one record as one JSONL line (atomic single write; see above).
    [max_bytes] defaults to 16 MiB. Never raises: failures bump
    [history.write_errors]. Successful appends bump
    [history.records_written]. *)

val load : string -> record list * int
(** All parseable records in file order, plus the count of skipped
    (malformed) lines. A missing file is [([], 0)]. *)

val pp : Format.formatter -> record -> unit
