open Raw_storage

type t = {
  mmap : Mmap_file.Config.t;
  chunk_rows : int;
  compile_seconds : float;
  shred_pool_columns : int;
  parallelism : int;
  on_error : Scan_errors.policy;
  deadline : float option;
  memory_budget : int option;
  max_concurrent : int option;
  observe : bool;
  profile : bool;
  history_path : string option;
  approx : float option;
  approx_seed : int;
  max_request_bytes : int;
  request_timeout : float option;
  idle_timeout : float option;
  max_sessions : int option;
  telemetry_tick : float;
  trace_retain : int;
}

let default =
  {
    mmap = Mmap_file.Config.default;
    chunk_rows = 4096;
    compile_seconds = 0.01;
    shred_pool_columns = 256;
    parallelism = 1;
    on_error = Scan_errors.Fail_fast;
    deadline = None;
    memory_budget = None;
    max_concurrent = None;
    observe = false;
    profile = false;
    history_path = None;
    approx = None;
    approx_seed = 42;
    max_request_bytes = 1024 * 1024;
    request_timeout = Some 30.;
    idle_timeout = Some 300.;
    max_sessions = Some 256;
    telemetry_tick = 1.0;
    trace_retain = 32;
  }

(* Validation happens once, at construction ({!Catalog.create} /
   {!Raw_db.create}): a bad knob must fail with a typed, named error there
   instead of surfacing as an [Invalid_argument] deep inside Morsel,
   Shred_pool or Lru mid-query. *)
let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.parallelism < 1 then
    err "parallelism must be >= 1 (got %d)" t.parallelism
  else if t.chunk_rows < 1 then err "chunk_rows must be >= 1 (got %d)" t.chunk_rows
  else if t.compile_seconds < 0. then
    err "compile_seconds must be >= 0 (got %g)" t.compile_seconds
  else if t.shred_pool_columns < 1 then
    err "shred_pool_columns must be >= 1 (got %d)" t.shred_pool_columns
  else if t.mmap.Mmap_file.Config.page_size < 1 then
    err "mmap page_size must be >= 1 (got %d)" t.mmap.Mmap_file.Config.page_size
  else if t.mmap.Mmap_file.Config.io_seconds_per_page < 0. then
    err "mmap io_seconds_per_page must be >= 0 (got %g)"
      t.mmap.Mmap_file.Config.io_seconds_per_page
  else
    match t.mmap.Mmap_file.Config.residency_capacity with
    | Some c when c < 1 -> err "mmap residency_capacity must be >= 1 (got %d)" c
    | _ -> (
      match t.deadline with
      | Some d when d <= 0. -> err "deadline must be positive (got %g s)" d
      | _ -> (
        match t.memory_budget with
        | Some b when b <= 0 -> err "memory_budget must be positive (got %d bytes)" b
        | _ -> (
          match t.max_concurrent with
          | Some n when n < 1 -> err "max_concurrent must be >= 1 (got %d)" n
          | _ ->
            if t.history_path = Some "" then
              err "history_path must not be empty (use None to disable)"
            else (
              (* NaN first: it compares false against everything, so the
                 range checks alone would wave it through *)
              match t.approx with
              | Some e when Float.is_nan e ->
                err "approx must be a number in (0, 1) (got nan)"
              | Some e when e <= 0. || e >= 1. ->
                err "approx must be in (0, 1) exclusive (got %g)" e
              | _ ->
                if t.max_request_bytes < 1 then
                  err "max_request_bytes must be >= 1 (got %d)"
                    t.max_request_bytes
                else (
                  (* NaN timeouts would disarm every comparison below,
                     wedging sessions forever — reject like approx does *)
                  match t.request_timeout with
                  | Some s when Float.is_nan s || s <= 0. ->
                    err "request_timeout must be positive (got %g s)" s
                  | _ -> (
                    match t.idle_timeout with
                    | Some s when Float.is_nan s || s <= 0. ->
                      err "idle_timeout must be positive (got %g s)" s
                    | _ -> (
                      match t.max_sessions with
                      | Some n when n < 1 ->
                        err "max_sessions must be >= 1 (got %d)" n
                      | _ ->
                        if Float.is_nan t.telemetry_tick then
                          err "telemetry_tick must be >= 0 (got nan)"
                        else if t.telemetry_tick < 0. then
                          err "telemetry_tick must be >= 0 (got %g s)"
                            t.telemetry_tick
                        else if t.trace_retain < 0 then
                          err "trace_retain must be >= 0 (got %d)"
                            t.trace_retain
                        else Ok t)))))))

let check t =
  match validate t with
  | Ok t -> t
  | Error msg -> raise (Resource_error.Invalid_config msg)
