module Config = struct
  type t = {
    page_size : int;
    io_seconds_per_page : float;
    residency_capacity : int option;
  }

  let default =
    { page_size = 65536; io_seconds_per_page = 0.0006; residency_capacity = None }
end

module Fault = struct
  type t = {
    seed : int;
    flip_per_page : float;
    truncate_pages : int;
    only : string option;
  }

  let make ?(seed = 0) ?(flip_per_page = 0.) ?(truncate_pages = 0) ?only () =
    { seed; flip_per_page; truncate_pages; only }

  let applies t ~name =
    match t.only with
    | None -> true
    | Some needle ->
      let nl = String.length needle and hl = String.length name in
      nl = 0
      || (nl <= hl
          && (let found = ref false in
              for i = 0 to hl - nl do
                if (not !found) && String.sub name i nl = needle then
                  found := true
              done;
              !found))

  (* avalanche mix so (seed, page) -> pseudo-random int is deterministic
     across runs, domains and processes — no Random state involved *)
  let mix x =
    let x = x land max_int in
    let x = x lxor (x lsr 16) in
    let x = x * 0x7feb352d land max_int in
    let x = x lxor (x lsr 15) in
    let x = x * 0x846ca68b land max_int in
    x lxor (x lsr 16)

  let page_hash t p = mix ((t.seed * 0x1000193) + (p * 0x811c9dc5))

  let from_env () =
    let geti k = Option.bind (Sys.getenv_opt k) int_of_string_opt in
    let getf k = Option.bind (Sys.getenv_opt k) float_of_string_opt in
    let seed = geti "RAW_FAULT_SEED" in
    let flip = getf "RAW_FAULT_FLIP" in
    let trunc =
      match geti "RAW_FAULT_TRUNC" with
      | Some _ as t -> t
      | None -> geti "RAW_FAULT_TRUNCATE"
    in
    match (seed, flip, trunc) with
    | None, None, None -> None
    | _ ->
      Some
        {
          seed = Option.value seed ~default:0;
          flip_per_page = Option.value flip ~default:0.;
          truncate_pages = Option.value trunc ~default:0;
          only = Sys.getenv_opt "RAW_FAULT_ONLY";
        }
end

(* copy-accounting sites, precomputed so the profiled path allocates
   nothing; Prof_gate.copy is one domain-local read and a branch when
   profiling is off *)
let site_open = Prof_gate.site "mmap.open"
let site_inject = Prof_gate.site "mmap.inject"
let site_fork = Prof_gate.site "mmap.fork_residency"

type residency =
  | Bitmap of Bytes.t
  | Bounded of (int, unit) Lru.t

type t = {
  name : string;
  data : Bytes.t;
  config : Config.t;
  n_pages : int;
  mutable residency : residency;
  mutable resident : int;
  mutable faults : int;
  mutable hits : int;
  mutable last_page : int; (* fast path: page we most recently hit *)
  mutable last_lo : int; (* its bytes [last_lo, last_hi); empty when none *)
  mutable last_hi : int;
  injected_flips : int;
  injected_truncated_bytes : int;
}

let make_residency config n_pages =
  match config.Config.residency_capacity with
  | None -> Bitmap (Bytes.make (max n_pages 1) '\000')
  | Some cap -> Bounded (Lru.create ~capacity:cap ())

(* Deterministic media-fault simulation, applied once when the file is
   opened: truncation at page granularity (a short read) and per-page
   byte flips. Injecting into the opened copy — rather than on every
   [touch] — keeps parallel and sequential scans trivially identical
   under the same seed: every fork_view shares the already-corrupted
   bytes. The caller's buffer is never mutated (we corrupt a copy). *)
let inject fault ~page_size:ps data =
  let len = Bytes.length data in
  let keep =
    if fault.Fault.truncate_pages <= 0 then len
    else
      let n_pages = (len + ps - 1) / ps in
      let keep_pages = max 0 (n_pages - fault.Fault.truncate_pages) in
      min len (keep_pages * ps)
  in
  let data = Bytes.sub data 0 keep in
  Prof_gate.copy site_inject keep;
  let flips = ref 0 in
  if fault.Fault.flip_per_page > 0. then begin
    let n_pages = (keep + ps - 1) / ps in
    for p = 0 to n_pages - 1 do
      let h = Fault.page_hash fault p in
      if
        float_of_int (h land 0xFFFFF) /. 1048576.0
        < fault.Fault.flip_per_page
      then begin
        let page_len = min ps (keep - (p * ps)) in
        if page_len > 0 then begin
          let pos = (p * ps) + (Fault.mix (h + 1) mod page_len) in
          let x = Fault.mix (h + 2) land 0xff in
          let x = if x = 0 then 0x55 else x in
          Bytes.set data pos
            (Char.chr (Char.code (Bytes.get data pos) lxor x));
          incr flips
        end
      end
    done
  end;
  (data, !flips, len - keep)

let of_bytes ?(config = Config.default) ?fault ~name data =
  if config.Config.page_size <= 0 then
    invalid_arg "Mmap_file: page_size must be positive";
  let fault =
    match fault with Some _ -> fault | None -> Fault.from_env ()
  in
  let data, injected_flips, injected_truncated_bytes =
    match fault with
    | Some f when Fault.applies f ~name ->
      inject f ~page_size:config.Config.page_size data
    | _ -> (data, 0, 0)
  in
  let n_pages =
    (Bytes.length data + config.Config.page_size - 1) / config.Config.page_size
  in
  {
    name;
    data;
    config;
    n_pages;
    residency = make_residency config n_pages;
    resident = 0;
    faults = 0;
    hits = 0;
    last_page = -1;
    last_lo = 0;
    last_hi = 0;
    injected_flips;
    injected_truncated_bytes;
  }

let open_file ?config ?fault path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      let data = Bytes.create len in
      really_input ic data 0 len;
      Prof_gate.copy site_open len;
      of_bytes ?config ?fault ~name:path data)

let name t = t.name
let length t = Bytes.length t.data
let bytes t = t.data
let config t = t.config

let forget_last_page t =
  t.last_page <- -1;
  t.last_lo <- 0;
  t.last_hi <- 0

let touch_page t p =
  if p = t.last_page then t.hits <- t.hits + 1
  else begin
    t.last_page <- p;
    t.last_lo <- p * t.config.Config.page_size;
    t.last_hi <- min (t.last_lo + t.config.Config.page_size) (Bytes.length t.data);
    match t.residency with
    | Bitmap b ->
      if Bytes.unsafe_get b p <> '\000' then t.hits <- t.hits + 1
      else begin
        Bytes.unsafe_set b p '\001';
        t.resident <- t.resident + 1;
        t.faults <- t.faults + 1
      end
    | Bounded lru ->
      (match Lru.find lru p with
       | Some () -> t.hits <- t.hits + 1
       | None ->
         t.faults <- t.faults + 1;
         let evicted = Lru.add lru p () in
         t.resident <- t.resident + 1 - List.length evicted)
  end

let touch t pos len =
  (* within the page last hit: the common case of a scan, decided without
     dividing by the page size *)
  if len > 0 && pos >= t.last_lo && pos + len <= t.last_hi then t.hits <- t.hits + 1
  else if len > 0 && t.n_pages > 0 then begin
    let last = Bytes.length t.data - 1 in
    let lo = min (max pos 0) last in
    let hi = min (max (pos + len - 1) 0) last in
    let ps = t.config.Config.page_size in
    let p0 = lo / ps and p1 = hi / ps in
    if p0 = p1 then touch_page t p0
    else
      for p = p0 to p1 do
        touch_page t p
      done
  end

let faults t = t.faults
let hits t = t.hits
let resident_pages t = t.resident
let injected_flips t = t.injected_flips
let injected_truncated_bytes t = t.injected_truncated_bytes

(* ---------- concurrent-read views ---------- *)

let copy_residency = function
  | Bitmap b ->
    Prof_gate.copy site_fork (Bytes.length b);
    Bitmap (Bytes.copy b)
  | Bounded lru ->
    let copy =
      match Lru.capacity lru with
      | Some c -> Lru.create ~capacity:c ()
      | None -> Lru.create ()
    in
    (* keys are MRU-first; re-add LRU-first to preserve recency order *)
    List.iter (fun p -> ignore (Lru.add copy p ())) (List.rev (Lru.keys lru));
    Bounded copy

let fork_view t =
  {
    t with
    residency = copy_residency t.residency;
    faults = 0;
    hits = 0;
    last_page = -1;
    last_lo = 0;
    last_hi = 0;
  }

let absorb ~into view =
  into.faults <- into.faults + view.faults;
  into.hits <- into.hits + view.hits;
  (match (into.residency, view.residency) with
   | Bitmap a, Bitmap b ->
     let n = min (Bytes.length a) (Bytes.length b) in
     for i = 0 to n - 1 do
       if Bytes.unsafe_get b i <> '\000' && Bytes.unsafe_get a i = '\000' then begin
         Bytes.unsafe_set a i '\001';
         into.resident <- into.resident + 1
       end
     done
   | Bounded lru, Bounded vlru ->
     List.iter
       (fun p -> if not (Lru.mem lru p) then ignore (Lru.add lru p ()))
       (List.rev (Lru.keys vlru));
     into.resident <- Lru.length lru
   | _ -> ());
  forget_last_page into

let simulated_io_seconds t =
  float_of_int t.faults *. t.config.Config.io_seconds_per_page

let reset_counters t =
  t.faults <- 0;
  t.hits <- 0

let drop_cache t =
  (match t.residency with
   | Bitmap b -> Bytes.fill b 0 (Bytes.length b) '\000'
   | Bounded lru -> Lru.clear lru);
  t.resident <- 0;
  forget_last_page t;
  reset_counters t
