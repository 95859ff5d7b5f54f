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
let site_extend = Prof_gate.site "mmap.extend"

type residency =
  | Bitmap of Bytes.t
  | Bounded of (int, unit) Lru.t

type t = {
  name : string;
  data : Bytes.t; (* the file is its first [len] bytes; the rest is spare *)
  len : int;
  claimed : int ref;
      (* bytes of [data] some view of it holds: [extend] may write past
         [len] only when that is this one's end, never under a newer view *)
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
  faulted : bool; (* a fault injector applied at open time *)
  identity : File_id.t option; (* stamp of the bytes read, for opened paths *)
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

let make ?(config = Config.default) ?fault ~identity ~name data =
  if config.Config.page_size <= 0 then
    invalid_arg "Mmap_file: page_size must be positive";
  let fault =
    match fault with Some _ -> fault | None -> Fault.from_env ()
  in
  let faulted, (data, injected_flips, injected_truncated_bytes) =
    match fault with
    | Some f when Fault.applies f ~name ->
      (true, inject f ~page_size:config.Config.page_size data)
    | _ -> (false, (data, 0, 0))
  in
  let n_pages =
    (Bytes.length data + config.Config.page_size - 1) / config.Config.page_size
  in
  {
    name;
    data;
    len = Bytes.length data;
    claimed = ref (Bytes.length data);
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
    faulted;
    identity;
  }

let of_bytes ?config ?fault ~name data = make ?config ?fault ~identity:None ~name data

(* Read from [ic] into [buf] at [off] until [stop] or end of file;
   returns where the bytes end. *)
let rec read_into ic buf off stop =
  if off >= stop then off
  else match input ic buf off (stop - off) with
    | 0 -> off
    | n -> read_into ic buf (off + n) stop

(* The identity comes from the descriptor the bytes are read from, and
   exactly its [st_size] bytes are read: an append racing the open can
   neither stamp a size the buffer lacks nor add bytes the stamp lacks.
   A file that shrank mid-read keeps what was there; its stamp says so. *)
let open_file ?config ?fault path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let st = Unix.fstat (Unix.descr_of_in_channel ic) in
      let data = Bytes.create st.Unix.st_size in
      let len = read_into ic data 0 st.Unix.st_size in
      let data = if len = Bytes.length data then data else Bytes.sub data 0 len in
      Prof_gate.copy site_open len;
      let identity = Some { (File_id.of_stats st) with File_id.size = len } in
      make ?config ?fault ~identity ~name:path data)

let name t = t.name
let length t = t.len
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
    t.last_hi <- min (t.last_lo + t.config.Config.page_size) t.len;
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
    let last = t.len - 1 in
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
let faulted t = t.faulted
let identity t = t.identity

(* [a] and [b] agree on [n] bytes from [ia] and [ib]: 8 bytes per
   compare, then the tail. *)
let equal_range a ia b ib n =
  let rec words k =
    if k + 8 > n then tail k
    else
      Int64.equal (Bytes.get_int64_ne a (ia + k)) (Bytes.get_int64_ne b (ib + k))
      && words (k + 8)
  and tail k =
    k >= n || (Bytes.unsafe_get a (ia + k) = Bytes.unsafe_get b (ib + k) && tail (k + 1))
  in
  words 0

(* Page residency of [from] carried into a fresh structure for [n_pages]. *)
let carried_residency from n_pages =
  match from.residency with
  | Bitmap a ->
    let b = Bytes.make (max n_pages 1) '\000' in
    Bytes.blit a 0 b 0 (min from.n_pages n_pages);
    (Bitmap b, from.resident)
  | Bounded src ->
    let dst = match Lru.capacity src with Some c -> Lru.create ~capacity:c () | None -> Lru.create () in
    List.iter (fun p -> ignore (Lru.add dst p ())) (List.rev (Lru.keys src));
    (Bounded dst, Lru.length dst)

let spare len = max 4096 (len / 8)

let extend ?fault ~old path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let st = Unix.fstat (Unix.descr_of_in_channel ic) in
      let stamp = File_id.of_stats st in
      let fault = match fault with Some _ -> fault | None -> Fault.from_env () in
      let same_file =
        match old.identity with
        | Some id -> id.File_id.dev = stamp.dev && id.ino = stamp.ino
        | None -> false
      in
      if old.faulted || (match fault with Some f -> Fault.applies f ~name:path | None -> false)
      then Error `Fault
      else if (not same_file) || stamp.size <= old.len then Error (`Stamp stamp)
      else begin
        let n = old.len in
        let chunk = Bytes.create 65536 in
        let rec prefix_ok off =
          off >= n
          ||
          let got = read_into ic chunk 0 (min 65536 (n - off)) in
          got > 0 && equal_range chunk 0 old.data off got && prefix_ok (off + got)
        in
        if not (prefix_ok 0) then Error `Prefix
        else begin
          (* the new bytes go into [old]'s spare room when it holds them
             and no newer view has claimed it, else into a new buffer
             with spare room, after the (verified) old bytes *)
          let data, claimed =
            if stamp.size <= Bytes.length old.data && !(old.claimed) = n then
              (old.data, old.claimed)
            else begin
              let data = Bytes.create (stamp.size + spare stamp.size) in
              Bytes.blit old.data 0 data 0 n;
              (data, ref n)
            end
          in
          let len = read_into ic data n stamp.size in
          claimed := max !claimed len;
          Prof_gate.copy site_extend (if data == old.data then len - n else len);
          let stamp = { stamp with size = len } in
          if len <= n then Error (`Stamp stamp)
          else begin
            let n_pages = (len + old.config.Config.page_size - 1) / old.config.Config.page_size in
            let residency, resident = carried_residency old n_pages in
            Ok
              {
                old with
                data;
                len;
                claimed;
                n_pages;
                residency;
                resident;
                faults = 0;
                hits = 0;
                last_page = -1;
                last_lo = 0;
                last_hi = 0;
                identity = Some stamp;
              }
          end
        end
      end)

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
