open Raw_vector
open Raw_storage

type key = { table : string; column : int }

(* [Partial] carries one bit per row (set = fetched from the raw file)
   and how many are set; once every row is fetched the bitset is dropped,
   so a complete shred answers coverage in O(1) and costs nothing extra. *)
type coverage = Complete | Partial of { bits : Bytes.t; mutable covered : int }

type shred = { mutable column : Column.t; mutable coverage : coverage }

type t = {
  lru : (key, shred) Lru.t;
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity = { lru = Lru.create ~capacity (); hits = 0; misses = 0 }

let column s = s.column

let bit bits r = Char.code (Bytes.unsafe_get bits (r lsr 3)) land (1 lsl (r land 7)) <> 0

let covered s r =
  match s.coverage with Complete -> true | Partial p -> bit p.bits r

let complete s = match s.coverage with Complete -> true | Partial _ -> false

let find t key = Lru.find t.lru key

(* all NULL, nothing fetched *)
let empty_column ~n_rows ~dtype =
  let data =
    match (dtype : Dtype.t) with
    | Int -> Column.Int_data (Array.make n_rows 0)
    | Float -> Column.Float_data (Array.make n_rows 0.)
    | Bool -> Column.Bool_data (Array.make n_rows false)
    | String -> Column.String_data (Array.make n_rows "")
  in
  Column.make ~valid:(Bytes.make n_rows '\000') data

let partial n_rows ~covered =
  if covered = n_rows then Complete
  else begin
    let bits = Bytes.make ((n_rows + 7) lsr 3) '\000' in
    (* rows [0, covered) are fetched: whole bytes, then the odd bits *)
    Bytes.fill bits 0 (covered lsr 3) '\255';
    for r = covered land lnot 7 to covered - 1 do
      let i = r lsr 3 in
      Bytes.unsafe_set bits i
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get bits i) lor (1 lsl (r land 7))))
    done;
    Partial { bits; covered }
  end

let ensure t key ~n_rows ~dtype =
  match Lru.find t.lru key with
  | Some s -> s
  | None ->
    let s = { column = empty_column ~n_rows ~dtype; coverage = partial n_rows ~covered:0 } in
    ignore (Lru.add t.lru key s);
    s

let put t key col = ignore (Lru.add t.lru key { column = col; coverage = Complete })

let subsumes s rowids =
  match s.coverage with
  | Complete -> true
  | Partial p ->
    let n = Array.length rowids in
    let rec from k = k >= n || (bit p.bits (Array.unsafe_get rowids k) && from (k + 1)) in
    from 0

let missing s rowids =
  match s.coverage with
  | Complete -> [||]
  | Partial p ->
    let n = ref 0 in
    Array.iter (fun r -> if not (bit p.bits r) then incr n) rowids;
    let out = Array.make !n 0 in
    let k = ref 0 in
    Array.iter
      (fun r ->
        if not (bit p.bits r) then begin
          out.(!k) <- r;
          incr k
        end)
      rowids;
    out

let fill s rowids values =
  Column.scatter s.column rowids values;
  match s.coverage with
  | Complete -> ()
  | Partial p ->
    Array.iter
      (fun r ->
        let i = r lsr 3 and m = 1 lsl (r land 7) in
        let b = Char.code (Bytes.unsafe_get p.bits i) in
        if b land m = 0 then begin
          Bytes.unsafe_set p.bits i (Char.unsafe_chr (b lor m));
          p.covered <- p.covered + 1
        end)
      rowids;
    if p.covered = Column.length s.column then begin
      s.coverage <- Complete;
      (* no NULL fetched: the all-ones bitmap would only cost a byte a row
         and send every kernel down its NULL-aware path *)
      if Column.all_valid s.column then s.column <- Column.make (Column.data s.column)
    end

(* New rows are NULL and not fetched; a complete shred regains a bitset. *)
let grow s ~n_rows =
  let old = Column.length s.column in
  if n_rows > old then begin
    s.column <-
      Column.concat
        [ s.column; empty_column ~n_rows:(n_rows - old) ~dtype:(Column.dtype s.column) ];
    s.coverage <-
      (match s.coverage with
       | Complete -> partial n_rows ~covered:old
       | Partial p ->
         let bits = Bytes.extend p.bits 0 (((n_rows + 7) lsr 3) - Bytes.length p.bits) in
         Bytes.fill bits (Bytes.length p.bits) (Bytes.length bits - Bytes.length p.bits) '\000';
         Partial { bits; covered = p.covered })
  end

let remove t key = Lru.remove t.lru key

let fold f t acc = Lru.fold f t.lru acc

let byte_size s =
  Column.byte_size s.column
  + match s.coverage with Complete -> 0 | Partial p -> Bytes.length p.bits

(* The pool's memory-budget items, least recently used first. Shreds are
   filled in place (string cells grow), so sizes are taken on demand: the
   only count that cannot drift. *)
let items t =
  Lru.fold
    (fun key s acc ->
      { Mem_budget.bytes = byte_size s; drop = (fun () -> Lru.remove t.lru key) }
      :: acc)
    t.lru []

let clear t =
  Lru.clear t.lru;
  t.hits <- 0;
  t.misses <- 0

let size t = Lru.length t.lru
let hits t = t.hits
let misses t = t.misses
let record_hit t =
  t.hits <- t.hits + 1;
  Raw_obs.Metrics.incr Raw_obs.Metrics.pool_hits

let record_miss t =
  t.misses <- t.misses + 1;
  Raw_obs.Metrics.incr Raw_obs.Metrics.pool_misses
