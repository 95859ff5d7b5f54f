open Raw_vector
open Raw_storage

type key = { table : string; column : int }

type t = {
  lru : (key, Column.t) Lru.t;
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity = { lru = Lru.create ~capacity (); hits = 0; misses = 0 }

let find t key = Lru.find t.lru key

let empty_column ~n_rows ~dtype =
  let data =
    match (dtype : Dtype.t) with
    | Int -> Column.Int_data (Array.make n_rows 0)
    | Float -> Column.Float_data (Array.make n_rows 0.)
    | Bool -> Column.Bool_data (Array.make n_rows false)
    | String -> Column.String_data (Array.make n_rows "")
  in
  Column.make ~valid:(Bytes.make n_rows '\000') data

let ensure t key ~n_rows ~dtype =
  match Lru.find t.lru key with
  | Some c -> c
  | None ->
    let c = empty_column ~n_rows ~dtype in
    ignore (Lru.add t.lru key c);
    c

let put t key col = ignore (Lru.add t.lru key col)

let subsumes col rowids =
  Array.for_all (fun r -> Column.is_valid col r) rowids

let missing col rowids =
  Array.of_list
    (List.filter
       (fun r -> not (Column.is_valid col r))
       (Array.to_list rowids))

let remove t key = Lru.remove t.lru key

let fold f t acc = Lru.fold f t.lru acc

(* The pool's memory-budget items, least recently used first. Shreds are
   filled in place (string cells grow), so sizes are taken on demand: the
   only count that cannot drift. *)
let items t =
  Lru.fold
    (fun key c acc ->
      { Mem_budget.bytes = Column.byte_size c; drop = (fun () -> Lru.remove t.lru key) }
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
