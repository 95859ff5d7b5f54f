(* See stmt_cache.mli. Locking discipline: [t.mutex] guards both tables
   and is never held across a call into the memory budget — [put_result]
   reserves first (which may re-enter us through the budget's item list
   and drops, which take the mutex) and only then inserts. *)

open Raw_vector
open Raw_storage
module Metrics = Raw_obs.Metrics

type result_entry = {
  chunk : Chunk.t;
  schema : Schema.t;
  tables : string list;
  bytes : int;
}

type stmt_entry = { plan : Logical.t; tables : string list }

type t = {
  mutex : Mutex.t;
  stmts : (string, stmt_entry) Hashtbl.t;
  results : (string, result_entry) Lru.t; (* unbounded; Mem_budget evicts *)
}

let create () =
  { mutex = Mutex.create (); stmts = Hashtbl.create 64; results = Lru.create () }

(* ------------------------------------------------------------------ *)
(* Statement cache                                                     *)
(* ------------------------------------------------------------------ *)

let find_stmt t sql =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.stmts sql with
      | Some e ->
        Metrics.incr Metrics.cache_stmt_hits;
        Some e.plan
      | None ->
        Metrics.incr Metrics.cache_stmt_misses;
        None)

let put_stmt t sql plan =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.replace t.stmts sql { plan; tables = Logical.tables plan })

(* ------------------------------------------------------------------ *)
(* Result cache                                                        *)
(* ------------------------------------------------------------------ *)

let result_key cat plan =
  let tables = Logical.tables plan in
  let stamp table =
    match Catalog.find cat table with
    | None -> None
    | Some entry -> (
      (* a still-unopened file gets a fresh stat: the stamp must name the
         version the (imminent) execution will read *)
      match entry.Catalog.state.Catalog.identity with
      | Some id -> Some (table ^ "=" ^ File_id.to_string id)
      | None ->
        Option.map (fun id -> table ^ "=" ^ File_id.to_string id)
          (File_id.stat entry.Catalog.path))
  in
  let rec all acc = function
    | [] -> Some (List.rev acc)
    | tbl :: rest -> (
      match stamp tbl with None -> None | Some s -> all (s :: acc) rest)
  in
  Option.map
    (fun stamps -> Logical.exact_key plan ^ "@" ^ String.concat ";" stamps)
    (all [] tables)

let entry_bytes key chunk =
  let cols = Chunk.columns chunk in
  Array.fold_left (fun acc c -> acc + Column.byte_size c) 0 cols
  + String.length key + 128 (* hashtable + record overhead, approximate *)

let find_result t key =
  Mutex.protect t.mutex (fun () ->
      match Lru.find t.results key with
      | Some e ->
        Metrics.incr Metrics.cache_result_hits;
        Some (e.chunk, e.schema)
      | None ->
        Metrics.incr Metrics.cache_result_misses;
        None)

let put_result t cat ~key ~tables chunk schema =
  let bytes = entry_bytes key chunk in
  (* reserve OUTSIDE our mutex: the budget re-enters us through
     [register_budget]'s items, which take it *)
  if Catalog.reserve_bytes cat bytes then
    Mutex.protect t.mutex (fun () ->
        ignore (Lru.add t.results key { chunk; schema; tables; bytes }))
  else Metrics.incr Metrics.gov_fallback_streaming

let byte_usage t =
  Mutex.protect t.mutex (fun () ->
      Lru.fold (fun _ (e : result_entry) acc -> acc + e.bytes) t.results 0)

let n_results t = Mutex.protect t.mutex (fun () -> Lru.length t.results)

(* Least recently used first. The budget calls [items] and [drop] with its
   own mutex held, so they touch only our tables. *)
let register_budget t budget =
  Mem_budget.register budget ~name:"results" ~priority:0 ~items:(fun () ->
      Mutex.protect t.mutex (fun () ->
          Lru.fold
            (fun key (e : result_entry) acc ->
              let drop () = Mutex.protect t.mutex (fun () -> Lru.remove t.results key) in
              { Mem_budget.bytes = e.bytes; drop } :: acc)
            t.results []))

let invalidate_table t table =
  Mutex.protect t.mutex (fun () ->
      let stale_stmts =
        Hashtbl.fold
          (fun sql e acc ->
            if List.mem table e.tables then sql :: acc else acc)
          t.stmts []
      in
      List.iter (Hashtbl.remove t.stmts) stale_stmts;
      let stale_results =
        Lru.fold
          (fun k (e : result_entry) acc ->
            if List.mem table e.tables then k :: acc else acc)
          t.results []
      in
      List.iter (Lru.remove t.results) stale_results)

let clear t =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.reset t.stmts;
      Lru.clear t.results)
