(* See stmt_cache.mli. Locking discipline: [t.mutex] guards both tables
   and is never held across a call into the memory budget — [put_result]
   reserves first (which may re-enter us through the shrink callback,
   which takes the mutex) and only then inserts. *)

open Raw_vector
open Raw_storage
module Metrics = Raw_obs.Metrics

type result_entry = {
  chunk : Chunk.t;
  schema : Schema.t;
  tables : string list;
  bytes : int;
  mutable stamp : int; (* recency tick: larger = used more recently *)
}

type stmt_entry = { plan : Logical.t; tables : string list }

type t = {
  mutex : Mutex.t;
  stmts : (string, stmt_entry) Hashtbl.t;
  results : (string, result_entry) Hashtbl.t;
  mutable tick : int;
  mutable result_bytes : int;
}

let create () =
  {
    mutex = Mutex.create ();
    stmts = Hashtbl.create 64;
    results = Hashtbl.create 64;
    tick = 0;
    result_bytes = 0;
  }

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
      match Hashtbl.find_opt t.results key with
      | Some e ->
        t.tick <- t.tick + 1;
        e.stamp <- t.tick;
        Metrics.incr Metrics.cache_result_hits;
        Some (e.chunk, e.schema)
      | None ->
        Metrics.incr Metrics.cache_result_misses;
        None)

let put_result t cat ~key ~tables chunk schema =
  let bytes = entry_bytes key chunk in
  (* reserve OUTSIDE our mutex: the budget's shrink path re-enters us
     through [evict_results], which takes it *)
  if Catalog.reserve_bytes cat bytes then
    Mutex.protect t.mutex (fun () ->
        (match Hashtbl.find_opt t.results key with
        | Some old -> t.result_bytes <- t.result_bytes - old.bytes
        | None -> ());
        t.tick <- t.tick + 1;
        Hashtbl.replace t.results key
          { chunk; schema; tables; bytes; stamp = t.tick };
        t.result_bytes <- t.result_bytes + bytes)
  else Metrics.incr Metrics.gov_fallback_streaming

let byte_usage t = Mutex.protect t.mutex (fun () -> t.result_bytes)
let n_results t = Mutex.protect t.mutex (fun () -> Hashtbl.length t.results)

(* Evict least-recently-used results until [need] bytes are freed. Runs
   as the budget's shrink callback (budget mutex held), so it must not
   call back into the budget — it only touches our own tables. *)
let evict_results t ~need =
  Mutex.protect t.mutex (fun () ->
      let all =
        Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.results []
        |> List.sort (fun (_, a) (_, b) -> compare a.stamp b.stamp)
      in
      let freed = ref 0 in
      List.iter
        (fun (k, e) ->
          if !freed < need then begin
            Hashtbl.remove t.results k;
            t.result_bytes <- t.result_bytes - e.bytes;
            freed := !freed + e.bytes;
            Metrics.incr Metrics.gov_evictions;
            Io_stats.incr "gov.evictions.results"
          end)
        all;
      !freed)

let register_budget t budget =
  Mem_budget.register budget ~name:"results" ~priority:0
    ~usage:(fun () -> byte_usage t)
    ~shrink:(fun ~need -> evict_results t ~need)

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
        Hashtbl.fold
          (fun k (e : result_entry) acc ->
            if List.mem table e.tables then (k, e) :: acc else acc)
          t.results []
      in
      List.iter
        (fun (k, e) ->
          Hashtbl.remove t.results k;
          t.result_bytes <- t.result_bytes - e.bytes)
        stale_results)

let clear t =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.reset t.stmts;
      Hashtbl.reset t.results;
      t.result_bytes <- 0)
