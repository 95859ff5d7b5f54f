(* See shared_scan.mli. The shared pass materializes the union of the
   group's scan columns once, then replays it as per-member chunk streams
   — the member plans never touch the raw file. Correctness rests on two
   invariants: (1) all members share one table and one error policy, so
   the master scan enumerates exactly the row set each would have seen;
   (2) logical plans are positional, so projecting the union chunk into a
   member's scan-column order reproduces its scan output bit for bit. *)

open Raw_vector
open Raw_engine

type member_result = { chunk : Chunk.t; schema : Schema.t }

type group_result = {
  results : member_result list; (* in submission order *)
  rows_scanned : int;
  wall_seconds : float;
}

(* Only single-table, join-free plans share a pass: a join reads two
   files, and its build side must be fully drained before the probe side
   streams, which breaks the one-traversal-feeds-all shape. *)
let shareable_table plan =
  match Logical.tables plan with
  | [ t ] when not (Planner.has_join plan) -> Some t
  | _ -> None

let rec scan_columns acc = function
  | Logical.Scan { columns; _ } -> List.rev_append columns acc
  | Logical.Filter (_, c) | Logical.Project (_, c)
  | Logical.Order_by (_, c) | Logical.Limit (_, c) ->
    scan_columns acc c
  | Logical.Aggregate { input; _ } -> scan_columns acc input
  | Logical.Join { left; right; _ } -> scan_columns (scan_columns acc left) right

let index_in union c =
  let rec go i = function
    | [] -> invalid_arg "Shared_scan: column not in union"
    | x :: rest -> if x = c then i else go (i + 1) rest
  in
  go 0 union

(* Evaluate one member plan over the materialized union chunks. The
   lowering mirrors the planner's operator emission for non-scan nodes;
   Scan nodes become projections of the shared pass. *)
let eval_member ~chunk_rows ~union ~master plan schema =
  let feed columns =
    (* a column-less scan (count star) still needs the row count, which a
       chunk derives from its columns: feed the union's first column *)
    let columns = match columns with [] -> [ List.hd union ] | cs -> cs in
    Operator.of_chunk ~chunk_rows
      (Chunk.project master (List.map (index_in union) columns))
  in
  let rec go = function
    | Logical.Scan { columns; _ } -> feed columns
    | Logical.Filter (e, c) -> Operator.filter e (go c)
    | Logical.Project (items, c) -> Operator.project (List.map fst items) (go c)
    | Logical.Aggregate { keys; aggs; input } ->
      let aggs = List.map (fun (a : Logical.agg_spec) -> (a.op, a.expr)) aggs in
      let inp = go input in
      if keys = [] then Operator.aggregate aggs inp
      else Operator.group_by ~keys:(List.map Expr.col keys) ~aggs inp
    | Logical.Limit (n, Logical.Order_by (specs, c)) ->
      Operator.sort ~limit:n ~by:specs (go c)
    | Logical.Order_by (specs, c) -> Operator.sort ~by:specs (go c)
    | Logical.Limit (n, c) -> Operator.limit n (go c)
    | Logical.Join _ -> invalid_arg "Shared_scan: join plans are not shareable"
  in
  { chunk = Executor.fix_empty schema (Operator.to_chunk (go plan)); schema }

let run_group cat options plans =
  let table =
    match plans with
    | [] -> invalid_arg "Shared_scan.run_group: empty group"
    | p :: rest ->
      let t =
        match shareable_table p with
        | Some t -> t
        | None -> invalid_arg "Shared_scan.run_group: unshareable plan"
      in
      List.iter
        (fun q ->
          if shareable_table q <> Some t then
            invalid_arg "Shared_scan.run_group: mixed tables in group")
        rest;
      t
  in
  let t0 = Raw_storage.Timing.now () in
  let union =
    match List.sort_uniq compare (List.fold_left scan_columns [] plans) with
    | [] -> [ 0 ] (* every member is count-star-shaped: row count still needed *)
    | cs -> cs
  in
  (* one traversal of the raw file, with the session's full access-path
     machinery (posmaps, shreds, JIT templates) behind it *)
  let schemas = List.map (Logical.output_schema cat) plans in
  let op, _ = Planner.plan cat options (Logical.Scan { table; columns = union }) in
  let master = Operator.to_chunk op in
  let chunk_rows = (Catalog.config cat).Config.chunk_rows in
  let results =
    List.map2 (eval_member ~chunk_rows ~union ~master) plans schemas
  in
  Raw_obs.Decisions.record ~site:"scan.shared" ~choice:table
    [
      ("queries", string_of_int (List.length plans));
      ("columns", String.concat "," (List.map string_of_int union));
    ];
  {
    results;
    rows_scanned = Chunk.n_rows master;
    wall_seconds = Raw_storage.Timing.now () -. t0;
  }
