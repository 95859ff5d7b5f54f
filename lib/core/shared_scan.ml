(* See shared_scan.mli. The warm pass is the planner's own plan for a scan
   of the group's columns not yet in memory, drained once: its late scans
   leave each of them in the shred pool (or the DBMS-loaded columns),
   where the members' fetches then find it. Nothing here lowers a member
   plan. *)

(* Only single-table, join-free plans share a pass: a join reads two
   files, and its build side must be fully drained before the probe side
   streams. External access re-converts the whole file on every query and
   never reads the pool, so a warm pass could not serve its members. *)
let shareable_table (options : Planner.options) plan =
  match (options.Planner.access, Logical.tables plan) with
  | Access.External, _ -> None
  | _, [ t ] when not (Planner.has_join plan) -> Some t
  | _ -> None

let rec scan_columns acc = function
  | Logical.Scan { columns; _ } -> List.rev_append columns acc
  | Logical.Filter (_, c) | Logical.Project (_, c)
  | Logical.Order_by (_, c) | Logical.Limit (_, c) ->
    scan_columns acc c
  | Logical.Aggregate { input; _ } -> scan_columns acc input
  | Logical.Join { left; right; _ } -> scan_columns (scan_columns acc left) right

(* The plans' scan columns of [table] that are not in memory: what a warm
   pass reads. A column the pool already holds is read from the file only
   for the rows it lacks, once, by the first member that needs them;
   count-star plans read no column. *)
let cold_columns cat (options : Planner.options) table plans =
  let entry = Catalog.get cat table in
  List.filter
    (fun c -> not (Access.held cat ~mode:options.Planner.access entry c))
    (List.sort_uniq compare (List.fold_left scan_columns [] plans))

let reads_raw cat options plan =
  match shareable_table options plan with
  | Some table -> cold_columns cat options table [ plan ] <> []
  | None -> false

let warm cat options plans =
  let table =
    match List.map (shareable_table options) plans with
    | [] -> invalid_arg "Shared_scan.warm: empty group"
    | Some t :: rest when List.for_all (( = ) (Some t)) rest -> t
    | _ -> invalid_arg "Shared_scan.warm: unshareable or mixed-table group"
  in
  match cold_columns cat options table plans with
  | [] -> ()
  | cold ->
    let op, _ = Planner.plan cat options (Logical.Scan { table; columns = cold }) in
    Raw_engine.Operator.iter ignore op
