open Raw_vector
open Raw_engine

type shred_strategy = Cost_model.strategy =
  | Full_columns
  | Shreds
  | Multi_shreds
  | Adaptive

type join_policy = Early | Intermediate | Late

type options = {
  access : Access.mode;
  shreds : shred_strategy;
  join_policy : join_policy;
  tracked : [ `Every of int | `Cols of int list ];
  use_indexes : bool;
}

let default =
  { access = Access.Jit; shreds = Shreds; join_policy = Late;
    tracked = `Every 10; use_indexes = true }

let join_policy_to_string = function
  | Early -> "early"
  | Intermediate -> "intermediate"
  | Late -> "late"

(* ------------------------------------------------------------------ *)

type slot = Mat of int | Pend of { entry : Catalog.entry; schema_idx : int }

type phys = {
  op : Operator.t;
  slots : slot array;
  n_phys : int;
  rowids : (string * int) list;
}

type ctx = {
  cat : Catalog.t;
  opts : options;
  has_join : bool;
  mutable restricted : string list; (* tables already filtered/joined *)
  mutable trace : string list; (* planning decisions, reverse order *)
}

let tracked_for opts (entry : Catalog.entry) =
  match opts.tracked with
  | `Cols cols -> cols
  | `Every k ->
    Raw_formats.Posmap.every_k ~k
      ~n_cols:(Schema.max_source_index entry.schema + 1)

let tr ctx fmt = Printf.ksprintf (fun s -> ctx.trace <- s :: ctx.trace) fmt

let phys_index slots i =
  match slots.(i) with
  | Mat p -> p
  | Pend _ -> invalid_arg "Planner: column used before materialization"

let remap slots e = Expr.remap (phys_index slots) e

(* Attach late scans so that every logical position in [needed] is
   materialized. Grouping per the shred strategy; [expand] additionally
   pulls in all pending columns of the involved tables (multi-column
   shreds / intermediate join materialization). *)
let materialize ctx ?(expand = false) phys needed =
  let pending =
    List.filter
      (fun i -> match phys.slots.(i) with Pend _ -> true | Mat _ -> false)
      (List.sort_uniq Stdlib.compare needed)
  in
  if pending = [] then phys
  else begin
    (* group logical positions by table *)
    let by_table : (string, (int * Catalog.entry * int) list ref) Hashtbl.t =
      Hashtbl.create 4
    in
    let add i =
      match phys.slots.(i) with
      | Pend { entry; schema_idx } ->
        let l =
          match Hashtbl.find_opt by_table entry.name with
          | Some l -> l
          | None ->
            let l = ref [] in
            Hashtbl.replace by_table entry.name l;
            l
        in
        if not (List.exists (fun (j, _, _) -> j = i) !l) then
          l := (i, entry, schema_idx) :: !l
      | Mat _ -> ()
    in
    List.iter add pending;
    if expand then
      (* also materialize every other pending column of the tables touched *)
      Array.iteri
        (fun i slot ->
          match slot with
          | Pend { entry; _ } when Hashtbl.mem by_table entry.name -> add i
          | _ -> ())
        phys.slots;
    let op = ref phys.op in
    let slots = Array.copy phys.slots in
    let n_phys = ref phys.n_phys in
    Hashtbl.iter
      (fun table l ->
        let members =
          List.sort (fun (_, _, a) (_, _, b) -> Stdlib.compare a b) !l
        in
        let _, entry, _ = List.hd members in
        let rowid_pos =
          match List.assoc_opt table phys.rowids with
          | Some p -> p
          | None ->
            invalid_arg
              ("Planner: no row-id column for table " ^ table
             ^ " (cannot late-scan)")
        in
        let tracked = tracked_for ctx.opts entry in
        let groups =
          match ctx.opts.shreds with
          | Shreds ->
            (* the strict form: one generated scan operator per field *)
            List.map (fun m -> [ m ]) members
          | Full_columns | Multi_shreds -> [ members ]
          | Adaptive -> assert false (* resolved in [plan] *)
        in
        List.iter
          (fun group ->
            let cols = List.map (fun (_, _, s) -> s) group in
            tr ctx "attach late scan on %s: columns [%s]" table
              (String.concat ";"
                 (List.map (fun c -> Schema.name entry.schema c) cols));
            op :=
              Access.late_scan ctx.cat ~mode:ctx.opts.access ~entry ~tracked
                ~cols ~rowid_pos !op;
            List.iter
              (fun (i, _, _) ->
                slots.(i) <- Mat !n_phys;
                incr n_phys)
              group)
          groups)
      by_table;
    { phys with op = !op; slots; n_phys = !n_phys }
  end

(* ---------- index-based access (paper §4.1) ---------- *)

let index_bounds (op : Kernels.cmp) x =
  match op with
  | Kernels.Lt -> if x = min_int then None else Some (min_int, x - 1)
  | Kernels.Le -> Some (min_int, x)
  | Kernels.Gt -> if x = max_int then None else Some (x + 1, max_int)
  | Kernels.Ge -> Some (x, max_int)
  | Kernels.Eq -> Some (x, x)
  | Kernels.Ne -> None

(* If the scanned file embeds an index matching one of the conjuncts,
   resolve that conjunct through the index: returns the row ids and the
   remaining conjuncts. *)
let try_index_scan ctx table columns conjuncts =
  match ctx.opts.access with
  | _ when not ctx.opts.use_indexes -> None
  | Access.Dbms | Access.External -> None
  | Access.In_situ | Access.Jit ->
    let entry = Catalog.get ctx.cat table in
    if
      not
        (List.mem Format_kind.Index_scan
           (Format_kind.capabilities entry.Catalog.format))
    then None
    else begin
      let bounds_of = function
        | Expr.Cmp (op, Expr.Col pos, Expr.Const (Value.Int x)) ->
          Some (pos, op, x)
        | Expr.Cmp (op, Expr.Const (Value.Int x), Expr.Col pos) ->
          Some (pos, Kernels.flip_cmp op, x)
        | _ -> None
      in
      let rec pick before = function
        | [] -> None
        | c :: rest ->
          (match bounds_of c with
           | Some (pos, op, x) when pos < List.length columns ->
             (match index_bounds op x with
              | Some (lo, hi) ->
                (match
                   Access.index_range ctx.cat ~mode:ctx.opts.access entry
                     ~col:(List.nth columns pos) ~lo ~hi
                 with
                 | Some rowids -> Some (rowids, List.rev_append before rest)
                 | None -> pick (c :: before) rest)
              | None -> pick (c :: before) rest)
           | _ -> pick (c :: before) rest)
      in
      pick [] conjuncts
    end

let mark_restricted ctx phys =
  List.iter
    (fun (t, _) ->
      if not (List.mem t ctx.restricted) then ctx.restricted <- t :: ctx.restricted)
    phys.rowids

(* One-shot table materialization: read all requested columns for every row
   when the plan first runs, then stream the result in chunks. Used for the
   DBMS, External and full-column strategies, where nothing is deferred,
   and wherever a column needs a pass over the whole file anyway. The row
   count comes from the read. *)
let eager_scan ctx (entry : Catalog.entry) columns =
  let cat = ctx.cat in
  let read () =
    let cols, rowids =
      Access.read_table cat ~mode:ctx.opts.access ~entry
        ~tracked:(tracked_for ctx.opts entry) ~cols:columns
    in
    Operator.of_chunk ~chunk_rows:(Catalog.config cat).chunk_rows
      (Chunk.create (Array.append cols [| Column.of_int_array rowids |]))
  in
  {
    op = Operator.defer read;
    slots = Array.of_list (List.mapi (fun i _ -> Mat i) columns);
    n_phys = List.length columns + 1;
    rowids = [ (entry.name, List.length columns) ];
  }

let rec plan_node ctx (node : Logical.t) : phys =
  match node with
  | Logical.Scan { table; columns } ->
    let entry = Catalog.get ctx.cat table in
    (* a column no positional map reaches costs a pass over the whole
       file; that pass converts every column the query reads *)
    let one_pass = Access.needs_pass ctx.cat ~mode:ctx.opts.access entry columns in
    let eager =
      one_pass
      ||
      match ctx.opts.access with
      | Access.Dbms | Access.External -> true
      | Access.In_situ | Access.Jit ->
        (match ctx.opts.shreds with
         | Full_columns -> true
         | Shreds | Multi_shreds -> ctx.has_join && ctx.opts.join_policy = Early
         | Adaptive -> assert false (* resolved in [plan] *))
    in
    if eager then begin
      tr ctx "scan %s (%s): eager, all %d requested columns materialized at \
the bottom (%s%s)"
        table
        (Format_kind.to_string entry.format)
        (List.length columns)
        (Access.mode_to_string ctx.opts.access)
        (if one_pass then "; one pass: no positional map reaches them" else "");
      eager_scan ctx entry columns
    end
    else begin
      tr ctx "scan %s (%s): row-id stream only; %d columns deferred" table
        (Format_kind.to_string entry.format)
        (List.length columns);
      {
        op = Access.base_scan ctx.cat entry;
        slots =
          Array.of_list
            (List.map (fun s -> Pend { entry; schema_idx = s }) columns);
        n_phys = 1;
        rowids = [ (table, 0) ];
      }
    end
  | Logical.Filter (pred, child) ->
    (* an index embedded in the scanned file can resolve one conjunct
       without reading the column at all *)
    let indexed =
      match child with
      | Logical.Scan { table; columns } ->
        (match try_index_scan ctx table columns (Logical.split_and pred) with
         | Some (rowids, remaining) ->
           let entry = Catalog.get ctx.cat table in
           tr ctx
             "index scan on %s: embedded index resolved a predicate to %d \
row ids (column never read)"
             table (Array.length rowids);
           let phys =
             {
               op = Access.rowid_scan ctx.cat rowids;
               slots =
                 Array.of_list
                   (List.map (fun s -> Pend { entry; schema_idx = s }) columns);
               n_phys = 1;
               rowids = [ (table, 0) ];
             }
           in
           ctx.restricted <- table :: ctx.restricted;
           Some (phys, remaining)
         | None -> None)
      | _ -> None
    in
    let phys, conjuncts =
      match indexed with
      | Some (phys, remaining) ->
        (phys,
         if remaining = [] then []
         else
           match ctx.opts.shreds with
           | Full_columns ->
             [ List.fold_left (fun a b -> Expr.And (a, b)) (List.hd remaining)
                 (List.tl remaining) ]
           | Shreds | Multi_shreds -> remaining
           | Adaptive -> assert false (* resolved in [plan] *))
      | None ->
        let phys = plan_node ctx child in
        let conjuncts =
          match ctx.opts.shreds with
          | Full_columns -> [ pred ]
          | Shreds | Multi_shreds -> Logical.split_and pred
          | Adaptive -> assert false (* resolved in [plan] *)
        in
        (phys, conjuncts)
    in
    if conjuncts = [] then phys
    else begin
      (* meter row flow around the whole conjunct chain: the per-query
         delta of rows_out/rows_in is the observed selectivity the
         executor joins against the adaptive estimate *)
      let count key phys =
        { phys with op = Operator.count_into (Raw_obs.Metrics.id key) phys.op }
      in
      let phys = count Raw_obs.Metrics.filter_rows_in phys in
      let phys =
        List.fold_left
          (fun phys conjunct ->
            let expand =
              ctx.opts.shreds = Multi_shreds
              && List.exists
                   (fun (t, _) -> List.mem t ctx.restricted)
                   phys.rowids
            in
            let phys =
              materialize ctx ~expand phys (Expr.columns_used conjunct)
            in
            tr ctx "filter: %s" (Format.asprintf "%a" Expr.pp conjunct);
            let phys =
              { phys with
                op = Operator.filter (remap phys.slots conjunct) phys.op
              }
            in
            mark_restricted ctx phys;
            phys)
          phys conjuncts
      in
      count Raw_obs.Metrics.filter_rows_out phys
    end
  | Logical.Join { left; right; left_key; right_key } ->
    let pl = plan_node ctx left in
    let pr = plan_node ctx right in
    let pl = materialize ctx pl [ left_key ] in
    let pr = materialize ctx pr [ right_key ] in
    let pl, pr =
      match ctx.opts.join_policy with
      | Intermediate ->
        (* create remaining columns after selections, before the join *)
        ( materialize ctx ~expand:true pl
            (List.init (Array.length pl.slots) Fun.id),
          materialize ctx ~expand:true pr
            (List.init (Array.length pr.slots) Fun.id) )
      | Early | Late -> (pl, pr)
    in
    tr ctx "hash join: left side probes (pipelined), right side builds \
(%s materialization)"
      (join_policy_to_string ctx.opts.join_policy);
    let op =
      Operator.hash_join ~build:pr.op ~probe:pl.op
        ~build_key:(Expr.Col (phys_index pr.slots right_key))
        ~probe_key:(Expr.Col (phys_index pl.slots left_key))
    in
    let shift = function
      | Mat p -> Mat (p + pl.n_phys)
      | Pend _ as s -> s
    in
    let slots = Array.append pl.slots (Array.map shift pr.slots) in
    let rowids =
      pl.rowids @ List.map (fun (t, p) -> (t, p + pl.n_phys)) pr.rowids
    in
    let phys = { op; slots; n_phys = pl.n_phys + pr.n_phys; rowids } in
    mark_restricted ctx phys;
    phys
  | Logical.Aggregate { keys; aggs; input } ->
    let phys = plan_node ctx input in
    let needed =
      keys
      @ List.concat_map
          (fun (a : Logical.agg_spec) -> Expr.columns_used a.expr)
          aggs
    in
    let phys = materialize ctx phys needed in
    let agg_list =
      List.map
        (fun (a : Logical.agg_spec) -> (a.op, remap phys.slots a.expr))
        aggs
    in
    let op =
      if keys = [] then Operator.aggregate agg_list phys.op
      else
        Operator.group_by
          ~keys:(List.map (fun k -> Expr.Col (phys_index phys.slots k)) keys)
          ~aggs:agg_list phys.op
    in
    let n_out = List.length keys + List.length aggs in
    {
      op;
      slots = Array.init n_out (fun i -> Mat i);
      n_phys = n_out;
      rowids = [];
    }
  | Logical.Project (items, child) ->
    let phys = plan_node ctx child in
    let needed = List.concat_map (fun (e, _) -> Expr.columns_used e) items in
    let phys = materialize ctx phys needed in
    let exprs = List.map (fun (e, _) -> remap phys.slots e) items in
    {
      op = Operator.project exprs phys.op;
      slots = Array.of_list (List.mapi (fun i _ -> Mat i) items);
      n_phys = List.length items;
      rowids = [];
    }
  | Logical.Limit (n, Logical.Order_by (specs, child)) ->
    plan_sort ctx ~limit:n specs child
  | Logical.Order_by (specs, child) -> plan_sort ctx specs child
  | Logical.Limit (n, child) ->
    let phys = plan_node ctx child in
    { phys with op = Operator.limit n phys.op }

(* ORDER BY, and ORDER BY … LIMIT as one bounded top-k *)
and plan_sort ctx ?limit specs child =
  let phys = plan_node ctx child in
  let phys = materialize ctx phys (List.map fst specs) in
  let by = List.map (fun (i, dir) -> (phys_index phys.slots i, dir)) specs in
  { phys with op = Operator.sort ?limit ~by phys.op }

(* Resolve the Adaptive strategy for one query: estimate the selectivity of
   the first filtered scan from accumulated statistics and cost the three
   concrete strategies (paper future work, §8). The costs are linear in
   the row count, so one row prices the choice and no count pass runs
   ahead of the query. *)
let resolve_adaptive cat (logical : Logical.t) =
  let rec find = function
    | Logical.Filter (pred, Logical.Scan { table; columns }) ->
      Some (pred, table, columns)
    | Logical.Filter (_, c)
    | Logical.Project (_, c)
    | Logical.Order_by (_, c)
    | Logical.Limit (_, c) ->
      find c
    | Logical.Aggregate { input; _ } -> find input
    | Logical.Join { left; right; _ } ->
      (match find left with Some x -> Some x | None -> find right)
    | Logical.Scan _ -> None
  in
  Option.map
    (fun (pred, table, columns) ->
      let conjuncts = Logical.split_and pred in
      let selectivity =
        Cost_model.estimate_selectivity (Catalog.stats cat) ~table ~columns
          conjuncts
      in
      let n_filter_cols =
        List.length
          (List.sort_uniq Stdlib.compare
             (List.concat_map Expr.columns_used conjuncts))
      in
      let n_post_cols = max 0 (List.length columns - n_filter_cols) in
      let textual = Format_kind.textual (Catalog.get cat table).Catalog.format in
      let choice =
        Cost_model.choose
          (Cost_model.selection_costs ~n_rows:1 ~n_filter_cols ~n_post_cols
             ~selectivity ~textual)
      in
      { Cost_model.table; choice; selectivity; n_filter_cols; n_post_cols; textual })
    (find logical)

let rec has_join = function
  | Logical.Join _ -> true
  | Logical.Scan _ -> false
  | Logical.Filter (_, c)
  | Logical.Project (_, c)
  | Logical.Order_by (_, c)
  | Logical.Limit (_, c) ->
    has_join c
  | Logical.Aggregate { input; _ } -> has_join input

type planned = {
  op : Operator.t;
  schema : Schema.t;
  trace : string list;
  prediction : Cost_model.prediction option;
}

let plan_with_trace cat opts original =
  (* the output schema comes from the plan as written; the rewrite only
     moves selections, so every later step plans the pushed-down form *)
  let logical = Logical.push_filters original in
  let opts, prediction =
    match opts.shreds with
    | Adaptive ->
      let prediction = resolve_adaptive cat logical in
      let shreds =
        match prediction with Some p -> p.Cost_model.choice | None -> Shreds
      in
      Raw_storage.Io_stats.incr
        (Raw_obs.Metrics.id Raw_obs.Metrics.planner_adaptive
        ^ Cost_model.strategy_to_string shreds);
      ({ opts with shreds }, prediction)
    | Full_columns | Shreds | Multi_shreds -> (opts, None)
  in
  let ctx =
    { cat; opts; has_join = has_join logical; restricted = []; trace = [] }
  in
  tr ctx "strategy: access=%s shreds=%s join=%s indexes=%s"
    (Access.mode_to_string opts.access)
    (Cost_model.strategy_to_string opts.shreds)
    (join_policy_to_string opts.join_policy)
    (if opts.use_indexes then "on" else "off");
  let phys = plan_node ctx logical in
  (* materialize whatever is still pending, then project to the logical
     output shape (dropping row-id bookkeeping columns) *)
  let all = List.init (Array.length phys.slots) Fun.id in
  let phys = materialize ctx phys all in
  let exprs = List.map (fun i -> Expr.Col (phys_index phys.slots i)) all in
  let op =
    if Array.length phys.slots = phys.n_phys
       && List.for_all2 (fun e i -> e = Expr.Col i) exprs all
    then phys.op
    else Operator.project exprs phys.op
  in
  {
    op;
    schema = Logical.output_schema cat original;
    trace = List.rev ctx.trace;
    prediction;
  }

let plan cat opts logical =
  let p = plan_with_trace cat opts logical in
  (p.op, p.schema)
