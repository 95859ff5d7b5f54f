open Raw_vector
open Raw_engine
open Raw_sql

exception Bind_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bind_error s)) fmt

(* A name scope: one binding per visible column, in output order. *)
type binding = { alias : string; column : string; schema_idx : int }

let resolve_table cat (r : Ast.table_ref) =
  match Catalog.find cat r.table with
  | None -> fail "unknown table %s" r.table
  | Some entry -> (Option.value r.alias ~default:r.table, entry)

(* Collect every column referenced under a given table scope. *)
let rec refs acc (e : Ast.expr) =
  match e with
  | Ast.Ref r -> r :: acc
  | Ast.Lit _ | Ast.Count_star -> acc
  | Ast.Cmp (_, a, b) | Ast.Arith (_, a, b) | Ast.And (a, b) | Ast.Or (a, b) ->
    refs (refs acc a) b
  | Ast.Not a | Ast.Agg (_, a) -> refs acc a

let rec has_agg (e : Ast.expr) =
  match e with
  | Ast.Agg _ | Ast.Count_star -> true
  | Ast.Ref _ | Ast.Lit _ -> false
  | Ast.Cmp (_, a, b) | Ast.Arith (_, a, b) | Ast.And (a, b) | Ast.Or (a, b) ->
    has_agg a || has_agg b
  | Ast.Not a -> has_agg a

(* Resolve a column reference within a list of (alias, entry) scopes.
   Returns (alias, schema index). A qualified name that does not resolve as
   table.column is retried as a single dotted column name — JSONL columns
   are dotted paths ("user.id"), which the parser cannot distinguish from
   qualification. *)
let resolve_unqualified scopes column =
  let hits =
    List.filter_map
      (fun (alias, (entry : Catalog.entry)) ->
        Option.map (fun i -> (alias, i)) (Schema.index_of entry.schema column))
      scopes
  in
  match hits with
  | [ hit ] -> Some hit
  | [] -> None
  | _ -> fail "ambiguous column %s (qualify it)" column

let resolve_ref scopes { Ast.table; column } =
  match table with
  | Some t ->
    (match List.assoc_opt t scopes with
     | Some (entry : Catalog.entry) ->
       (match Schema.index_of entry.schema column with
        | Some i -> (t, i)
        | None ->
          (match resolve_unqualified scopes (t ^ "." ^ column) with
           | Some hit -> hit
           | None -> fail "table %s has no column %s" t column))
     | None ->
       (match resolve_unqualified scopes (t ^ "." ^ column) with
        | Some hit -> hit
        | None -> fail "unknown table, alias or dotted column %s.%s" t column))
  | None ->
    (match resolve_unqualified scopes column with
     | Some hit -> hit
     | None -> fail "unknown column %s" column)

(* Translate a scalar AST expression into an engine expression, given a
   function resolving column refs to positions. *)
let rec translate lookup (e : Ast.expr) : Expr.t =
  match e with
  | Ast.Lit v -> Expr.Const v
  | Ast.Ref r -> Expr.Col (lookup r)
  | Ast.Cmp (op, a, b) -> Expr.Cmp (op, translate lookup a, translate lookup b)
  | Ast.Arith (op, a, b) ->
    Expr.Arith (op, translate lookup a, translate lookup b)
  | Ast.And (a, b) -> Expr.And (translate lookup a, translate lookup b)
  | Ast.Or (a, b) -> Expr.Or (translate lookup a, translate lookup b)
  | Ast.Not a -> Expr.Not (translate lookup a)
  | Ast.Agg _ | Ast.Count_star -> fail "aggregate not allowed here"

let agg_ident op =
  String.map
    (fun c -> if c = ' ' then '_' else c)
    (String.lowercase_ascii (Kernels.agg_to_string op))

let expr_name (e : Ast.expr) =
  match e with
  | Ast.Ref { column; _ } -> column
  | Ast.Agg (op, Ast.Ref { column; _ }) -> agg_ident op ^ "_" ^ column
  | Ast.Agg (op, _) -> agg_ident op
  | Ast.Count_star -> "count"
  | _ -> "expr"

let uniquify names =
  let seen = Hashtbl.create 8 in
  List.map
    (fun n ->
      match Hashtbl.find_opt seen n with
      | None ->
        Hashtbl.replace seen n 1;
        n
      | Some k ->
        Hashtbl.replace seen n (k + 1);
        Printf.sprintf "%s#%d" n (k + 1))
    names

let bind cat (q : Ast.query) =
  (* -------- scopes -------- *)
  let base = resolve_table cat q.from in
  let join_scopes = List.map (fun (j : Ast.join) -> resolve_table cat j.rel) q.joins in
  let scopes = base :: join_scopes in
  (match
     List.sort_uniq String.compare (List.map fst scopes)
     |> List.length
   with
  | n when n <> List.length scopes -> fail "duplicate table alias"
  | _ -> ());
  (* -------- per-table required columns -------- *)
  let select_items =
    match q.select with
    | `Items items -> items
    | `Star ->
      List.concat_map
        (fun (alias, (entry : Catalog.entry)) ->
          List.map
            (fun (f : Schema.field) ->
              {
                Ast.expr = Ast.Ref { table = Some alias; column = f.name };
                alias = (if List.length scopes > 1 then Some (alias ^ "." ^ f.name) else None);
              })
            (Schema.fields entry.schema))
        scopes
  in
  let is_agg_query =
    q.group_by <> [] || Option.is_some q.having
    || List.exists (fun (i : Ast.select_item) -> has_agg i.expr) select_items
  in
  let out_names =
    uniquify
      (List.map
         (fun (i : Ast.select_item) ->
           match i.alias with Some a -> a | None -> expr_name i.expr)
         select_items)
  in
  (* an ORDER BY name outside the select list sorts the input rows below
     the projection (see ORDER BY below), which then reads every ORDER BY
     name as an input column *)
  let order_inputs =
    if
      is_agg_query || q.distinct
      || List.for_all (fun (o : Ast.order) -> List.mem o.column out_names) q.order_by
    then []
    else
      List.map
        (fun (o : Ast.order) -> Ast.Ref { Ast.table = None; column = o.column })
        q.order_by
  in
  let all_exprs =
    List.map (fun (i : Ast.select_item) -> i.expr) select_items
    @ Option.to_list q.where @ q.group_by @ Option.to_list q.having
    @ List.concat_map
        (fun (j : Ast.join) -> [ j.on_left; j.on_right ])
        q.joins
    @ order_inputs
  in
  let all_refs = List.fold_left refs [] all_exprs in
  let used : (string, int list ref) Hashtbl.t = Hashtbl.create 4 in
  List.iter (fun (alias, _) -> Hashtbl.replace used alias (ref [])) scopes;
  List.iter
    (fun r ->
      let alias, idx = resolve_ref scopes r in
      let l = Hashtbl.find used alias in
      if not (List.mem idx !l) then l := idx :: !l)
    all_refs;
  let cols_of alias = List.sort Stdlib.compare !(Hashtbl.find used alias) in
  (* -------- build the join tree with a running name environment -------- *)
  (* env: binding list in output order *)
  let scan_of (alias, (entry : Catalog.entry)) =
    let cols = cols_of alias in
    let plan = Logical.Scan { table = entry.name; columns = cols } in
    let env =
      List.map
        (fun i -> { alias; column = Schema.name entry.schema i; schema_idx = i })
        cols
    in
    (plan, env)
  in
  let env_lookup env r =
    let alias, idx = resolve_ref scopes r in
    let rec go pos = function
      | [] -> fail "internal: unbound column %s" r.Ast.column
      | b :: rest ->
        if String.equal b.alias alias && b.schema_idx = idx then pos
        else go (pos + 1) rest
    in
    go 0 env
  in
  let key_ref env side_name (e : Ast.expr) =
    match e with
    | Ast.Ref r ->
      (try Some (env_lookup env r) with Bind_error _ -> None)
    | _ -> fail "join condition on %s must be a plain column" side_name
  in
  let plan, env =
    List.fold_left2
      (fun (lplan, lenv) (j : Ast.join) scope ->
        let rplan, renv = scan_of scope in
        (* each key must resolve on exactly one side *)
        let resolve_key e =
          match (key_ref lenv "left" e, key_ref renv "right" e) with
          | Some l, None -> `L l
          | None, Some r -> `R r
          | Some _, Some _ -> fail "ambiguous join key"
          | None, None -> fail "join key does not resolve"
        in
        let left_key, right_key =
          match (resolve_key j.on_left, resolve_key j.on_right) with
          | `L l, `R r | `R r, `L l -> (l, r)
          | _ -> fail "join condition must relate the two sides"
        in
        ( Logical.Join { left = lplan; right = rplan; left_key; right_key },
          lenv @ renv ))
      (scan_of base) q.joins join_scopes
  in
  (* -------- WHERE -------- *)
  (match q.where with
   | Some w when has_agg w -> fail "aggregates are not allowed in WHERE"
   | _ -> ());
  let plan =
    match q.where with
    | None -> plan
    | Some w -> Logical.Filter (translate (env_lookup env) w, plan)
  in
  (* -------- aggregation -------- *)
  let plan, out_env =
    if not is_agg_query then begin
      (* plain projection *)
      let items =
        List.map2
          (fun (i : Ast.select_item) name ->
            (translate (env_lookup env) i.expr, name))
          select_items out_names
      in
      (Logical.Project (items, plan), out_names)
    end
    else begin
      (* group keys must be plain column refs *)
      let key_positions =
        List.map
          (fun e ->
            match e with
            | Ast.Ref r -> env_lookup env r
            | _ -> fail "GROUP BY supports plain columns only")
          q.group_by
      in
      (* collect aggregates from SELECT and HAVING *)
      let agg_table : (Kernels.agg * Expr.t) list ref = ref [] in
      let add_agg op expr =
        let translated = translate (env_lookup env) expr in
        let existing =
          List.find_opt (fun (o, e) -> o = op && e = translated) !agg_table
        in
        match existing with
        | Some _ -> ()
        | None -> agg_table := !agg_table @ [ (op, translated) ]
      in
      let rec collect (e : Ast.expr) =
        match e with
        | Ast.Agg (op, inner) -> add_agg op inner
        | Ast.Count_star -> add_agg Kernels.Count (Ast.Lit (Value.Int 1))
        | Ast.Cmp (_, a, b) | Ast.Arith (_, a, b) | Ast.And (a, b)
        | Ast.Or (a, b) ->
          collect a;
          collect b
        | Ast.Not a -> collect a
        | Ast.Ref _ | Ast.Lit _ -> ()
      in
      List.iter (fun (i : Ast.select_item) -> collect i.expr) select_items;
      Option.iter collect q.having;
      let aggs = !agg_table in
      let agg_specs =
        List.mapi
          (fun k (op, e) ->
            { Logical.op; expr = e; name = Printf.sprintf "agg%d" k })
          aggs
      in
      let agg_plan =
        Logical.Aggregate { keys = key_positions; aggs = agg_specs; input = plan }
      in
      (* aggregate output: keys first, then aggregates *)
      let agg_pos op expr =
        let translated = translate (env_lookup env) expr in
        let rec go k = function
          | [] -> fail "internal: aggregate not found"
          | (o, e) :: rest ->
            if o = op && e = translated then k else go (k + 1) rest
        in
        List.length key_positions + go 0 aggs
      in
      (* translate post-aggregation expressions: Aggs become columns; Refs
         must be group keys *)
      let rec post (e : Ast.expr) : Expr.t =
        match e with
        | Ast.Agg (op, inner) -> Expr.Col (agg_pos op inner)
        | Ast.Count_star -> Expr.Col (agg_pos Kernels.Count (Ast.Lit (Value.Int 1)))
        | Ast.Ref r ->
          let pos = env_lookup env r in
          (match List.find_index (fun k -> k = pos) key_positions with
           | Some k -> Expr.Col k
           | None ->
             fail "column %s must appear in GROUP BY or inside an aggregate"
               r.column)
        | Ast.Lit v -> Expr.Const v
        | Ast.Cmp (op, a, b) -> Expr.Cmp (op, post a, post b)
        | Ast.Arith (op, a, b) -> Expr.Arith (op, post a, post b)
        | Ast.And (a, b) -> Expr.And (post a, post b)
        | Ast.Or (a, b) -> Expr.Or (post a, post b)
        | Ast.Not a -> Expr.Not (post a)
      in
      let plan =
        match q.having with
        | None -> agg_plan
        | Some h -> Logical.Filter (post h, agg_plan)
      in
      let items =
        List.map2
          (fun (i : Ast.select_item) name -> (post i.expr, name))
          select_items out_names
      in
      (Logical.Project (items, plan), out_names)
    end
  in
  (* -------- DISTINCT --------
     deduplicate the projected rows by grouping on every output column *)
  let plan =
    if q.distinct then
      Logical.Aggregate
        {
          keys = List.init (List.length out_env) Fun.id;
          aggs = [];
          input = plan;
        }
    else plan
  in
  (* -------- ORDER BY / LIMIT --------
     An ORDER BY name resolves first against the select list; failing that
     (for non-aggregate queries) against the input columns, in which case
     the sort is placed below the projection. *)
  let plan =
    match q.order_by with
    | [] -> plan
    | orders ->
      let out_pos name =
        let rec find k = function
          | [] -> None
          | n :: rest -> if String.equal n name then Some k else find (k + 1) rest
        in
        find 0 out_env
      in
      let all_output =
        List.for_all (fun (o : Ast.order) -> Option.is_some (out_pos o.column)) orders
      in
      if all_output then
        let specs =
          List.map
            (fun (o : Ast.order) -> (Option.get (out_pos o.column), o.dir))
            orders
        in
        Logical.Order_by (specs, plan)
      else if is_agg_query || q.distinct then
        fail "ORDER BY column %s is not in the select list"
          (List.find (fun (o : Ast.order) -> out_pos o.column = None) orders)
            .column
      else begin
        (* sort the input rows before projecting; in a mixed
           select-alias/input ordering the alias is re-resolved as an input
           column too *)
        let specs =
          List.map
            (fun (o : Ast.order) ->
              (env_lookup env { Ast.table = None; column = o.column }, o.dir))
            orders
        in
        match plan with
        | Logical.Project (items, inner) ->
          Logical.Project (items, Logical.Order_by (specs, inner))
        | p -> Logical.Order_by (specs, p)
      end
  in
  match q.limit with None -> plan | Some n -> Logical.Limit (n, plan)

let bind_string cat s = bind cat (Parser.parse s)
