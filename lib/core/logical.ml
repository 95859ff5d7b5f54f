open Raw_vector
open Raw_engine

type agg_spec = { op : Kernels.agg; expr : Expr.t; name : string }

type t =
  | Scan of { table : string; columns : int list }
  | Filter of Expr.t * t
  | Project of (Expr.t * string) list * t
  | Join of { left : t; right : t; left_key : int; right_key : int }
  | Aggregate of { keys : int list; aggs : agg_spec list; input : t }
  | Order_by of (int * [ `Asc | `Desc ]) list * t
  | Limit of int * t

let uniquify fields =
  let seen = Hashtbl.create 16 in
  List.map
    (fun (f : Schema.field) ->
      match Hashtbl.find_opt seen f.name with
      | None ->
        Hashtbl.replace seen f.name 1;
        f
      | Some k ->
        (* find a suffix that collides neither with earlier output names nor
           with literal "name#k" fields (stacked joins produce those) *)
        let rec fresh k =
          let candidate = Printf.sprintf "%s#%d" f.name k in
          if Hashtbl.mem seen candidate then fresh (k + 1) else (k, candidate)
        in
        let k, name = fresh (k + 1) in
        Hashtbl.replace seen f.name k;
        Hashtbl.replace seen name 1;
        { f with name })
    fields

let rec output_schema cat = function
  | Scan { table; columns } ->
    let entry = Catalog.get cat table in
    Schema.make
      (List.mapi
         (fun pos i ->
           let f = Schema.field entry.schema i in
           { f with Schema.source_index = pos })
         columns)
  | Filter (_, child) -> output_schema cat child
  | Project (items, child) ->
    let child_schema = output_schema cat child in
    let coltype i =
      if i < 0 || i >= Schema.arity child_schema then
        invalid_arg "Logical.output_schema: column index out of range"
      else Schema.dtype child_schema i
    in
    Schema.make
      (List.mapi
         (fun pos (e, name) ->
           { Schema.name; dtype = Expr.infer coltype e; source_index = pos })
         items)
  | Join { left; right; _ } ->
    let ls = output_schema cat left and rs = output_schema cat right in
    let fields = Schema.fields ls @ Schema.fields rs in
    Schema.make
      (List.mapi (fun pos f -> { f with Schema.source_index = pos })
         (uniquify fields))
  | Aggregate { keys; aggs; input } ->
    let child_schema = output_schema cat input in
    let coltype i = Schema.dtype child_schema i in
    let key_fields = List.map (fun i -> Schema.field child_schema i) keys in
    let agg_fields =
      List.map
        (fun { op; expr; name } ->
          let dtype =
            match op with
            | Kernels.Count | Kernels.Count_distinct -> Dtype.Int
            | Kernels.Avg -> Dtype.Float
            | Kernels.Max | Kernels.Min | Kernels.Sum -> Expr.infer coltype expr
          in
          { Schema.name; dtype; source_index = 0 })
        aggs
    in
    Schema.make
      (List.mapi (fun pos f -> { f with Schema.source_index = pos })
         (uniquify (key_fields @ agg_fields)))
  | Order_by (_, child) | Limit (_, child) -> output_schema cat child

(* Output arity without the catalog: every node's width follows from its
   children, and a scan's from its column list. *)
let rec width = function
  | Scan { columns; _ } -> List.length columns
  | Filter (_, c) | Order_by (_, c) | Limit (_, c) -> width c
  | Project (items, _) -> List.length items
  | Join { left; right; _ } -> width left + width right
  | Aggregate { keys; aggs; _ } -> List.length keys + List.length aggs

let rec split_and = function
  | Expr.And (a, b) -> split_and a @ split_and b
  | e -> [ e ]

(* Conjuncts on top of [child], merged into a filter already there so the
   rewrite never stacks two filters over one node. *)
let add_filter conjuncts child =
  let conjuncts, child =
    match child with
    | Filter (p, c) when conjuncts <> [] -> (split_and p @ conjuncts, c)
    | _ -> (conjuncts, child)
  in
  match conjuncts with
  | [] -> child
  | c :: rest -> Filter (List.fold_left (fun a b -> Expr.And (a, b)) c rest, child)

let rec push_filters = function
  | Filter (pred, Join j) ->
    let wl = width j.left in
    let side e =
      match Expr.columns_used e with
      | [] -> `Above
      | cols when List.for_all (fun i -> i < wl) cols -> `Left
      | cols when List.for_all (fun i -> i >= wl) cols -> `Right
      | _ -> `Above
    in
    let conjuncts = split_and pred in
    let on s = List.filter (fun e -> side e = s) conjuncts in
    let right = List.map (Expr.remap (fun i -> i - wl)) (on `Right) in
    let join =
      push_filters
        (Join
           { j with
             left = add_filter (on `Left) j.left;
             right = add_filter right j.right })
    in
    add_filter (on `Above) join
  | Scan _ as s -> s
  | Filter (e, c) -> Filter (e, push_filters c)
  | Project (items, c) -> Project (items, push_filters c)
  | Join j ->
    Join { j with left = push_filters j.left; right = push_filters j.right }
  | Aggregate a -> Aggregate { a with input = push_filters a.input }
  | Order_by (specs, c) -> Order_by (specs, push_filters c)
  | Limit (n, c) -> Limit (n, push_filters c)

let tables plan =
  let rec go acc = function
    | Scan { table; _ } -> table :: acc
    | Filter (_, c) | Project (_, c) | Order_by (_, c) | Limit (_, c) ->
      go acc c
    | Join { left; right; _ } -> go (go acc left) right
    | Aggregate { input; _ } -> go acc input
  in
  List.sort_uniq String.compare (go [] plan)

(* A stable query key. With [exact = false] every constant is wildcarded
   to '?' — so the 30 variants of "SELECT ... WHERE c < <k>" share one
   shape in the workload history while structurally different queries
   never collide. With [exact = true] constants (and the LIMIT count) are
   printed verbatim, which is what a result cache must key on: the shape
   key would alias WHERE c < 10 with WHERE c < 20. *)
let key ~exact plan =
  let buf = Buffer.create 64 in
  let add = Buffer.add_string buf in
  let rec expr = function
    | Expr.Col i -> add (Printf.sprintf "$%d" i)
    | Expr.Const v ->
      if exact then
        (* strings are escaped so a constant can never forge key syntax *)
        match v with
        | Value.String s -> add (Printf.sprintf "%S" s)
        | v -> add (Value.to_string v)
      else add "?"
    | Expr.Cmp (op, a, b) ->
      add "(";
      expr a;
      add (Kernels.cmp_to_string op);
      expr b;
      add ")"
    | Expr.Arith (op, a, b) ->
      add "(";
      expr a;
      add (Kernels.arith_to_string op);
      expr b;
      add ")"
    | Expr.And (a, b) ->
      add "(";
      expr a;
      add " and ";
      expr b;
      add ")"
    | Expr.Or (a, b) ->
      add "(";
      expr a;
      add " or ";
      expr b;
      add ")"
    | Expr.Not a ->
      add "not ";
      expr a
  in
  let ints is = add (String.concat "," (List.map string_of_int is)) in
  let rec node = function
    | Scan { table; columns } ->
      add "scan(";
      add table;
      add ":";
      ints columns;
      add ")"
    | Filter (e, c) ->
      add "filter(";
      expr e;
      add ")<-";
      node c
    | Project (items, c) ->
      add "project(";
      List.iteri
        (fun i (e, _) ->
          if i > 0 then add ",";
          expr e)
        items;
      add ")<-";
      node c
    | Join { left; right; left_key; right_key } ->
      add (Printf.sprintf "join($%d=$%d," left_key right_key);
      node left;
      add ",";
      node right;
      add ")"
    | Aggregate { keys; aggs; input } ->
      add "agg(";
      ints keys;
      add ";";
      List.iteri
        (fun i (a : agg_spec) ->
          if i > 0 then add ",";
          add (Kernels.agg_to_string a.op);
          add "(";
          expr a.expr;
          add ")")
        aggs;
      add ")<-";
      node input
    | Order_by (specs, c) ->
      add "sort(";
      add
        (String.concat ","
           (List.map
              (fun (i, d) ->
                Printf.sprintf "$%d%s" i
                  (match d with `Asc -> "+" | `Desc -> "-"))
              specs));
      add ")<-";
      node c
    | Limit (n, c) ->
      add (if exact then Printf.sprintf "limit(%d)<-" n else "limit(?)<-");
      node c
  in
  node plan;
  Buffer.contents buf

let fingerprint = key ~exact:false
let exact_key = key ~exact:true

let rec pp ppf = function
  | Scan { table; columns } ->
    Format.fprintf ppf "Scan(%s: %a)" table
      (Format.pp_print_list
         ~pp_sep:(fun f () -> Format.fprintf f ",")
         Format.pp_print_int)
      columns
  | Filter (e, c) -> Format.fprintf ppf "@[<v2>Filter %a@,%a@]" Expr.pp e pp c
  | Project (items, c) ->
    Format.fprintf ppf "@[<v2>Project %a@,%a@]"
      (Format.pp_print_list
         ~pp_sep:(fun f () -> Format.fprintf f ", ")
         (fun f (e, n) -> Format.fprintf f "%a AS %s" Expr.pp e n))
      items pp c
  | Join { left; right; left_key; right_key } ->
    Format.fprintf ppf "@[<v2>Join l.$%d = r.$%d@,%a@,%a@]" left_key right_key
      pp left pp right
  | Aggregate { keys; aggs; input } ->
    Format.fprintf ppf "@[<v2>Aggregate keys=[%a] aggs=[%a]@,%a@]"
      (Format.pp_print_list
         ~pp_sep:(fun f () -> Format.fprintf f ",")
         Format.pp_print_int)
      keys
      (Format.pp_print_list
         ~pp_sep:(fun f () -> Format.fprintf f ", ")
         (fun f { op; expr; name } ->
           Format.fprintf f "%s(%a) AS %s" (Kernels.agg_to_string op) Expr.pp
             expr name))
      aggs pp input
  | Order_by (specs, c) ->
    Format.fprintf ppf "@[<v2>OrderBy %a@,%a@]"
      (Format.pp_print_list
         ~pp_sep:(fun f () -> Format.fprintf f ", ")
         (fun f (i, d) ->
           Format.fprintf f "$%d %s" i
             (match d with `Asc -> "ASC" | `Desc -> "DESC")))
      specs pp c
  | Limit (n, c) -> Format.fprintf ppf "@[<v2>Limit %d@,%a@]" n pp c
