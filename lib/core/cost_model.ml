open Raw_vector
open Raw_engine

type strategy = Full_columns | Shreds | Multi_shreds | Adaptive

let strategy_to_string = function
  | Full_columns -> "full"
  | Shreds -> "shreds"
  | Multi_shreds -> "multishreds"
  | Adaptive -> "adaptive"

let default_conjunct_selectivity = 0.5

let estimate_selectivity stats ~table ~columns exprs =
  let est pos op (v : Value.t) =
    match List.nth_opt columns pos with
    | None -> default_conjunct_selectivity
    | Some col ->
      (match Table_stats.get stats ~table ~col with
       | None -> default_conjunct_selectivity
       | Some s ->
         (match v with
          | Value.Int x -> Table_stats.selectivity s op (float_of_int x)
          | Value.Float x -> Table_stats.selectivity s op x
          | _ -> default_conjunct_selectivity))
  in
  let one = function
    | Expr.Cmp (op, Expr.Col pos, Expr.Const v) -> est pos op v
    | Expr.Cmp (op, Expr.Const v, Expr.Col pos) -> est pos (Kernels.flip_cmp op) v
    | _ -> default_conjunct_selectivity
  in
  (* independence assumption across conjuncts *)
  List.fold_left (fun acc e -> acc *. one e) 1.0 exprs

type strategy_costs = { full : float; shreds : float; multi_shreds : float }

(* Per-value cost constants (abstract units). Textual formats pay
   tokenizing + conversion per value; binary formats a fixed-width read.
   A positional jump costs roughly one extra field's work for textual
   formats and nearly nothing for computed offsets. *)
let value_cost ~textual = if textual then 1.0 else 0.35
let jump_cost ~textual = if textual then 0.6 else 0.05
let column_build = 0.25 (* per value placed into a column *)

let selection_costs ~n_rows ~n_filter_cols ~n_post_cols ~selectivity ~textual =
  let n = float_of_int n_rows in
  let vc = value_cost ~textual and jc = jump_cost ~textual in
  let filter_cols = float_of_int (max n_filter_cols 1) in
  let post = float_of_int n_post_cols in
  let sel = Float.max 0.0 (Float.min 1.0 selectivity) in
  (* full: one pass reads everything *)
  let full = n *. (filter_cols +. post) *. (vc +. column_build) in
  (* shreds: filters at full cardinality, then per post column one jump +
     one value for each qualifying row *)
  let shreds =
    (n *. filter_cols *. (vc +. column_build))
    +. (sel *. n *. post *. (jc +. vc +. column_build))
  in
  (* multi-column shreds: qualifying rows pay one jump shared by all post
     columns *)
  let multi_shreds =
    (n *. filter_cols *. (vc +. column_build))
    +. (sel *. n *. (jc +. (post *. (vc +. column_build))))
  in
  { full; shreds; multi_shreds }

let choose c =
  if c.shreds <= c.full && c.shreds <= c.multi_shreds then Shreds
  else if c.multi_shreds <= c.full then Multi_shreds
  else Full_columns

let rec cost_of c = function
  | Full_columns -> c.full
  | Shreds -> c.shreds
  | Multi_shreds -> c.multi_shreds
  | Adaptive -> cost_of c (choose c)

type prediction = {
  table : string;
  choice : strategy;
  selectivity : float;
  n_filter_cols : int;
  n_post_cols : int;
  textual : bool;
}

let costs_at p ~n_rows ~selectivity =
  selection_costs ~n_rows ~n_filter_cols:p.n_filter_cols
    ~n_post_cols:p.n_post_cols ~selectivity ~textual:p.textual
