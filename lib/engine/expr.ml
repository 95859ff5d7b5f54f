open Raw_vector

type t =
  | Col of int
  | Const of Value.t
  | Cmp of Kernels.cmp * t * t
  | Arith of Kernels.arith * t * t
  | And of t * t
  | Or of t * t
  | Not of t

let col i = Col i
let int i = Const (Value.Int i)
let float f = Const (Value.Float f)
let string s = Const (Value.String s)
let bool b = Const (Value.Bool b)

let ( < ) a b = Cmp (Kernels.Lt, a, b)
let ( <= ) a b = Cmp (Kernels.Le, a, b)
let ( > ) a b = Cmp (Kernels.Gt, a, b)
let ( >= ) a b = Cmp (Kernels.Ge, a, b)
let ( = ) a b = Cmp (Kernels.Eq, a, b)
let ( <> ) a b = Cmp (Kernels.Ne, a, b)
let ( && ) a b = And (a, b)
let ( || ) a b = Or (a, b)
let not_ a = Not a
let ( + ) a b = Arith (Kernels.Add, a, b)
let ( - ) a b = Arith (Kernels.Sub, a, b)
let ( * ) a b = Arith (Kernels.Mul, a, b)
let ( / ) a b = Arith (Kernels.Div, a, b)

let columns_used e =
  let rec go acc = function
    | Col i -> i :: acc
    | Const _ -> acc
    | Cmp (_, a, b) | Arith (_, a, b) | And (a, b) | Or (a, b) ->
      go (go acc a) b
    | Not a -> go acc a
  in
  List.sort_uniq Stdlib.compare (go [] e)

let rec remap f = function
  | Col i -> Col (f i)
  | Const v -> Const v
  | Cmp (op, a, b) -> Cmp (op, remap f a, remap f b)
  | Arith (op, a, b) -> Arith (op, remap f a, remap f b)
  | And (a, b) -> And (remap f a, remap f b)
  | Or (a, b) -> Or (remap f a, remap f b)
  | Not a -> Not (remap f a)

let bool_column out valid =
  if Bytes.contains valid '\000' then Column.make ~valid (Column.Bool_data out)
  else Column.of_bool_array out

(* Kleene AND ([dominant = false]) / OR ([dominant = true]): a valid
   dominant operand decides the row; otherwise any NULL makes it NULL. *)
let kleene ~dominant ca cb =
  let n = Column.length ca in
  let ba = Column.bool_array ca and bb = Column.bool_array cb in
  let out = Array.make n (Stdlib.not dominant) and valid = Bytes.make n '\001' in
  for i = 0 to Stdlib.( - ) n 1 do
    let va = Column.is_valid ca i and vb = Column.is_valid cb i in
    if Stdlib.( || )
        (Stdlib.( && ) va (Bool.equal ba.(i) dominant))
        (Stdlib.( && ) vb (Bool.equal bb.(i) dominant))
    then out.(i) <- dominant
    else if Stdlib.not (Stdlib.( && ) va vb) then Bytes.set valid i '\000'
  done;
  bool_column out valid

(* The rows where [a <op> b] (evaluated to [ca] and [cb]) is TRUE, or with
   [negate] FALSE. A NULL constant has no type to compare by; it selects
   nothing. *)
let cmp_cols ~negate op a b ca cb sel =
  match a, b with
  | Const Value.Null, _ | _, Const Value.Null -> Sel.empty
  | _ -> Kernels.filter_col ~negate op ca cb sel

let rec eval e chunk =
  let n = Chunk.n_rows chunk in
  match e with
  | Col i -> Chunk.column chunk i
  | Const v ->
    let dt = Option.value (Value.dtype v) ~default:Dtype.Int in
    Column.const dt v n
  | Arith (op, a, b) ->
    (match a, b with
     | _, Const v -> Kernels.arith_const op (eval a chunk) v
     | Const _, _ ->
       Kernels.arith_col op (eval a chunk) (eval b chunk)
     | _, _ -> Kernels.arith_col op (eval a chunk) (eval b chunk))
  | Cmp (op, a, b) ->
    (* SQL three-valued logic: a comparison with NULL is NULL; the rest
       is TRUE on the rows WHERE's kernel selects, so floats compare as
       IEEE does in both places *)
    let ca = eval a chunk and cb = eval b chunk in
    let out = Array.make n false and valid = Bytes.make n '\001' in
    for i = 0 to Stdlib.( - ) n 1 do
      if Stdlib.not (Stdlib.( && ) (Column.is_valid ca i) (Column.is_valid cb i)) then
        Bytes.set valid i '\000'
    done;
    Sel.iter (fun i -> out.(i) <- true) (cmp_cols ~negate:false op a b ca cb None);
    bool_column out valid
  | And (a, b) -> kleene ~dominant:false (eval a chunk) (eval b chunk)
  | Or (a, b) -> kleene ~dominant:true (eval a chunk) (eval b chunk)
  | Not a ->
    let c = eval a chunk in
    bool_column
      (Array.map Stdlib.not (Column.bool_array c))
      (Bytes.init n (fun i -> if Column.is_valid c i then '\001' else '\000'))

let merge_sels a b =
  (* union of two ascending index arrays *)
  let aa = Sel.to_array a and bb = Sel.to_array b in
  let na = Array.length aa and nb = Array.length bb in
  let out = Array.make (Stdlib.( + ) na nb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while Stdlib.( && ) Stdlib.(!i < na) Stdlib.(!j < nb) do
    let x = aa.(!i) and y = bb.(!j) in
    if Stdlib.(x < y) then begin out.(!k) <- x; incr i end
    else if Stdlib.(x > y) then begin out.(!k) <- y; incr j end
    else begin out.(!k) <- x; incr i; incr j end;
    incr k
  done;
  while Stdlib.(!i < na) do out.(!k) <- aa.(!i); incr i; incr k done;
  while Stdlib.(!j < nb) do out.(!k) <- bb.(!j); incr j; incr k done;
  Sel.of_array_unchecked (Array.sub out 0 !k)

(* The rows where [a <op> b] is TRUE, or with [negate] FALSE: NOT keeps
   only the rows whose operand is FALSE, never NULL ones. *)
let filter_cmp ~negate op a b chunk sel =
  match a, b with
  | Col i, Const v -> Kernels.filter_const ~negate op (Chunk.column chunk i) v sel
  | Const v, Col i -> Kernels.filter_const ~negate (Kernels.flip_cmp op) (Chunk.column chunk i) v sel
  | Col i, Col j ->
    Kernels.filter_col ~negate op (Chunk.column chunk i) (Chunk.column chunk j) sel
  | _ -> cmp_cols ~negate op a b (eval a chunk) (eval b chunk) sel

let rec eval_filter e chunk sel =
  match e with
  | Cmp (op, a, b) -> filter_cmp ~negate:false op a b chunk sel
  | And (a, b) ->
    let sa = eval_filter a chunk sel in
    eval_filter b chunk (Some sa)
  | Or (a, b) ->
    merge_sels (eval_filter a chunk sel) (eval_filter b chunk sel)
  (* push NOT down to the comparisons (De Morgan holds in Kleene logic) *)
  | Not (Cmp (op, a, b)) -> filter_cmp ~negate:true op a b chunk sel
  | Not (And (a, b)) -> eval_filter (Or (Not a, Not b)) chunk sel
  | Not (Or (a, b)) -> eval_filter (And (Not a, Not b)) chunk sel
  | Not (Not a) -> eval_filter a chunk sel
  | Const (Value.Bool true) ->
    (match sel with Some s -> s | None -> Sel.all (Chunk.n_rows chunk))
  | Const (Value.Bool false) -> Sel.empty
  | e ->
    (* generic fallback: the rows whose boolean value is TRUE *)
    Kernels.filter_const Kernels.Eq (eval e chunk) (Value.Bool true) sel

let rec infer coltype = function
  | Col i -> coltype i
  | Const v ->
    (match Value.dtype v with
     | Some dt -> dt
     | None -> invalid_arg "Expr.infer: NULL constant has no type")
  | Cmp _ | And _ | Or _ | Not _ -> Dtype.Bool
  | Arith (op, a, b) ->
    (match infer coltype a, infer coltype b with
     | Dtype.Int, Dtype.Int -> Dtype.Int
     | (Dtype.Int | Dtype.Float), (Dtype.Int | Dtype.Float) -> Dtype.Float
     | _ ->
       invalid_arg
         (Printf.sprintf "Expr.infer: arithmetic %s on non-numeric operands"
            (Kernels.arith_to_string op)))

let rec pp ppf = function
  | Col i -> Format.fprintf ppf "$%d" i
  | Const v -> Value.pp ppf v
  | Cmp (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp a (Kernels.cmp_to_string op) pp b
  | Arith (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp a (Kernels.arith_to_string op) pp b
  | And (a, b) -> Format.fprintf ppf "(%a AND %a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a OR %a)" pp a pp b
  | Not a -> Format.fprintf ppf "(NOT %a)" pp a
