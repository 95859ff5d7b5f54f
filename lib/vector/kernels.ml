type cmp = Lt | Le | Gt | Ge | Eq | Ne
type arith = Add | Sub | Mul | Div | Mod
type agg = Max | Min | Sum | Count | Count_distinct | Avg

let cmp_to_string = function
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "="
  | Ne -> "<>"

let arith_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"

let agg_to_string = function
  | Max -> "MAX"
  | Min -> "MIN"
  | Sum -> "SUM"
  | Count -> "COUNT"
  | Count_distinct -> "COUNT DISTINCT"
  | Avg -> "AVG"

(* Iterate the candidate rows of a column: either all rows or a selection. *)
let iter_candidates col sel f =
  match sel with
  | Some s -> Sel.iter f s
  | None ->
    let n = Column.length col in
    for i = 0 to n - 1 do
      f i
    done

(* Collect qualifying indices into a Sel.t. Candidates arrive in ascending
   order, so the output is ascending by construction. *)
let collect col sel keep =
  let buf = ref (Array.make 64 0) in
  let n = ref 0 in
  let push i =
    if !n >= Array.length !buf then begin
      let a = Array.make (2 * Array.length !buf) 0 in
      Array.blit !buf 0 a 0 !n;
      buf := a
    end;
    !buf.(!n) <- i;
    incr n
  in
  iter_candidates col sel (fun i -> if keep i then push i);
  Sel.of_array_unchecked (Array.sub !buf 0 !n)

let int_cmp_fn = function
  | Lt -> fun (a : int) b -> a < b
  | Le -> fun a b -> a <= b
  | Gt -> fun a b -> a > b
  | Ge -> fun a b -> a >= b
  | Eq -> fun a b -> a = b
  | Ne -> fun a b -> a <> b

let float_cmp_fn = function
  | Lt -> fun (a : float) b -> a < b
  | Le -> fun a b -> a <= b
  | Gt -> fun a b -> a > b
  | Ge -> fun a b -> a >= b
  | Eq -> fun a b -> a = b
  | Ne -> fun a b -> a <> b

let string_cmp_fn op =
  let keep =
    match op with
    | Lt -> fun c -> c < 0
    | Le -> fun c -> c <= 0
    | Gt -> fun c -> c > 0
    | Ge -> fun c -> c >= 0
    | Eq -> fun c -> c = 0
    | Ne -> fun c -> c <> 0
  in
  fun a b -> keep (String.compare a b)

let bool_cmp_fn op =
  let keep =
    match op with
    | Lt -> fun c -> c < 0
    | Le -> fun c -> c <= 0
    | Gt -> fun c -> c > 0
    | Ge -> fun c -> c >= 0
    | Eq -> fun c -> c = 0
    | Ne -> fun c -> c <> 0
  in
  fun a b -> keep (Stdlib.compare (a : bool) b)

let valid_fn col =
  if Column.all_valid col then fun _ -> true else Column.is_valid col

let filter_const op col v sel =
  let valid = valid_fn col in
  match Column.data col, (v : Value.t) with
  | Column.Int_data a, Int x ->
    let f = int_cmp_fn op in
    collect col sel (fun i -> valid i && f a.(i) x)
  | Column.Int_data a, Float x ->
    let f = float_cmp_fn op in
    collect col sel (fun i -> valid i && f (float_of_int a.(i)) x)
  | Column.Float_data a, Float x ->
    let f = float_cmp_fn op in
    collect col sel (fun i -> valid i && f a.(i) x)
  | Column.Float_data a, Int x ->
    let f = float_cmp_fn op in
    let x = float_of_int x in
    collect col sel (fun i -> valid i && f a.(i) x)
  | Column.Bool_data a, Bool x ->
    let f = bool_cmp_fn op in
    collect col sel (fun i -> valid i && f a.(i) x)
  | Column.String_data a, String x ->
    let f = string_cmp_fn op in
    collect col sel (fun i -> valid i && f a.(i) x)
  | _, Null -> Sel.empty
  | _, _ ->
    invalid_arg
      (Printf.sprintf "Kernels.filter_const: %s column vs %s constant"
         (Dtype.to_string (Column.dtype col))
         (Value.to_string v))

let filter_col op ca cb sel =
  if Column.length ca <> Column.length cb then
    invalid_arg "Kernels.filter_col: length mismatch";
  let va = valid_fn ca and vb = valid_fn cb in
  let valid i = va i && vb i in
  match Column.data ca, Column.data cb with
  | Column.Int_data a, Column.Int_data b ->
    let f = int_cmp_fn op in
    collect ca sel (fun i -> valid i && f a.(i) b.(i))
  | Column.Float_data a, Column.Float_data b ->
    let f = float_cmp_fn op in
    collect ca sel (fun i -> valid i && f a.(i) b.(i))
  | Column.Int_data a, Column.Float_data b ->
    let f = float_cmp_fn op in
    collect ca sel (fun i -> valid i && f (float_of_int a.(i)) b.(i))
  | Column.Float_data a, Column.Int_data b ->
    let f = float_cmp_fn op in
    collect ca sel (fun i -> valid i && f a.(i) (float_of_int b.(i)))
  | Column.Bool_data a, Column.Bool_data b ->
    let f = bool_cmp_fn op in
    collect ca sel (fun i -> valid i && f a.(i) b.(i))
  | Column.String_data a, Column.String_data b ->
    let f = string_cmp_fn op in
    collect ca sel (fun i -> valid i && f a.(i) b.(i))
  | _, _ -> invalid_arg "Kernels.filter_col: incompatible column types"

(* ---------- arithmetic ---------- *)

let int_arith_fn = function
  | Add -> ( + )
  | Sub -> ( - )
  | Mul -> ( * )
  | Div -> ( / )
  | Mod -> ( mod )

let float_arith_fn = function
  | Add -> ( +. )
  | Sub -> ( -. )
  | Mul -> ( *. )
  | Div -> ( /. )
  | Mod -> Float.rem

let merge_valid ca cb =
  if Column.all_valid ca && Column.all_valid cb then None
  else begin
    let n = Column.length ca in
    let out = Bytes.create n in
    for i = 0 to n - 1 do
      Bytes.set out i
        (if Column.is_valid ca i && Column.is_valid cb i then '\001'
         else '\000')
    done;
    Some out
  end

let copy_valid c =
  if Column.all_valid c then None
  else begin
    let n = Column.length c in
    let out = Bytes.create n in
    for i = 0 to n - 1 do
      Bytes.set out i (if Column.is_valid c i then '\001' else '\000')
    done;
    Some out
  end

let arith_const op col v =
  let valid = copy_valid col in
  match Column.data col, (v : Value.t) with
  | Column.Int_data a, Int x ->
    let f = int_arith_fn op in
    Column.make ?valid (Column.Int_data (Array.map (fun y -> f y x) a))
  | Column.Int_data a, Float x ->
    let f = float_arith_fn op in
    Column.make ?valid
      (Column.Float_data (Array.map (fun y -> f (float_of_int y) x) a))
  | Column.Float_data a, Float x ->
    let f = float_arith_fn op in
    Column.make ?valid (Column.Float_data (Array.map (fun y -> f y x) a))
  | Column.Float_data a, Int x ->
    let f = float_arith_fn op in
    let x = float_of_int x in
    Column.make ?valid (Column.Float_data (Array.map (fun y -> f y x) a))
  | _, _ -> invalid_arg "Kernels.arith_const: non-numeric operands"

let arith_col op ca cb =
  if Column.length ca <> Column.length cb then
    invalid_arg "Kernels.arith_col: length mismatch";
  let valid = merge_valid ca cb in
  match Column.data ca, Column.data cb with
  | Column.Int_data a, Column.Int_data b ->
    let f = int_arith_fn op in
    Column.make ?valid (Column.Int_data (Array.map2 f a b))
  | Column.Float_data a, Column.Float_data b ->
    let f = float_arith_fn op in
    Column.make ?valid (Column.Float_data (Array.map2 f a b))
  | Column.Int_data a, Column.Float_data b ->
    let f = float_arith_fn op in
    Column.make ?valid
      (Column.Float_data
         (Array.init (Array.length a) (fun i -> f (float_of_int a.(i)) b.(i))))
  | Column.Float_data a, Column.Int_data b ->
    let f = float_arith_fn op in
    Column.make ?valid
      (Column.Float_data
         (Array.init (Array.length a) (fun i -> f a.(i) (float_of_int b.(i)))))
  | _, _ -> invalid_arg "Kernels.arith_col: non-numeric operands"

(* ---------- aggregation ---------- *)

let fold_valid col sel ~init ~f =
  let valid = valid_fn col in
  let acc = ref init in
  iter_candidates col sel (fun i -> if valid i then acc := f !acc i);
  !acc

let aggregate op col sel =
  match op, Column.data col with
  | Count, _ ->
    Value.Int (fold_valid col sel ~init:0 ~f:(fun acc _ -> acc + 1))
  | Count_distinct, _ ->
    let seen = Hashtbl.create 64 in
    ignore
      (fold_valid col sel ~init:() ~f:(fun () i ->
           Hashtbl.replace seen (Column.get col i) ()));
    Value.Int (Hashtbl.length seen)
  | Max, Column.Int_data a ->
    (match
       fold_valid col sel ~init:None ~f:(fun acc i ->
           match acc with
           | None -> Some a.(i)
           | Some m -> Some (if a.(i) > m then a.(i) else m))
     with
     | None -> Value.Null
     | Some m -> Value.Int m)
  | Min, Column.Int_data a ->
    (match
       fold_valid col sel ~init:None ~f:(fun acc i ->
           match acc with
           | None -> Some a.(i)
           | Some m -> Some (if a.(i) < m then a.(i) else m))
     with
     | None -> Value.Null
     | Some m -> Value.Int m)
  | Max, Column.Float_data a ->
    (match
       fold_valid col sel ~init:None ~f:(fun acc i ->
           match acc with
           | None -> Some a.(i)
           | Some m -> Some (if a.(i) > m then a.(i) else m))
     with
     | None -> Value.Null
     | Some m -> Value.Float m)
  | Min, Column.Float_data a ->
    (match
       fold_valid col sel ~init:None ~f:(fun acc i ->
           match acc with
           | None -> Some a.(i)
           | Some m -> Some (if a.(i) < m then a.(i) else m))
     with
     | None -> Value.Null
     | Some m -> Value.Float m)
  | (Max | Min), (Column.Bool_data _ | Column.String_data _) ->
    let better =
      match op with
      | Max -> fun a b -> Value.compare a b > 0
      | _ -> fun a b -> Value.compare a b < 0
    in
    (match
       fold_valid col sel ~init:None ~f:(fun acc i ->
           let v = Column.get col i in
           match acc with
           | None -> Some v
           | Some m -> Some (if better v m then v else m))
     with
     | None -> Value.Null
     | Some m -> m)
  | Sum, Column.Int_data a ->
    (match
       fold_valid col sel ~init:None ~f:(fun acc i ->
           Some (Option.value acc ~default:0 + a.(i)))
     with
     | None -> Value.Null
     | Some s -> Value.Int s)
  | Sum, Column.Float_data a ->
    (match
       fold_valid col sel ~init:None ~f:(fun acc i ->
           Some (Option.value acc ~default:0. +. a.(i)))
     with
     | None -> Value.Null
     | Some s -> Value.Float s)
  | Avg, (Column.Int_data _ | Column.Float_data _) ->
    let sum, n =
      match Column.data col with
      | Column.Int_data a ->
        fold_valid col sel ~init:(0., 0) ~f:(fun (s, n) i ->
            (s +. float_of_int a.(i), n + 1))
      | Column.Float_data a ->
        fold_valid col sel ~init:(0., 0) ~f:(fun (s, n) i ->
            (s +. a.(i), n + 1))
      | _ -> assert false
    in
    if n = 0 then Value.Null else Value.Float (sum /. float_of_int n)
  | (Sum | Avg), (Column.Bool_data _ | Column.String_data _) ->
    invalid_arg
      (Printf.sprintf "Kernels.aggregate: %s over non-numeric column"
         (agg_to_string op))
