type cmp = Lt | Le | Gt | Ge | Eq | Ne
type arith = Add | Sub | Mul | Div | Mod
type agg = Max | Min | Sum | Count | Count_distinct | Avg

exception Overflow of string
exception Zero_divisor of arith

let () =
  Printexc.register_printer (function
    | Overflow what -> Some ("integer overflow: " ^ what)
    | Zero_divisor Mod -> Some "integer modulo by zero"
    | Zero_divisor _ -> Some "integer division by zero"
    | _ -> None)

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

(* ---------- candidate rows ---------- *)

(* Every kernel visits the rows [idx.(0 .. m-1)]. Without a selection
   [idx] is a prefix of this shared identity array, which no kernel hands
   out or writes. *)
let identity = Atomic.make [||]

let all_rows n =
  let a = Atomic.get identity in
  if Array.length a >= n then a
  else begin
    let a = Sel.range 0 (max n 4096) in
    Atomic.set identity a;
    a
  end

(* The candidates that are valid in [v]: the input itself when every one
   is, else an exact-size copy (count, then fill). *)
let keep_valid v idx m =
  let count = ref 0 in
  for k = 0 to m - 1 do
    count := !count + Bool.to_int (Bytes.get v (Array.unsafe_get idx k) <> '\000')
  done;
  if !count = m then (idx, m)
  else begin
    let out = Array.make !count 0 in
    let j = ref 0 and k = ref 0 in
    while !j < !count do
      let i = Array.unsafe_get idx !k in
      Array.unsafe_set out !j i;
      j := !j + Bool.to_int (Bytes.unsafe_get v i <> '\000');
      incr k
    done;
    (out, !count)
  end

let indexed n = function Some c -> c | None -> (all_rows n, n)

(* The rows a kernel visits: the selection (or every row) minus the rows
   NULL in any of [cols], as [Some (idx, m)], or [None] for every row of
   the chunk. NULLs are dropped here, once per chunk, so the typed loops
   below never test validity. *)
let candidates cols n sel =
  List.fold_left
    (fun acc c ->
      match Column.validity c with
      | None -> acc
      | Some v ->
        let idx, m = indexed n acc in
        Some (keep_valid v idx m))
    (Option.map (fun s -> (Sel.to_array s, Sel.length s)) sel)
    cols

(* ---------- filters ---------- *)

(* Each filter is one typed loop per chunk. A comparison becomes a range
   test, [lo <= key <= hi] read as the unsigned compare [key - lo <= hi -
   lo] ([within] precomputes both sides), so a range with [lo > hi] wraps
   round and [<>] is the complement of [=]'s range. [negate] keeps the
   candidates where the comparison is FALSE: the complement of the range,
   which under IEEE holds the NaN rows too. Selections are sized
   exactly: Int filters count the qualifying rows, then fill; the others,
   whose test costs more than a byte store, mark the candidates in one
   pass and fill from the marks. Either fill stops at the last match. *)

let within ~lo ~hi = (min_int - lo, hi - lo + min_int)

(* the [count] candidates marked 1 in [keep] *)
let fill_marked keep idx count =
  let out = Array.make count 0 in
  let j = ref 0 and k = ref 0 in
  while !j < count do
    Array.unsafe_set out !j (Array.unsafe_get idx !k);
    j := !j + Char.code (Bytes.unsafe_get keep !k);
    incr k
  done;
  Sel.of_array_unchecked out

(* Int values in [lo, hi]. The commonest filter, so a chunk with neither
   selection nor NULLs gets loops that index the column directly. *)
let select_int (a : int array) cands ~lo ~hi =
  let off, bound = within ~lo ~hi in
  let count = ref 0 in
  (match cands with
   | None ->
     for i = 0 to Array.length a - 1 do
       count := !count + Bool.to_int (a.(i) + off <= bound)
     done
   | Some (idx, m) ->
     for k = 0 to m - 1 do
       count := !count + Bool.to_int (a.(Array.unsafe_get idx k) + off <= bound)
     done);
  let out = Array.make !count 0 in
  let j = ref 0 and k = ref 0 in
  (match cands with
   | None ->
     while !j < !count do
       Array.unsafe_set out !j !k;
       j := !j + Bool.to_int (Array.unsafe_get a !k + off <= bound);
       incr k
     done
   | Some (idx, _) ->
     while !j < !count do
       let i = Array.unsafe_get idx !k in
       Array.unsafe_set out !j i;
       j := !j + Bool.to_int (Array.unsafe_get a i + off <= bound);
       incr k
     done);
  Sel.of_array_unchecked out

(* Bool values, as 0 or 1, in [lo, hi] *)
let select_bool (a : bool array) idx m ~lo ~hi =
  let off, bound = within ~lo ~hi in
  let keep = Bytes.create m and count = ref 0 in
  for k = 0 to m - 1 do
    let b = Bool.to_int (Bool.to_int a.(Array.unsafe_get idx k) + off <= bound) in
    Bytes.unsafe_set keep k (Char.unsafe_chr b);
    count := !count + b
  done;
  fill_marked keep idx !count

(* Float values in [lo, hi] ([flip = 0]) or outside it ([flip = 1]); NaN is
   never inside *)
let select_float (a : float array) idx m ~lo ~hi ~flip =
  let keep = Bytes.create m and count = ref 0 in
  for k = 0 to m - 1 do
    let x = a.(Array.unsafe_get idx k) in
    let b = Bool.to_int (lo <= x) land Bool.to_int (x <= hi) lxor flip in
    Bytes.unsafe_set keep k (Char.unsafe_chr b);
    count := !count + b
  done;
  fill_marked keep idx !count

(* Int values, as floats, as [select_float] tests them *)
let select_int_as_float (a : int array) idx m ~lo ~hi ~flip =
  let keep = Bytes.create m and count = ref 0 in
  for k = 0 to m - 1 do
    let x = float_of_int a.(Array.unsafe_get idx k) in
    let b = Bool.to_int (lo <= x) land Bool.to_int (x <= hi) lxor flip in
    Bytes.unsafe_set keep k (Char.unsafe_chr b);
    count := !count + b
  done;
  fill_marked keep idx !count

(* [String.compare] promises only a sign *)
let sign r = Bool.to_int (r > 0) - Bool.to_int (r < 0)

(* the sign of [String.compare] of each value with [c] in [lo, hi] *)
let select_string (a : string array) c idx m ~lo ~hi =
  let off, bound = within ~lo ~hi in
  let keep = Bytes.create m and count = ref 0 in
  for k = 0 to m - 1 do
    let b = Bool.to_int (sign (String.compare a.(Array.unsafe_get idx k) c) + off <= bound) in
    Bytes.unsafe_set keep k (Char.unsafe_chr b);
    count := !count + b
  done;
  fill_marked keep idx !count

(* The range of a three-way comparison result that [op] keeps, or with
   [negate] the wrapped complement [hi + 1 .. lo - 1] of that range. *)
let order_range ~negate op =
  let lo, hi =
    match op with
    | Lt -> (-1, -1)
    | Le -> (-1, 0)
    | Gt -> (1, 1)
    | Ge -> (0, 1)
    | Eq -> (0, 0)
    | Ne -> (1, -1)
  in
  if negate then (hi + 1, lo - 1) else (lo, hi)

let negate_cmp = function
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt
  | Eq -> Ne
  | Ne -> Eq

(* The Int keys [v] with [v <op> c], as a range; [None] when empty. *)
let int_range op c =
  match op with
  | Lt -> if c = min_int then None else Some (min_int, c - 1)
  | Le -> Some (min_int, c)
  | Gt -> if c = max_int then None else Some (c + 1, max_int)
  | Ge -> Some (c, max_int)
  | Eq -> Some (c, c)
  | Ne -> Some (c + 1, c - 1)

(* The Float values [v] with [v <op> x], as [lo <= v <= hi] or its
   complement ([flip = 1]). For [x] not -inf, [v < x] is [v <= pred x];
   [(inf, -inf)] holds nothing. A NaN [x] yields a range nothing is in. *)
let float_range op x =
  match op with
  | Lt -> if x = neg_infinity then (infinity, neg_infinity, 0) else (neg_infinity, Float.pred x, 0)
  | Le -> (neg_infinity, x, 0)
  | Gt -> if x = infinity then (infinity, neg_infinity, 0) else (Float.succ x, infinity, 0)
  | Ge -> (x, infinity, 0)
  | Eq -> (x, x, 0)
  | Ne -> (x, x, 1)

let filter_const ?(negate = false) op col v sel =
  let n = Column.length col in
  let pick range select =
    match range with
    | None -> Sel.empty
    | Some r -> select (candidates [ col ] n sel) r
  in
  let pick_indexed range select =
    pick range (fun cands r ->
        let idx, m = indexed n cands in
        select idx m r)
  in
  let floats x =
    let lo, hi, flip = float_range op x in
    Some (lo, hi, flip lxor Bool.to_int negate)
  in
  match Column.data col, (v : Value.t) with
  | Column.Int_data a, Int x ->
    pick (int_range (if negate then negate_cmp op else op) x) (fun cands (lo, hi) ->
        select_int a cands ~lo ~hi)
  | Column.Int_data a, Float x ->
    pick_indexed (floats x) (fun idx m (lo, hi, flip) ->
        select_int_as_float a idx m ~lo ~hi ~flip)
  | Column.Float_data a, (Float _ | Int _) ->
    pick_indexed (floats (Value.to_float v)) (fun idx m (lo, hi, flip) ->
        select_float a idx m ~lo ~hi ~flip)
  | Column.Bool_data a, Bool x ->
    (* [v - x] is the three-way comparison of two bools *)
    let lo, hi = order_range ~negate op in
    let x = Bool.to_int x in
    pick_indexed (Some (lo + x, hi + x)) (fun idx m (lo, hi) -> select_bool a idx m ~lo ~hi)
  | Column.String_data a, String x ->
    pick_indexed (Some (order_range ~negate op)) (fun idx m (lo, hi) ->
        select_string a x idx m ~lo ~hi)
  | _, Null -> Sel.empty
  | _, _ ->
    invalid_arg
      (Printf.sprintf "Kernels.filter_const: %s column vs %s constant"
         (Dtype.to_string (Column.dtype col))
         (Value.to_string v))

(* Column/column comparisons mark the rows whose three-way comparison
   [c] — -1, 0 or 1, and 2 when a NaN leaves two floats unordered — lies in
   [order_range op]. *)

let code_float (x : float) y =
  let gt = Bool.to_int (x > y) and lt = Bool.to_int (x < y) in
  gt - lt + (2 * (1 - gt - lt - Bool.to_int (x = y)))

let mark_col_int (a : int array) (b : int array) keep idx m ~off ~bound =
  let count = ref 0 in
  for k = 0 to m - 1 do
    let i = Array.unsafe_get idx k in
    let x = a.(i) and y = b.(i) in
    let c = Bool.to_int (x > y) - Bool.to_int (x < y) in
    let t = Bool.to_int (c + off <= bound) in
    Bytes.unsafe_set keep k (Char.unsafe_chr t);
    count := !count + t
  done;
  !count

let mark_col_float (a : float array) (b : float array) keep idx m ~off ~bound =
  let count = ref 0 in
  for k = 0 to m - 1 do
    let i = Array.unsafe_get idx k in
    let t = Bool.to_int (code_float a.(i) b.(i) + off <= bound) in
    Bytes.unsafe_set keep k (Char.unsafe_chr t);
    count := !count + t
  done;
  !count

let mark_col_int_float (a : int array) (b : float array) keep idx m ~off ~bound =
  let count = ref 0 in
  for k = 0 to m - 1 do
    let i = Array.unsafe_get idx k in
    let t = Bool.to_int (code_float (float_of_int a.(i)) b.(i) + off <= bound) in
    Bytes.unsafe_set keep k (Char.unsafe_chr t);
    count := !count + t
  done;
  !count

let mark_col_bool (a : bool array) (b : bool array) keep idx m ~off ~bound =
  let count = ref 0 in
  for k = 0 to m - 1 do
    let i = Array.unsafe_get idx k in
    let t = Bool.to_int (Bool.to_int a.(i) - Bool.to_int b.(i) + off <= bound) in
    Bytes.unsafe_set keep k (Char.unsafe_chr t);
    count := !count + t
  done;
  !count

let mark_col_string (a : string array) (b : string array) keep idx m ~off ~bound =
  let count = ref 0 in
  for k = 0 to m - 1 do
    let i = Array.unsafe_get idx k in
    let t = Bool.to_int (sign (String.compare a.(i) b.(i)) + off <= bound) in
    Bytes.unsafe_set keep k (Char.unsafe_chr t);
    count := !count + t
  done;
  !count

let flip_cmp = function
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le
  | Eq -> Eq
  | Ne -> Ne

let filter_col ?(negate = false) op ca cb sel =
  let n = Column.length ca in
  if Column.length cb <> n then invalid_arg "Kernels.filter_col: length mismatch";
  let run op mark =
    let lo, hi = order_range ~negate op in
    let off, bound = within ~lo ~hi in
    let idx, m = indexed n (candidates [ ca; cb ] n sel) in
    let keep = Bytes.create m in
    fill_marked keep idx (mark keep idx m ~off ~bound)
  in
  match Column.data ca, Column.data cb with
  | Column.Int_data a, Column.Int_data b -> run op (mark_col_int a b)
  | Column.Float_data a, Column.Float_data b -> run op (mark_col_float a b)
  | Column.Int_data a, Column.Float_data b -> run op (mark_col_int_float a b)
  | Column.Float_data a, Column.Int_data b -> run (flip_cmp op) (mark_col_int_float b a)
  | Column.Bool_data a, Column.Bool_data b -> run op (mark_col_bool a b)
  | Column.String_data a, Column.String_data b -> run op (mark_col_string a b)
  | _, _ -> invalid_arg "Kernels.filter_col: incompatible column types"

(* ---------- arithmetic ---------- *)

(* One typed loop per operand shape, over the rows valid in both
   operands: a NULL row stays NULL, with 0 beneath it, and nothing is
   computed under it, so the junk 0 under a NULL divisor never divides.
   The operator is matched per row, a branch that goes the same way for
   the whole loop, not a closure call. *)

let[@inline] int_arith op x y =
  match op with
  | Add -> x + y
  | Sub -> x - y
  | Mul -> x * y
  | Div -> if y = 0 then raise (Zero_divisor op) else x / y
  | Mod -> if y = 0 then raise (Zero_divisor op) else x mod y

let[@inline] float_arith op x y =
  match op with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | Mod -> Float.rem x y

let arith_ints op (a : int array) (b : int array) idx m =
  let out = Array.make (Array.length a) 0 in
  for k = 0 to m - 1 do
    let i = Array.unsafe_get idx k in
    Array.unsafe_set out i
      (int_arith op (Array.unsafe_get a i) (Array.unsafe_get b i))
  done;
  Column.Int_data out

let arith_int_const op (a : int array) x idx m =
  let out = Array.make (Array.length a) 0 in
  for k = 0 to m - 1 do
    let i = Array.unsafe_get idx k in
    Array.unsafe_set out i (int_arith op (Array.unsafe_get a i) x)
  done;
  Column.Int_data out

let arith_floats op (a : float array) (b : float array) idx m =
  let out = Array.make (Array.length a) 0. in
  for k = 0 to m - 1 do
    let i = Array.unsafe_get idx k in
    Array.unsafe_set out i
      (float_arith op (Array.unsafe_get a i) (Array.unsafe_get b i))
  done;
  Column.Float_data out

let arith_float_const op (a : float array) x idx m =
  let out = Array.make (Array.length a) 0. in
  for k = 0 to m - 1 do
    let i = Array.unsafe_get idx k in
    Array.unsafe_set out i (float_arith op (Array.unsafe_get a i) x)
  done;
  Column.Float_data out

let floats_of_ints (a : int array) =
  let out = Array.make (Array.length a) 0. in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set out i (float_of_int (Array.unsafe_get a i))
  done;
  out

(* [cols]' candidate rows and the result's validity: set exactly on them *)
let arith_rows cols n =
  let cands = candidates cols n None in
  let idx, m = indexed n cands in
  let valid =
    Option.map
      (fun _ ->
        let v = Bytes.make n '\000' in
        for k = 0 to m - 1 do
          Bytes.unsafe_set v (Array.unsafe_get idx k) '\001'
        done;
        v)
      cands
  in
  (idx, m, valid)

let arith_const op col v =
  let idx, m, valid = arith_rows [ col ] (Column.length col) in
  Column.make ?valid
    (match Column.data col, (v : Value.t) with
     | Column.Int_data a, Int x -> arith_int_const op a x idx m
     | Column.Int_data a, Float x -> arith_float_const op (floats_of_ints a) x idx m
     | Column.Float_data a, Float x -> arith_float_const op a x idx m
     | Column.Float_data a, Int x -> arith_float_const op a (float_of_int x) idx m
     | _, _ -> invalid_arg "Kernels.arith_const: non-numeric operands")

let arith_col op ca cb =
  if Column.length ca <> Column.length cb then
    invalid_arg "Kernels.arith_col: length mismatch";
  let idx, m, valid = arith_rows [ ca; cb ] (Column.length ca) in
  Column.make ?valid
    (match Column.data ca, Column.data cb with
     | Column.Int_data a, Column.Int_data b -> arith_ints op a b idx m
     | Column.Float_data a, Column.Float_data b -> arith_floats op a b idx m
     | Column.Int_data a, Column.Float_data b ->
       arith_floats op (floats_of_ints a) b idx m
     | Column.Float_data a, Column.Int_data b ->
       arith_floats op a (floats_of_ints b) idx m
     | _, _ -> invalid_arg "Kernels.arith_col: non-numeric operands")

(* ---------- aggregation ---------- *)

(* An aggregate's running state, one typed slot per group id: [ints]
   holds SUM over Int and MAX/MIN over Int; [floats] SUM over Float, the
   AVG sum and MAX/MIN over Float; [values] MAX/MIN over Bool and String;
   [sets] COUNT DISTINCT's values, equal as under [compare]. An Int SUM
   adds with wrapping and counts in [carry] the times it wrapped, +1 past
   [max_int] and -1 past [min_int]: the wrapped sum is exact when the net
   count is 0, and the exact sum is out of range when it is not. *)
type acc = {
  op : agg;
  mutable dtype : Dtype.t; (* of the values seen *)
  mutable count : int array; (* non-NULL values per group *)
  mutable ints : int array;
  mutable carry : int array;
  mutable floats : float array;
  mutable values : Value.t array;
  mutable sets : (Value.t, unit) Hashtbl.t option array;
}

let acc_create op groups =
  let n = max groups 1 in
  {
    op;
    dtype = Dtype.Int;
    count = Array.make n 0;
    ints = Array.make n 0;
    carry = Array.make n 0;
    floats = Array.make n 0.;
    values = Array.make n Value.Null;
    sets = Array.make n None;
  }

let acc_reserve a groups =
  let n = Array.length a.count in
  if groups > n then begin
    let cap = max groups (2 * n) in
    let extend arr fill =
      let b = Array.make cap fill in
      Array.blit arr 0 b 0 n;
      b
    in
    a.count <- extend a.count 0;
    a.ints <- extend a.ints 0;
    a.carry <- extend a.carry 0;
    a.floats <- extend a.floats 0.;
    a.values <- extend a.values Value.Null;
    a.sets <- extend a.sets None
  end

let non_numeric op =
  invalid_arg
    (Printf.sprintf "Kernels.aggregate: %s over non-numeric column" (agg_to_string op))

let add_distinct sets g v =
  match sets.(g) with
  | Some h -> Hashtbl.replace h v ()
  | None ->
    let h = Hashtbl.create 16 in
    Hashtbl.replace h v ();
    sets.(g) <- Some h

(* [s + v] wrapped iff both addends share a sign the sum [s'] lacks; it
   wrapped past [max_int] when [v] is positive *)
let wrapped s v s' = (s' lxor s) land (s' lxor v) < 0
let carry_of v = if v < 0 then -1 else 1

(* Scalar loops over the candidates, each starting from the running state,
   so a Float sum adds in row order and a NaN extreme stays put. *)

let sum_int a (x : int array) idx m =
  let s = ref a.ints.(0) and carry = ref a.carry.(0) in
  for k = 0 to m - 1 do
    let v = x.(Array.unsafe_get idx k) in
    let s' = !s + v in
    if wrapped !s v s' then carry := !carry + carry_of v;
    s := s'
  done;
  a.ints.(0) <- !s;
  a.carry.(0) <- !carry

let sum_float init (x : float array) idx m =
  let s = ref init in
  for k = 0 to m - 1 do
    s := !s +. x.(Array.unsafe_get idx k)
  done;
  !s

let sum_int_as_float init (x : int array) idx m =
  let s = ref init in
  for k = 0 to m - 1 do
    s := !s +. float_of_int x.(Array.unsafe_get idx k)
  done;
  !s

let max_int_from init (x : int array) idx m =
  let b = ref init in
  for k = 0 to m - 1 do
    let v = x.(Array.unsafe_get idx k) in
    if v > !b then b := v
  done;
  !b

let min_int_from init (x : int array) idx m =
  let b = ref init in
  for k = 0 to m - 1 do
    let v = x.(Array.unsafe_get idx k) in
    if v < !b then b := v
  done;
  !b

let max_float_from init (x : float array) idx m =
  let b = ref init in
  for k = 0 to m - 1 do
    let v = x.(Array.unsafe_get idx k) in
    if v > !b then b := v
  done;
  !b

let min_float_from init (x : float array) idx m =
  let b = ref init in
  for k = 0 to m - 1 do
    let v = x.(Array.unsafe_get idx k) in
    if v < !b then b := v
  done;
  !b

let better op v best =
  let c = Value.compare v best in
  match op with Max -> c > 0 | _ -> c < 0

let acc_update a col sel =
  let n = Column.length col in
  let idx, m = indexed n (candidates [ col ] n sel) in
  if m > 0 then begin
    (* the first value seen starts MAX and MIN *)
    let fresh = a.count.(0) = 0 in
    let first = idx.(0) in
    (match a.op, Column.data col with
     | Count, _ -> ()
     | Count_distinct, _ ->
       for k = 0 to m - 1 do add_distinct a.sets 0 (Column.get col idx.(k)) done
     | Sum, Column.Int_data x -> sum_int a x idx m
     | (Sum | Avg), Column.Float_data x -> a.floats.(0) <- sum_float a.floats.(0) x idx m
     | Avg, Column.Int_data x -> a.floats.(0) <- sum_int_as_float a.floats.(0) x idx m
     | Max, Column.Int_data x ->
       a.ints.(0) <- max_int_from (if fresh then x.(first) else a.ints.(0)) x idx m
     | Min, Column.Int_data x ->
       a.ints.(0) <- min_int_from (if fresh then x.(first) else a.ints.(0)) x idx m
     | Max, Column.Float_data x ->
       a.floats.(0) <- max_float_from (if fresh then x.(first) else a.floats.(0)) x idx m
     | Min, Column.Float_data x ->
       a.floats.(0) <- min_float_from (if fresh then x.(first) else a.floats.(0)) x idx m
     | (Max | Min), (Column.Bool_data _ | Column.String_data _) ->
       for k = 0 to m - 1 do
         let v = Column.get col idx.(k) in
         if (fresh && k = 0) || better a.op v a.values.(0) then a.values.(0) <- v
       done
     | (Sum | Avg), (Column.Bool_data _ | Column.String_data _) -> non_numeric a.op);
    a.count.(0) <- a.count.(0) + m;
    a.dtype <- Column.dtype col
  end

let acc_count_rows a n = a.count.(0) <- a.count.(0) + n

(* Grouped loops: [gids.(i)] is row [i]'s group, group 0 the rows whose
   value is NULL, which is never read back. Each loop counts as it goes. *)

let acc_count_groups a gids n =
  let count = a.count in
  for i = 0 to n - 1 do
    let g = gids.(i) in
    count.(g) <- count.(g) + 1
  done

let acc_update_groups a col gids n =
  let gids =
    match Column.validity col with
    | None -> gids
    | Some v ->
      let g = Array.sub gids 0 n in
      for i = 0 to n - 1 do
        if Bytes.get v i = '\000' then g.(i) <- 0
      done;
      g
  in
  let count = a.count in
  (match a.op, Column.data col with
   | Count, _ -> acc_count_groups a gids n
   | Count_distinct, _ ->
     for i = 0 to n - 1 do add_distinct a.sets gids.(i) (Column.get col i) done
   | Sum, Column.Int_data x ->
     let sums = a.ints and carry = a.carry in
     for i = 0 to n - 1 do
       let g = gids.(i) and v = x.(i) in
       let s = sums.(g) in
       let s' = s + v in
       sums.(g) <- s';
       count.(g) <- count.(g) + 1;
       if wrapped s v s' then carry.(g) <- carry.(g) + carry_of v
     done
   | (Sum | Avg), Column.Float_data x ->
     let sums = a.floats in
     for i = 0 to n - 1 do
       let g = gids.(i) in
       sums.(g) <- sums.(g) +. x.(i);
       count.(g) <- count.(g) + 1
     done
   | Avg, Column.Int_data x ->
     let sums = a.floats in
     for i = 0 to n - 1 do
       let g = gids.(i) in
       sums.(g) <- sums.(g) +. float_of_int x.(i);
       count.(g) <- count.(g) + 1
     done
   | Max, Column.Int_data x ->
     let best = a.ints in
     for i = 0 to n - 1 do
       let g = gids.(i) and v = x.(i) in
       if count.(g) = 0 || v > best.(g) then best.(g) <- v;
       count.(g) <- count.(g) + 1
     done
   | Min, Column.Int_data x ->
     let best = a.ints in
     for i = 0 to n - 1 do
       let g = gids.(i) and v = x.(i) in
       if count.(g) = 0 || v < best.(g) then best.(g) <- v;
       count.(g) <- count.(g) + 1
     done
   | Max, Column.Float_data x ->
     let best = a.floats in
     for i = 0 to n - 1 do
       let g = gids.(i) and v = x.(i) in
       if count.(g) = 0 || v > best.(g) then best.(g) <- v;
       count.(g) <- count.(g) + 1
     done
   | Min, Column.Float_data x ->
     let best = a.floats in
     for i = 0 to n - 1 do
       let g = gids.(i) and v = x.(i) in
       if count.(g) = 0 || v < best.(g) then best.(g) <- v;
       count.(g) <- count.(g) + 1
     done
   | (Max | Min), (Column.Bool_data _ | Column.String_data _) ->
     for i = 0 to n - 1 do
       let g = gids.(i) and v = Column.get col i in
       if count.(g) = 0 || better a.op v a.values.(g) then a.values.(g) <- v;
       count.(g) <- count.(g) + 1
     done
   | (Sum | Avg), (Column.Bool_data _ | Column.String_data _) ->
     for i = 0 to n - 1 do
       if gids.(i) > 0 then non_numeric a.op
     done);
  a.dtype <- Column.dtype col

let acc_result a g : Value.t =
  match a.op with
  | Count -> Int a.count.(g)
  | Count_distinct -> Int (match a.sets.(g) with Some h -> Hashtbl.length h | None -> 0)
  | _ when a.count.(g) = 0 -> Null
  | Avg -> Float (a.floats.(g) /. float_of_int a.count.(g))
  | Sum when a.dtype = Dtype.Int && a.carry.(g) <> 0 ->
    raise (Overflow "SUM over INT leaves the integer range")
  | Sum | Max | Min ->
    (match a.dtype with
     | Dtype.Int -> Int a.ints.(g)
     | Dtype.Float -> Float a.floats.(g)
     | Dtype.Bool | Dtype.String -> a.values.(g))

let aggregate op col sel =
  let a = acc_create op 1 in
  acc_update a col sel;
  acc_result a 0
