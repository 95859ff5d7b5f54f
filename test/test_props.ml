(* Property-based tests (qcheck) on core data structures and invariants. *)

open Raw_vector
open Test_util

module Gen = QCheck2.Gen

(* ---------------- parsers ---------------- *)

let prop_parse_int =
  qtest "csv.parse_int inverts string_of_int" Gen.int (fun i ->
      let s = string_of_int i in
      Raw_formats.Csv.parse_int (Bytes.of_string s) 0 (String.length s) = i)

let prop_parse_float =
  qtest "csv.parse_float matches float_of_string on %.6f"
    (Gen.float_bound_inclusive 1e12)
    (fun x ->
      let s = Printf.sprintf "%.6f" x in
      let got = Raw_formats.Csv.parse_float (Bytes.of_string s) 0 (String.length s) in
      Float.abs (got -. float_of_string s) <= 1e-9 *. Float.max 1.0 (Float.abs x))

(* Digit strings of every length up to 21, signed or not: in range they
   parse exactly as [int_of_string], out of range they are a [bad int],
   never a wrapped value. *)
let prop_parse_int_range =
  qtest "csv.parse_int agrees with int_of_string, overflow included" ~count:2000
    (Gen.pair (Gen.oneofl [ ""; "-"; "+" ])
       (Gen.string_size ~gen:Gen.numeral (Gen.int_range 1 21)))
    (fun (sign, digits) ->
      let s = sign ^ digits in
      let got =
        match Raw_formats.Csv.parse_int (Bytes.of_string s) 0 (String.length s) with
        | v -> Some v
        | exception Raw_storage.Scan_errors.Error _ -> None
      in
      got = int_of_string_opt s)

(* Decimals with up to 20 significant digits, either side of the point:
   the result is bit for bit [float_of_string]'s, whichever path it
   takes. *)
let prop_parse_float_exact =
  qtest "csv.parse_float is bit-identical to float_of_string" ~count:2000
    (let open Gen in
     let digits lo hi = string_size ~gen:numeral (int_range lo hi) in
     let* sign = oneofl [ ""; "-"; "+" ] in
     let* int_part = digits 0 16 in
     let+ frac = opt (digits 0 12) in
     let int_part = if int_part = "" && frac = None then "0" else int_part in
     sign ^ int_part ^ Option.fold ~none:"" ~some:(fun f -> "." ^ f) frac)
    (fun s ->
      let got =
        match Raw_formats.Csv.parse_float (Bytes.of_string s) 0 (String.length s) with
        | v -> Some (Int64.bits_of_float v)
        | exception Raw_storage.Scan_errors.Error _ -> None
      in
      got = Option.map Int64.bits_of_float (float_of_string_opt s))

(* ---------------- selection vectors ---------------- *)

let mask_gen = Gen.array_size (Gen.int_range 0 200) Gen.bool

let prop_sel_partition =
  qtest "sel + complement partition the index space" mask_gen (fun mask ->
      let n = Array.length mask in
      let s = Sel.of_bool_mask mask in
      let c = Sel.complement s n in
      Sel.length s + Sel.length c = n
      && Array.for_all (fun i -> mask.(i)) (Sel.to_array s)
      && Array.for_all (fun i -> not mask.(i)) (Sel.to_array c))

let prop_sel_compose =
  qtest "sel compose = indexed lookup" mask_gen (fun mask ->
      let inner = Sel.of_bool_mask mask in
      let k = Sel.length inner in
      if k = 0 then true
      else begin
        let outer = Sel.of_array (Array.init ((k + 1) / 2) (fun i -> i * 2)) in
        let composed = Sel.compose outer inner in
        Array.for_all
          (fun j -> Sel.get composed j = Sel.get inner (Sel.get outer j))
          (Array.init (Sel.length composed) Fun.id)
      end)

(* ---------------- LRU ---------------- *)

let lru_ops_gen =
  Gen.list_size (Gen.int_range 0 300)
    (Gen.pair (Gen.int_range 0 20) (Gen.int_range 0 2))

let prop_lru_bounded =
  qtest "lru never exceeds capacity and serves last write" lru_ops_gen (fun ops ->
      let l = Raw_storage.Lru.create ~capacity:8 () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (k, op) ->
          (match op with
           | 0 ->
             ignore (Raw_storage.Lru.add l k k);
             Hashtbl.replace model k k
           | 1 -> ignore (Raw_storage.Lru.find l k)
           | _ ->
             Raw_storage.Lru.remove l k;
             Hashtbl.remove model k);
          Raw_storage.Lru.length l <= 8
          &&
          (* anything in the LRU must carry the modelled value *)
          match Raw_storage.Lru.peek l k with
          | None -> true
          | Some v -> Hashtbl.find_opt model k = Some v)
        ops)

(* ---------------- simulated page cache vs a page-by-page model ---------------- *)

(* Touches anywhere in (and around) a 10-page file, with a cache drop in
   between: every touched page is a hit when it is the page last touched
   or already resident, else a fault. *)
let prop_touch_counts =
  qtest "touch faults and hits match a page-by-page model" ~count:300
    Gen.(
      list_size (int_range 0 60)
        (frequency
           [ (8, map2 (fun p l -> `Touch (p, l)) (int_range (-20) 700) (int_range 0 150));
             (1, return `Drop) ]))
    (fun ops ->
      let open Raw_storage in
      let ps = 64 and len = 610 in
      let config = { Mmap_file.Config.default with page_size = ps } in
      let f = Mmap_file.of_bytes ~config ~name:"m" (Bytes.make len 'x') in
      let resident = Array.make ((len + ps - 1) / ps) false in
      let last = ref (-1) and faults = ref 0 and hits = ref 0 in
      List.for_all
        (fun op ->
          (match op with
           | `Drop ->
             Mmap_file.drop_cache f;
             Array.fill resident 0 (Array.length resident) false;
             last := -1;
             faults := 0;
             hits := 0
           | `Touch (pos, n) ->
             Mmap_file.touch f pos n;
             if n > 0 then begin
               let clamp x = min (max x 0) (len - 1) in
               for p = clamp pos / ps to clamp (pos + n - 1) / ps do
                 if p = !last || resident.(p) then incr hits
                 else begin
                   resident.(p) <- true;
                   incr faults
                 end;
                 last := p
               done
             end);
          Mmap_file.faults f = !faults && Mmap_file.hits f = !hits)
        ops)

(* ---------------- column gather/scatter ---------------- *)

let prop_gather_scatter =
  qtest "scatter then gather is identity"
    (Gen.array_size (Gen.int_range 1 100) Gen.int)
    (fun values ->
      let n = Array.length values in
      let packed = Column.of_int_array values in
      let idx = Array.init n (fun i -> i) in
      (* scatter into a sparse destination twice as large, at even slots *)
      let dst =
        Column.invalidate_all (Column.of_int_array (Array.make (2 * n) 0))
      in
      let even = Array.map (fun i -> 2 * i) idx in
      Column.scatter dst even packed;
      Column.equal (Column.gather dst even) packed)

(* ---------------- kernels vs per-row reference ---------------- *)

let cmp_gen =
  Gen.oneofl
    [ Kernels.Lt; Kernels.Le; Kernels.Gt; Kernels.Ge; Kernels.Eq; Kernels.Ne ]

let cmp_fn (op : Kernels.cmp) a b =
  match op with
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b
  | Eq -> a = b
  | Ne -> a <> b

(* IEEE: every comparison with NaN is false but [<>] *)
let float_cmp (op : Kernels.cmp) (a : float) (b : float) =
  match op with
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b
  | Eq -> a = b
  | Ne -> a <> b

(* What a WHERE comparison keeps, one row at a time: NULL never; Int
   against Float as floats. *)
let ref_cmp op (x : Value.t) (c : Value.t) =
  match x, c with
  | Null, _ | _, Null -> false
  | Int a, Int b -> cmp_fn op a b
  | Int a, Float b -> float_cmp op (float_of_int a) b
  | Float a, Int b -> float_cmp op a (float_of_int b)
  | Float a, Float b -> float_cmp op a b
  | String a, String b -> cmp_fn op (String.compare a b) 0
  | Bool a, Bool b -> cmp_fn op (Stdlib.compare a b) 0
  | _ -> invalid_arg "ref_cmp"

(* the extremes: min_int/max_int, 2^53 + 1 (no float holds it), 2^62 (the
   float of max_int), NaN, infinities, signed zeros *)
let int_gen =
  Gen.frequency
    [ (6, Gen.int_range (-3) 3);
      (2, Gen.oneofl [ min_int; max_int; min_int + 1; max_int - 1 ]);
      (2, Gen.oneofl [ 9007199254740992; 9007199254740993; -9007199254740993 ]);
      (1, Gen.int) ]

(* 2^53 next to small values makes a sum depend on its order *)
let float_gen =
  Gen.frequency
    [ (6, Gen.oneofl [ -1.5; -1.; 0.; 0.5; 1.; 2.; 3. ]);
      (3, Gen.oneofl [ -0.; nan; infinity; neg_infinity; Float.pred 1. ]);
      (3, Gen.oneofl [ 9007199254740992.; 4.611686018427388e18; -4.611686018427388e18 ]);
      (1, Gen.float) ]

let string_gen = Gen.oneofl [ ""; "a"; "ab"; "b"; "B"; "\xc3\xa9" ]

let value_gen (dt : Dtype.t) =
  match dt with
  | Int -> Gen.map (fun x -> Value.Int x) int_gen
  | Float -> Gen.map (fun x -> Value.Float x) float_gen
  | String -> Gen.map (fun x -> Value.String x) string_gen
  | Bool -> Gen.map (fun x -> Value.Bool x) Gen.bool

(* [n] cells of [dt], some NULL. NULL slots hold a junk value, often one
   that would overflow a sum or poison an extreme, and a column without
   NULLs sometimes still carries an all-ones bitmap: kernels must read the
   bitmap, not the data. *)
let column_gen dt n =
  let poison : Value.t =
    match (dt : Dtype.t) with
    | Int -> Int max_int
    | Float -> Float nan
    | String -> String "\xff"
    | Bool -> Bool true
  in
  Gen.(
    let* cells = list_repeat n (option ~ratio:0.8 (value_gen dt)) in
    let* junk = oneof [ value_gen dt; return poison ] in
    let* ones = bool in
    let values = List.map (Option.value ~default:Value.Null) cells in
    let data = Column.of_values dt (List.map (Option.value ~default:junk) cells) in
    let valid = Bytes.of_string (String.concat "" (List.map (fun c -> if c = None then "\000" else "\001") cells)) in
    let col =
      if List.mem None cells || ones then Column.make ~valid (Column.data data) else data
    in
    return (values, col))

(* an incoming selection: none, or an ascending subset *)
let sel_gen n =
  Gen.(
    option
      (map
         (fun keep ->
           Sel.of_array (Array.of_list (List.filter_map Fun.id (List.mapi (fun i k -> if k then Some i else None) keep))))
         (list_repeat n bool)))

let candidates n sel =
  match sel with Some s -> Array.to_list (Sel.to_array s) | None -> List.init n Fun.id

let dtype_gen = Gen.oneofl [ Dtype.Int; Dtype.Float; Dtype.String; Dtype.Bool ]

(* a constant for [dt]: its own type, the other numeric type, or NULL *)
let const_gen (dt : Dtype.t) =
  Gen.frequency
    ((5, value_gen dt)
     :: (1, Gen.return Value.Null)
     :: (match dt with
         | Int -> [ (3, value_gen Dtype.Float) ]
         | Float -> [ (3, value_gen Dtype.Int) ]
         | String | Bool -> []))

(* [a <op> b] is TRUE, or with [negate] FALSE: both defined, not TRUE *)
let ref_keeps ~negate op a b =
  if negate then
    (not (Value.is_null a)) && (not (Value.is_null b)) && not (ref_cmp op a b)
  else ref_cmp op a b

let prop_filter_const =
  qtest "filter_const agrees with list filter" ~count:500
    Gen.(
      let* dt = dtype_gen in
      let* n = int_range 0 40 in
      let* values, col = column_gen dt n in
      let* c = const_gen dt in
      let* op = cmp_gen in
      let* sel = sel_gen n in
      let* negate = bool in
      return (values, col, c, op, sel, negate))
    (fun (values, col, c, op, sel, negate) ->
      let values = Array.of_list values in
      let got = Array.to_list (Sel.to_array (Kernels.filter_const ~negate op col c sel)) in
      got
      = List.filter (fun i -> ref_keeps ~negate op values.(i) c) (candidates (Array.length values) sel))

let col_pair_gen =
  Gen.oneofl
    [ (Dtype.Int, Dtype.Int); (Dtype.Float, Dtype.Float); (Dtype.Int, Dtype.Float);
      (Dtype.Float, Dtype.Int); (Dtype.String, Dtype.String); (Dtype.Bool, Dtype.Bool) ]

let prop_filter_col =
  qtest "filter_col agrees with a per-row comparison" ~count:500
    Gen.(
      let* da, db = col_pair_gen in
      let* n = int_range 0 40 in
      let* va, ca = column_gen da n in
      let* vb, cb = column_gen db n in
      let* op = cmp_gen in
      let* sel = sel_gen n in
      let* negate = bool in
      return (va, ca, vb, cb, op, sel, negate))
    (fun (va, ca, vb, cb, op, sel, negate) ->
      let va = Array.of_list va and vb = Array.of_list vb in
      let got = Array.to_list (Sel.to_array (Kernels.filter_col ~negate op ca cb sel)) in
      got
      = List.filter (fun i -> ref_keeps ~negate op va.(i) vb.(i)) (candidates (Array.length va) sel))

(* Predicates over a nullable Int column 0, a nullable Float column 1 and
   a nullable String column 2; the [Arith] comparison takes [eval_filter]'s
   generic path through a boolean column. *)
let pred_gen =
  let open Raw_engine in
  Gen.(
    let leaf =
      oneof
        [ map2 (fun op c -> Expr.Cmp (op, Expr.Col 0, Expr.Const c)) cmp_gen (const_gen Dtype.Int);
          map2 (fun op c -> Expr.Cmp (op, Expr.Const c, Expr.Col 1)) cmp_gen (const_gen Dtype.Float);
          map2 (fun op c -> Expr.Cmp (op, Expr.Col 2, Expr.Const c)) cmp_gen (value_gen Dtype.String);
          map (fun op -> Expr.Cmp (op, Expr.Col 0, Expr.Col 1)) cmp_gen;
          map2
            (fun op c -> Expr.Cmp (op, Expr.Arith (Kernels.Add, Expr.Col 0, Expr.int 0), Expr.Const c))
            cmp_gen (value_gen Dtype.Int);
          map (fun b -> Expr.Const (Value.Bool b)) bool ]
    in
    sized_size (int_range 0 3)
      (fix (fun self n ->
           if n = 0 then leaf
           else
             frequency
               [ (2, leaf);
                 (2, map2 (fun a b -> Expr.And (a, b)) (self (n - 1)) (self (n - 1)));
                 (2, map2 (fun a b -> Expr.Or (a, b)) (self (n - 1)) (self (n - 1)));
                 (1, map (fun a -> Expr.Not a) (self (n - 1))) ])))

(* three-valued, [None] = NULL *)
let rec ref_pred (row : Value.t array) (e : Raw_engine.Expr.t) =
  let open Raw_engine.Expr in
  let term = function
    | Col i | Arith (_, Col i, _) -> row.(i)
    | Const v -> v
    | _ -> invalid_arg "ref_pred"
  in
  match e with
  | Cmp (op, a, b) ->
    (match term a, term b with
     | Value.Null, _ | _, Value.Null -> None
     | x, y -> Some (ref_cmp op x y))
  | And (a, b) ->
    (match ref_pred row a, ref_pred row b with
     | Some false, _ | _, Some false -> Some false
     | Some true, Some true -> Some true
     | _ -> None)
  | Or (a, b) ->
    (match ref_pred row a, ref_pred row b with
     | Some true, _ | _, Some true -> Some true
     | Some false, Some false -> Some false
     | _ -> None)
  | Not a -> Option.map not (ref_pred row a)
  | Const (Value.Bool b) -> Some b
  | _ -> invalid_arg "ref_pred"

let prop_eval_filter =
  qtest "eval_filter keeps the rows a three-valued reference makes TRUE" ~count:500
    Gen.(
      let* n = int_range 0 30 in
      let* v0, c0 = column_gen Dtype.Int n in
      let* v1, c1 = column_gen Dtype.Float n in
      let* v2, c2 = column_gen Dtype.String n in
      let* e = pred_gen in
      let* sel = sel_gen n in
      return ([| v0; v1; v2 |], Chunk.of_columns [ c0; c1; c2 ], e, sel))
    (fun (cols, chunk, e, sel) ->
      let cols = Array.map Array.of_list cols in
      let got = Array.to_list (Sel.to_array (Raw_engine.Expr.eval_filter e chunk sel)) in
      got
      = List.filter
          (fun i -> ref_pred (Array.map (fun c -> c.(i)) cols) e = Some true)
          (candidates (Chunk.n_rows chunk) sel))

(* ---------------- aggregates vs a list model ---------------- *)

(* Answers compare bit for bit, so -0.0 is not 0.0 here; but any NaN is
   NaN: IEEE leaves the sign and payload of an operation's NaN open, and
   which operand x86 hands on depends on register allocation. *)
let same_value (a : Value.t) (b : Value.t) =
  match a, b with
  | Float x, Float y ->
    (Float.is_nan x && Float.is_nan y)
    || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Value.equal a b

let same_rows a b = List.equal (List.equal same_value) a b

(* ---------------- arithmetic vs a per-row model ---------------- *)

let arith_gen = Gen.oneofl [ Kernels.Add; Kernels.Sub; Kernels.Mul; Kernels.Div; Kernels.Mod ]

exception Model_zero_divisor

(* One row of [a <op> b]: NULL if either side is; Int arithmetic wraps as
   OCaml's does and fails on a zero divisor; anything with a Float is
   IEEE, [Mod] being [Float.rem]. *)
let ref_arith (op : Kernels.arith) (x : Value.t) (y : Value.t) : Value.t =
  let float = function Value.Int a -> float_of_int a | Value.Float a -> a | _ -> invalid_arg "ref_arith" in
  match op, x, y with
  | _, Null, _ | _, _, Null -> Null
  | (Div | Mod), Int _, Int 0 -> raise Model_zero_divisor
  | Add, Int a, Int b -> Int (a + b)
  | Sub, Int a, Int b -> Int (a - b)
  | Mul, Int a, Int b -> Int (a * b)
  | Div, Int a, Int b -> Int (a / b)
  | Mod, Int a, Int b -> Int (a mod b)
  | Add, _, _ -> Float (float x +. float y)
  | Sub, _, _ -> Float (float x -. float y)
  | Mul, _, _ -> Float (float x *. float y)
  | Div, _, _ -> Float (float x /. float y)
  | Mod, _, _ -> Float (Float.rem (float x) (float y))

(* Columns 0 and 1 of an Int or Float type each, with NULLs over junk
   (often 0, so a NULL divisor hides a zero); the right operand is the
   column or a constant, and a constant may stand on the left *)
let prop_eval_arith =
  qtest "eval of Arith agrees with a per-row reference" ~count:1000
    Gen.(
      let* n = int_range 1 8 in
      let* da = oneofl [ Dtype.Int; Dtype.Float ] in
      let* db = oneofl [ Dtype.Int; Dtype.Float ] in
      let* va, ca = column_gen da n in
      let* vb, cb = column_gen db n in
      let* c = value_gen db in
      let* shape = int_range 0 2 in
      let* op = arith_gen in
      return (va, vb, Chunk.of_columns [ ca; cb ], c, shape, op))
    (fun (va, vb, chunk, c, shape, op) ->
      let open Raw_engine.Expr in
      let e, rows =
        match shape with
        | 0 -> (Arith (op, Col 0, Col 1), List.combine va vb)
        | 1 -> (Arith (op, Col 0, Const c), List.map (fun x -> (x, c)) va)
        | _ -> (Arith (op, Const c, Col 1), List.map (fun y -> (c, y)) vb)
      in
      let outcome f = match f () with v -> Ok v | exception (Kernels.Zero_divisor _ | Model_zero_divisor) -> Error () in
      let want = outcome (fun () -> List.map (fun (x, y) -> ref_arith op x y) rows) in
      let got = outcome (fun () -> Column.to_values (eval e chunk)) in
      match want, got with
      | Ok w, Ok g -> List.equal same_value w g
      | Error (), Error () -> true
      | _ -> false)

(* One aggregate over the non-NULL values of a group, in row order, as the
   engine defines it: MAX/MIN start from the first value and take a value
   only when it compares greater (less), so a leading NaN stays; float sums
   add in row order from 0; an Int SUM fails once its running sum leaves
   the int range; distinct values are told apart as [compare] does. *)
exception Model_overflow

let model_agg (op : Kernels.agg) (values : Value.t list) : Value.t =
  let vs = List.filter (fun v -> not (Value.is_null v)) values in
  let better v best =
    match op, v, best with
    | Max, Value.Float x, Value.Float y -> x > y
    | Min, Value.Float x, Value.Float y -> x < y
    | Max, _, _ -> Value.compare v best > 0
    | _ -> Value.compare v best < 0
  in
  let fsum = List.fold_left (fun s v -> s +. Value.to_float v) 0. in
  match op, vs with
  | Count, _ -> Int (List.length vs)
  | Count_distinct, _ -> Int (List.length (List.sort_uniq Value.compare vs))
  | _, [] -> Null
  | Sum, Int _ :: _ ->
    (* exact, whatever the order: the high parts and the low 31 bits are
       summed apart, and the total must fit in an Int *)
    let low = 0x7FFF_FFFF in
    let hi, lo =
      List.fold_left
        (fun (hi, lo) v -> let x = Value.as_int v in (hi + (x asr 31), lo + (x land low)))
        (0, 0) vs
    in
    let hi = hi + (lo asr 31) in
    if hi < -(low + 1) || hi > low then raise Model_overflow;
    Int ((hi lsl 31) lor (lo land low))
  | Sum, _ -> Float (fsum vs)
  | Avg, _ -> Float (fsum vs /. float_of_int (List.length vs))
  | (Max | Min), first :: rest ->
    List.fold_left (fun best v -> if better v best then v else best) first rest

let agg_gen dt =
  let numeric = dt = Dtype.Int || dt = Dtype.Float in
  Gen.oneofl
    (List.filter_map Fun.id
       [ Some Kernels.Count; Some Kernels.Max; Some Kernels.Min; Some Kernels.Count_distinct;
         (if numeric then Some Kernels.Sum else None); (if numeric then Some Kernels.Avg else None) ])

(* [rows] cut into chunks of [1 .. chunk_rows] rows, an empty one mixed in *)
let chunked cols n chunk_rows =
  let rec go lo =
    if lo >= n then []
    else
      let len = min chunk_rows (n - lo) in
      Chunk.of_columns (List.map (fun c -> Column.slice c lo len) cols) :: go (lo + len)
  in
  Chunk.of_columns (List.map (fun c -> Column.slice c 0 0) cols) :: go 0

let outcome f = match f () with v -> Ok v | exception (Kernels.Overflow _ | Model_overflow) -> Error ()

let prop_aggregate =
  qtest "aggregates agree with folds" ~count:500
    Gen.(
      let* dt = dtype_gen in
      let* n = int_range 0 30 in
      let* values, col = column_gen dt n in
      let* aggs = list_size (int_range 1 4) (agg_gen dt) in
      let* count_star = bool in
      let* chunk_rows = int_range 1 8 in
      return (values, col, aggs, count_star, chunk_rows))
    (fun (values, col, aggs, count_star, chunk_rows) ->
      let open Raw_engine in
      let specs =
        List.map (fun op -> (op, Expr.col 0)) aggs
        @ if count_star then [ (Kernels.Count, Expr.int 1) ] else []
      in
      let got () =
        let out =
          Operator.to_chunk
            (Operator.aggregate specs
               (Operator.of_chunks (chunked [ col ] (List.length values) chunk_rows)))
        in
        List.init (Chunk.n_rows out) (Chunk.row out)
      in
      let want () =
        [ List.map (fun op -> model_agg op values) aggs
          @ if count_star then [ Value.Int (List.length values) ] else [] ]
      in
      let scalar () = List.map (fun op -> Kernels.aggregate op col None) aggs in
      (* the operator over chunks, the model, and the kernel over the whole column *)
      match outcome got, outcome want, outcome scalar with
      | Ok g, Ok w, Ok s ->
        same_rows g w && same_rows [ s ] [ List.filteri (fun i _ -> i < List.length aggs) (List.hd w) ]
      | Error (), Error (), Error () -> true
      | _ -> false)

(* ---------------- group_by vs naive model ---------------- *)

(* Key columns: one Int, String or Float column, or two of any type;
   groups come out in first-seen order, NULL keys forming their own. *)
let prop_group_by =
  qtest "group_by sums agree with a naive fold" ~count:500
    Gen.(
      let* key_types =
        oneof
          [ map (fun d -> [ d ]) (oneofl [ Dtype.Int; Dtype.String; Dtype.Float ]);
            pair dtype_gen dtype_gen |> map (fun (a, b) -> [ a; b ]) ]
      in
      let* vdt = dtype_gen in
      let* n = int_range 0 30 in
      (* few distinct keys, so groups repeat *)
      let small (dt : Dtype.t) =
        match dt with
        | Int -> oneofl [ Value.Int 0; Value.Int 1; Value.Int min_int; Value.Int max_int ]
        | Float -> oneofl [ Value.Float 0.; Value.Float (-0.); Value.Float nan; Value.Float 2.5 ]
        | String -> oneofl [ Value.String ""; Value.String "a"; Value.String "b" ]
        | Bool -> map (fun b -> Value.Bool b) bool
      in
      let* keys =
        flatten_l
          (List.map
             (fun dt ->
               map
                 (fun cells ->
                   let vs = List.map (Option.value ~default:Value.Null) cells in
                   (vs, Column.of_values dt vs))
                 (list_repeat n (option ~ratio:0.85 (small dt))))
             key_types)
      in
      let* values, col = column_gen vdt n in
      let* aggs = list_size (int_range 1 4) (agg_gen vdt) in
      let* chunk_rows = int_range 1 8 in
      return (keys, values, col, aggs, chunk_rows))
    (fun (keys, values, col, aggs, chunk_rows) ->
      let open Raw_engine in
      let nk = List.length keys in
      let n = List.length values in
      let specs =
        List.map (fun op -> (op, Expr.col nk)) aggs @ [ (Kernels.Count, Expr.int 1) ]
      in
      let got () =
        let out =
          Operator.to_chunk
            (Operator.group_by
               ~keys:(List.init nk Expr.col)
               ~aggs:specs
               (Operator.of_chunks (chunked (List.map snd keys @ [ col ]) n chunk_rows)))
        in
        List.init (Chunk.n_rows out) (Chunk.row out)
      in
      let want () =
        let key_of i = List.map (fun (vs, _) -> List.nth vs i) keys in
        let same k1 k2 = List.equal (fun a b -> Value.compare a b = 0) k1 k2 in
        let groups =
          List.fold_left
            (fun groups i ->
              let k = key_of i in
              if List.exists (fun (k', _) -> same k k') groups then
                List.map (fun (k', rows) -> if same k k' then (k', i :: rows) else (k', rows)) groups
              else groups @ [ (k, [ i ]) ])
            [] (List.init n Fun.id)
        in
        List.map
          (fun (k, rows) ->
            let vs = List.rev_map (fun i -> List.nth values i) rows in
            k @ List.map (fun op -> model_agg op vs) aggs @ [ Value.Int (List.length rows) ])
          groups
      in
      match outcome got, outcome want with
      | Ok g, Ok w -> same_rows g w
      | Error (), Error () -> true
      | _ -> false)

(* ---------------- Int_table vs Hashtbl ---------------- *)

let prop_int_table =
  qtest "Int_table agrees with Hashtbl through growth" ~count:200
    (Gen.list_size (Gen.int_range 0 300)
       (Gen.pair
          (Gen.oneof [ Gen.int_range (-40) 40; Gen.map (fun k -> k lsl 40) (Gen.int_range 0 8); Gen.int ])
          (Gen.int_range 0 1000)))
    (fun ops ->
      let t = Int_table.create 0 and model = Hashtbl.create 16 in
      List.for_all
        (fun (k, v) ->
          let ok = Int_table.find t k = Option.value (Hashtbl.find_opt model k) ~default:(-1) in
          Int_table.replace t k v;
          Hashtbl.replace model k v;
          ok)
        ops
      && Hashtbl.fold (fun k v ok -> ok && Int_table.find t k = v) model true)

(* ---------------- hash join vs nested loop ---------------- *)

(* Key columns with NULLs and duplicates: small Int keys, keys that share
   their low bits (multiples of 2^40, which a table indexed by the low bits
   would pile into one slot), min_int/max_int, String keys, and Int keys
   joined against Float keys. *)
let join_keys_gen =
  let open Gen in
  let keys dt g = map (fun a -> (dt, a)) (array_size (int_range 0 30) g) in
  let null_or g = map (function None -> Value.Null | Some v -> v) (option ~ratio:0.85 g) in
  let int_key =
    frequency
      [
        (4, int_range (-2) 6);
        (2, map (fun k -> k lsl 40) (int_range 0 4));
        (1, oneofl [ min_int; max_int ]);
      ]
  in
  let ints = keys Dtype.Int (null_or (map (fun k -> Value.Int k) int_key)) in
  let small_ints = keys Dtype.Int (null_or (map (fun k -> Value.Int k) (int_range 0 4))) in
  let floats =
    keys Dtype.Float
      (null_or (map (fun f -> Value.Float f) (oneofl [ -0.; 0.; 1.; 1.5; 2.; 2.5; 3. ])))
  in
  let strings =
    keys Dtype.String
      (null_or (map (fun s -> Value.String s) (oneofl [ ""; "a"; "b"; "ab"; "c" ])))
  in
  oneof [ pair ints ints; pair strings strings; pair small_ints floats; pair floats small_ints ]

let prop_hash_join =
  qtest "hash_join equals nested-loop join" ~count:300
    (Gen.pair join_keys_gen (Gen.int_range 1 8))
    (fun (((pdt, probe), (bdt, build)), chunk_rows) ->
      let open Raw_engine in
      (* key then row number, so the output names every matched pair *)
      let side dt keys lo len =
        Chunk.of_columns
          [ Column.of_values dt (Array.to_list (Array.sub keys lo len));
            Column.of_int_array (Array.init len (fun i -> lo + i)) ]
      in
      let rec chunks lo =
        if lo >= Array.length probe then []
        else
          let len = min chunk_rows (Array.length probe - lo) in
          side pdt probe lo len :: chunks (lo + len)
      in
      let op =
        Operator.hash_join
          ~build:(Operator.of_chunks [ side bdt build 0 (Array.length build) ])
          ~probe:(Operator.of_chunks (chunks 0))
          ~build_key:(Expr.col 0) ~probe_key:(Expr.col 0)
      in
      let out = Operator.to_chunk op in
      let got = List.init (Chunk.n_rows out) (Chunk.row out) in
      (* probe order, then build order; keys compare as SQL [=] does *)
      let naive =
        List.concat
          (List.mapi
             (fun i p ->
               List.concat
                 (List.mapi
                    (fun j b ->
                      if Value.is_null p || Value.is_null b || Value.compare p b <> 0
                      then []
                      else [ [ p; Value.Int i; b; Value.Int j ] ])
                    (Array.to_list build)))
             (Array.to_list probe))
      in
      got = naive)

(* ---------------- sort with a limit vs the full stable sort ---------------- *)

let prop_sort_limit =
  qtest "sort ~limit:k is the first k rows of the stable sort" ~count:300
    Gen.(
      let null_or g = map (function None -> Value.Null | Some v -> v) (option ~ratio:0.8 g) in
      let* n = int_range 0 40 in
      let col dt g = map (fun l -> (dt, l)) (list_repeat n (null_or g)) in
      let* a = col Dtype.Int (map (fun i -> Value.Int i) (int_range 0 3)) in
      let* b = col Dtype.Float (map (fun f -> Value.Float f) (oneofl [ -1.5; 0.; 2.; 2.5 ])) in
      let* c = col Dtype.String (map (fun s -> Value.String s) (oneofl [ "x"; "y"; "" ])) in
      let* by =
        list_size (int_range 1 3)
          (pair (int_range 0 2) (oneofl [ `Asc; `Desc ]))
      in
      let* k = oneof [ int_range 0 5; int_range 0 (n + 3) ] in
      return ([ a; b; c ], by, k))
    (fun (cols, by, k) ->
      let open Raw_engine in
      let n = List.length (snd (List.hd cols)) in
      (* the row number rides along to tell tied rows apart *)
      let chunk =
        Chunk.of_columns
          (List.map (fun (dt, vs) -> Column.of_values dt vs) cols
          @ [ Column.of_int_array (Array.init n Fun.id) ])
      in
      let rows c = List.init (Chunk.n_rows c) (Chunk.row c) in
      let cmp r1 r2 =
        let rec go = function
          | [] -> 0
          | (i, dir) :: rest ->
            let r = Value.compare (List.nth r1 i) (List.nth r2 i) in
            let r = match dir with `Asc -> r | `Desc -> -r in
            if r <> 0 then r else go rest
        in
        go by
      in
      let sorted = List.stable_sort cmp (rows chunk) in
      let run ?limit () =
        rows (Operator.to_chunk (Operator.sort ?limit ~by (Operator.of_chunks [ chunk ])))
      in
      run () = sorted && run ~limit:k () = List.filteri (fun i _ -> i < k) sorted)

(* ---------------- scan kernels vs naive CSV model ---------------- *)

let small_grid_gen =
  Gen.pair (Gen.int_range 1 30) (Gen.int_range 1 8)

(* A random CSV scan case: mixed column types, some malformed cells, a
   random [needed] list (any order), a random [tracked] set and a policy. *)
let scan_case_gen =
  let open Gen in
  let* n = int_range 1 30 in
  let* m = int_range 1 8 in
  let* dtypes =
    list_repeat m (oneofl [ Dtype.Int; Dtype.Float; Dtype.Bool; Dtype.String ])
  in
  let* bad = list_repeat n (list_repeat m (frequencyl [ (9, false); (1, true) ])) in
  let* needed = shuffle_l (List.init m Fun.id) in
  let* k_needed = int_range 0 m in
  let* tracked = list_repeat m bool in
  let+ policy =
    oneofl Raw_storage.Scan_errors.[ Fail_fast; Skip_row; Null_fill ]
  in
  let tracked = List.filteri (fun c _ -> List.nth tracked c) (List.init m Fun.id) in
  (n, m, dtypes, bad, List.filteri (fun i _ -> i < k_needed) needed, tracked, policy)

let cell_text (dt : Dtype.t) r c bad =
  if bad then "x"
  else
    match dt with
    | Int -> string_of_int ((r * 31) + (c * 7))
    | Float -> Printf.sprintf "%d.25" (r + c)
    | Bool -> if (r + c) mod 2 = 0 then "true" else "false"
    | String -> Printf.sprintf "s%d_%d" r c

(* What a correct reader decodes from a cell; [None] = malformed. *)
let cell_value (dt : Dtype.t) r c bad : Value.t option =
  match dt with
  | String -> Some (Value.String (cell_text dt r c bad))
  | _ when bad -> None
  | Int -> Some (Value.Int ((r * 31) + (c * 7)))
  | Float -> Some (Value.Float (float_of_int (r + c) +. 0.25))
  | Bool -> Some (Value.Bool ((r + c) mod 2 = 0))

let posmap_equal a b =
  let module P = Raw_formats.Posmap in
  P.tracked a = P.tracked b
  && P.n_rows a = P.n_rows b
  && Array.for_all
       (fun c -> P.positions a c = P.positions b c && P.lengths a c = P.lengths b c)
       (P.tracked a)

(* Scan equivalence over random shapes: mixed types, random needed and
   tracked sets, malformed cells and every error policy. Both modes must
   match the naive reader and each other in columns, positional maps, error
   records and the tokenize/convert work counters. *)
let mixed_scan_modes_agree (n, m, dtypes, bad, needed, tracked, policy) =
  let module M = Raw_obs.Metrics in
  let module E = Raw_storage.Scan_errors in
  let dt = Array.of_list dtypes in
  let bad = Array.of_list (List.map Array.of_list bad) in
  let path = fresh_path ".csv" in
  Raw_formats.Csv.write_file ~path ~header:None
    ~rows:
      (List.to_seq
         (List.init n (fun r ->
              List.init m (fun c -> cell_text dt.(c) r c bad.(r).(c)))))
    ();
  let file = Raw_storage.Mmap_file.open_file path in
  let schema =
    Schema.of_pairs (List.mapi (fun c d -> (Printf.sprintf "col%d" c, d)) dtypes)
  in
  let run mode =
    E.reset ();
    let t0 = M.count M.csv_fields_tokenized in
    let c0 = M.count M.csv_values_converted in
    let out =
      match
        Raw_core.Scan_csv.seq_scan ~mode ~policy ~file ~sep:',' ~schema
          ~needed ~tracked ()
      with
      | r -> Ok r
      | exception E.Error e -> Error e
    in
    ( out,
      M.count M.csv_fields_tokenized - t0,
      M.count M.csv_values_converted - c0,
      E.snapshot () )
  in
  let interp = run Raw_core.Scan_csv.Interpreted in
  let jit = run Raw_core.Scan_csv.Jit in
  let row_ok r =
    Array.for_all Fun.id
      (Array.init m (fun c -> cell_value dt.(c) r c bad.(r).(c) <> None))
  in
  let kept =
    List.filter
      (fun r -> policy <> E.Skip_row || row_ok r)
      (List.init n Fun.id)
  in
  let naive_fails =
    policy = E.Fail_fast
    && List.exists
         (fun r ->
           List.exists (fun c -> cell_value dt.(c) r c bad.(r).(c) = None) needed)
         kept
  in
  let naive =
    List.map
      (fun c ->
        Column.of_values dt.(c)
          (List.map
             (fun r ->
               Option.value ~default:Value.Null (cell_value dt.(c) r c bad.(r).(c)))
             kept))
      needed
  in
  (* the work model: every row tokenizes fields [0, last] and converts the
     needed ones; a row Skip_row drops stops at its first bad field *)
  let last =
    List.fold_left max (-1)
      (tracked @ if policy = E.Skip_row then List.init m Fun.id else needed)
  in
  let want_tok, want_conv =
    List.fold_left
      (fun (t, v) r ->
        match
          List.find_opt
            (fun c -> cell_value dt.(c) r c bad.(r).(c) = None)
            (List.init m Fun.id)
        with
        | Some c when policy = E.Skip_row ->
          (t + c + 1, v + List.length (List.filter (fun k -> k < c) needed))
        | _ -> (t + last + 1, v + List.length needed))
      (0, 0) (List.init n Fun.id)
  in
  let agrees (out, tok, conv, _) =
    match out with
    | Error _ -> naive_fails
    | Ok (cols, pm) ->
      (not naive_fails)
      && tok = want_tok
      && conv = want_conv
      && List.for_all2 Column.equal naive (Array.to_list cols)
      && Option.is_some pm = (tracked <> [])
      && Option.fold ~none:true
           ~some:(fun pm -> Raw_formats.Posmap.n_rows pm = List.length kept)
           pm
  in
  let same (o1, t1, c1, e1) (o2, t2, c2, e2) =
    t1 = t2 && c1 = c2 && e1 = e2
    &&
    match o1, o2 with
    | Error a, Error b -> a = b
    | Ok (a, pa), Ok (b, pb) ->
      Array.for_all2 Column.equal a b
      && Option.equal posmap_equal pa pb
    | _ -> false
  in
  agrees interp && agrees jit && same interp jit

let prop_scan_modes_agree =
  qtest "interpreted and JIT CSV scans agree with a naive reader" ~count:200
    (Gen.pair small_grid_gen scan_case_gen)
    (fun ((n, m), case) ->
      let rows = List.init n (fun r -> List.init m (fun c -> (r * 31) + (c * 7))) in
      let path = write_csv_rows rows in
      let file = Raw_storage.Mmap_file.open_file path in
      let schema = Schema.of_pairs (int_cols m) in
      let needed = List.filteri (fun i _ -> i mod 2 = 0) (List.init m Fun.id) in
      let run mode =
        fst
          (Raw_core.Scan_csv.seq_scan ~mode ~file ~sep:',' ~schema ~needed
             ~tracked:[] ())
      in
      let interp = run Raw_core.Scan_csv.Interpreted in
      let jit = run Raw_core.Scan_csv.Jit in
      let naive =
        List.map
          (fun c -> Column.of_int_array (Array.of_list (List.map (fun row -> List.nth row c) rows)))
          needed
      in
      List.for_all2
        (fun c k -> Column.equal c interp.(k) && Column.equal c jit.(k))
        naive
        (List.init (List.length needed) Fun.id)
      && mixed_scan_modes_agree case)

let prop_fetch_matches_scan =
  qtest "posmap fetch agrees with full scan" ~count:40
    (Gen.pair small_grid_gen (Gen.pair (Gen.list_size (Gen.int_range 1 8) Gen.bool) Gen.bool))
    (fun ((n, m), (pick, shuffle)) ->
      let rows = List.init n (fun r -> List.init m (fun c -> (r * 13) + c)) in
      let path = write_csv_rows rows in
      let file = Raw_storage.Mmap_file.open_file path in
      let schema = Schema.of_pairs (int_cols m) in
      let tracked = Raw_formats.Posmap.every_k ~k:3 ~n_cols:m in
      let all = List.init m Fun.id in
      let full, pm =
        Raw_core.Scan_csv.seq_scan ~mode:Raw_core.Scan_csv.Jit ~file ~sep:','
          ~schema ~needed:all ~tracked ()
      in
      let pm = Option.get pm in
      let rowids = Array.of_list (List.filteri (fun i _ -> i mod 2 = 1) (List.init n Fun.id)) in
      (* multi-column fetches with gaps: a picked subset of the columns, and
         the row ids optionally in descending order *)
      let picked =
        List.filteri (fun c _ -> c < List.length pick && List.nth pick c) all
      in
      let rowids_alt =
        if shuffle then Array.of_list (List.rev (Array.to_list rowids)) else rowids
      in
      if Array.length rowids = 0 then true
      else
        List.for_all
          (fun mode ->
            let cols = [ m - 1 ] in
            let fetched =
              Raw_core.Scan_csv.fetch ~mode ~file ~sep:',' ~schema ~posmap:pm
                ~cols ~rowids ()
            in
            Column.equal (Column.gather full.(m - 1) rowids) fetched.(0)
            && (picked = []
               || List.for_all
                    (fun policy ->
                      let fetched =
                        Raw_core.Scan_csv.fetch ~mode ~policy ~file ~sep:','
                          ~schema ~posmap:pm ~cols:picked ~rowids:rowids_alt ()
                      in
                      List.for_all2
                        (fun c got ->
                          Column.equal (Column.gather full.(c) rowids_alt) got)
                        picked (Array.to_list fetched))
                    Raw_storage.Scan_errors.[ Fail_fast; Null_fill ]))
          [ Raw_core.Scan_csv.Interpreted; Raw_core.Scan_csv.Jit ])

(* ---------------- FWB roundtrip ---------------- *)

let prop_fwb_roundtrip =
  qtest "fwb write/read roundtrip" ~count:40
    (Gen.list_size (Gen.int_range 1 50) (Gen.pair Gen.int Gen.float))
    (fun rows ->
      let layout = Raw_formats.Fwb.layout [| Dtype.Int; Dtype.Float |] in
      let path = fresh_path ".fwb" in
      Raw_formats.Fwb.write_file ~path layout
        (List.to_seq (List.map (fun (i, f) -> [| Value.Int i; Value.Float f |]) rows));
      let file = Raw_storage.Mmap_file.open_file path in
      List.for_all
        (fun (row, (i, f)) ->
          Raw_formats.Fwb.read_int file (Raw_formats.Fwb.offset_of layout ~row ~field:0) = i
          &&
          let g =
            Raw_formats.Fwb.read_float file
              (Raw_formats.Fwb.offset_of layout ~row ~field:1)
          in
          (Float.is_nan f && Float.is_nan g) || g = f)
        (List.mapi (fun row x -> (row, x)) rows))

(* ---------------- HEP roundtrip ---------------- *)

let particle_gen =
  Gen.map
    (fun ((pt, eta), phi) -> { Raw_formats.Hep.pt; eta; phi })
    (Gen.pair (Gen.pair (Gen.float_bound_inclusive 100.) (Gen.float_bound_inclusive 2.5))
       (Gen.float_bound_inclusive 3.14))

let event_gen i =
  Gen.map
    (fun (((run, mu), el), jet) ->
      {
        Raw_formats.Hep.event_id = i;
        run_number = run;
        aux = Array.map (fun (p : Raw_formats.Hep.particle) -> p.phi) mu;
        muons = mu;
        electrons = el;
        jets = jet;
      })
    (Gen.pair
       (Gen.pair
          (Gen.pair (Gen.int_range 0 100) (Gen.array_size (Gen.int_range 0 5) particle_gen))
          (Gen.array_size (Gen.int_range 0 5) particle_gen))
       (Gen.array_size (Gen.int_range 0 5) particle_gen))

let events_gen =
  Gen.sized (fun n ->
      let n = min (max n 1) 20 in
      Gen.flatten_l (List.init n event_gen))

let prop_hep_roundtrip =
  qtest "hep write/read roundtrip" ~count:30 events_gen (fun events ->
      let path = fresh_path ".hep" in
      Raw_formats.Hep.write_file ~path (List.to_seq events);
      let r = Raw_formats.Hep.Reader.open_file path in
      Raw_formats.Hep.Reader.n_events r = List.length events
      && List.for_all
           (fun (i, (e : Raw_formats.Hep.event)) ->
             let got = Raw_formats.Hep.Reader.get_entry r i in
             got = e)
           (List.mapi (fun i e -> (i, e)) events))

(* ---------------- column concat ---------------- *)

let prop_concat =
  qtest "Column.concat equals element-wise append"
    (Gen.pair (Gen.array_size (Gen.int_range 0 50) Gen.int)
       (Gen.array_size (Gen.int_range 1 50) Gen.int))
    (fun (a, b) ->
      let ca = Column.of_int_array a and cb = Column.of_int_array b in
      Column.equal
        (Column.concat (if Array.length a = 0 then [ cb ] else [ ca; cb ]))
        (Column.of_int_array (if Array.length a = 0 then b else Array.append a b)))

(* ---------------- jsonl extraction vs reference parser ---------------- *)

let json_scalar_gen =
  Gen.oneof
    [
      Gen.map (fun i -> Value.Int i) (Gen.int_range (-1000000) 1000000);
      Gen.map (fun b -> Value.Bool b) Gen.bool;
      Gen.map (fun s -> Value.String s) (Gen.string_size ~gen:Gen.printable (Gen.int_range 0 12));
    ]

let prop_jsonl_extract =
  qtest "jsonl extraction agrees with the reference parser" ~count:60
    (Gen.list_size (Gen.int_range 1 6)
       (Gen.pair (Gen.int_range 0 9) json_scalar_gen))
    (fun fields ->
      (* unique single-letter field names a..j *)
      let fields =
        List.sort_uniq (fun (a, _) (b, _) -> Stdlib.compare a b) fields
        |> List.map (fun (i, v) -> (String.make 1 (Char.chr (97 + i)), v))
      in
      let path = fresh_path ".jsonl" in
      Raw_formats.Jsonl.write_file ~path (List.to_seq [ fields ]);
      let line =
        String.trim (In_channel.with_open_bin path In_channel.input_all)
      in
      match Raw_formats.Jsonl.parse line with
      | Raw_formats.Jsonl.Object parsed ->
        List.for_all
          (fun (name, v) ->
            match (List.assoc_opt name parsed, (v : Value.t)) with
            | Some (Raw_formats.Jsonl.Number x), Value.Int i ->
              x = float_of_int i
            | Some (Raw_formats.Jsonl.Bool b), Value.Bool b' -> b = b'
            | Some (Raw_formats.Jsonl.String s), Value.String s' -> s = s'
            | _ -> false)
          fields
      | _ -> false)

(* ---------------- btree range vs naive filter ---------------- *)

let prop_btree =
  qtest "btree range equals naive filter" ~count:60
    (Gen.pair
       (Gen.list_size (Gen.int_range 0 300) (Gen.int_range 0 500))
       (Gen.pair (Gen.int_range 0 500) (Gen.int_range 0 500)))
    (fun (keys, (a, b)) ->
      let lo = min a b and hi = max a b in
      let entries =
        List.sort Stdlib.compare keys
        |> List.mapi (fun i k -> (k, i))
        |> Array.of_list
      in
      let bytes, meta = Raw_formats.Btree.serialize ~fanout:7 entries in
      let file = Raw_storage.Mmap_file.of_bytes ~name:"t" bytes in
      let got =
        Array.to_list (Raw_formats.Btree.range file ~base:0 meta ~lo ~hi)
      in
      let want =
        Array.to_list entries
        |> List.filter (fun (k, _) -> k >= lo && k <= hi)
        |> List.map snd
      in
      got = want)

(* ---------------- CSV edge corpora ---------------- *)

(* Line-ending / final-field corner cases through both scan modes: CRLF
   endings, a missing trailing newline, and an empty final field. *)
let prop_csv_edges =
  qtest "csv edge corpora agree across scan modes" ~count:60
    (Gen.triple (Gen.int_range 1 20) Gen.bool
       (Gen.oneofl [ `Trail; `No_trail; `Empty_last ]))
    (fun (n, crlf, ending) ->
      let ints = List.init n (fun r -> (r * 31) - 7) in
      let strs =
        List.init n (fun r ->
            match ending with
            | `Empty_last -> ""
            | _ -> Printf.sprintf "s%d" r)
      in
      let eol = if crlf then "\r\n" else "\n" in
      let body =
        List.map2 (fun i s -> string_of_int i ^ "," ^ s) ints strs
        |> String.concat eol
      in
      let text = if ending = `No_trail then body else body ^ eol in
      let path = fresh_path ".csv" in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc text);
      let file = Raw_storage.Mmap_file.open_file path in
      let schema =
        Schema.of_pairs [ ("a", Dtype.Int); ("b", Dtype.String) ]
      in
      let run mode =
        fst
          (Raw_core.Scan_csv.seq_scan ~mode ~file ~sep:',' ~schema
             ~needed:[ 0; 1 ] ~tracked:[] ())
      in
      let interp = run Raw_core.Scan_csv.Interpreted in
      let jit = run Raw_core.Scan_csv.Jit in
      let want_a = Column.of_int_array (Array.of_list ints) in
      let want_b =
        Column.of_values Dtype.String (List.map (fun s -> Value.String s) strs)
      in
      Column.equal interp.(0) want_a
      && Column.equal interp.(1) want_b
      && Column.equal jit.(0) want_a
      && Column.equal jit.(1) want_b)

(* ---------------- word-at-a-time splitter ---------------- *)

(* Bytes that stress the SWAR masks: every separator the scans accept,
   both terminators, digits, ['\x0b'] (the cheap zero-byte test's false
   positive after a ['\n']) and bytes with the high bit set. *)
let csv_bytes_gen sep =
  let open Gen in
  let byte =
    frequency
      [ (6, map (fun d -> Char.chr (48 + d)) (int_range 0 9));
        (3, return sep); (1, return '\n'); (1, return '\r');
        (1, oneofl [ ','; ';'; '|'; '\t' ]); (1, return '\x0b');
        (1, map Char.chr (int_range 0x80 0xff)) ]
  in
  string_size ~gen:byte (int_range 0 80)

let split_case_gen =
  let open Gen in
  let* sep = oneofl [ ','; ';'; '|'; '\t' ] in
  let* text = csv_bytes_gen sep in
  let len = String.length text in
  let* pos = int_range 0 len in
  let* limit = opt (int_range pos len) in
  let+ n = int_range 0 12 in
  (sep, text, pos, limit, n)

let small_pages = { Raw_storage.Mmap_file.Config.default with page_size = 4 }

(* [split n] finds what [n] calls of [next_field] find, leaves the cursor
   in the same place, and faults the same pages (small pages, so rows
   straddle them); with a bounded residency the eviction order matters
   too. *)
let prop_split_matches_next_field =
  qtest "Cursor.split matches next_field calls" ~count:1000 split_case_gen
    (fun (sep, text, pos, limit, n) ->
      let module C = Raw_formats.Csv.Cursor in
      let module M = Raw_storage.Mmap_file in
      List.for_all
        (fun residency_capacity ->
          let config = { small_pages with residency_capacity } in
          let file () = M.of_bytes ~config ~name:"t" (Bytes.of_string text) in
          let f1 = file () and f2 = file () in
          (* warm a few pages first so the bounded residency has history *)
          List.iter (fun f -> M.touch f 0 (min 9 (String.length text))) [ f1; f2 ];
          let c1 = C.create ~sep ~pos ?limit f1 in
          let want = List.init n (fun _ -> C.next_field c1) in
          let c2 = C.create ~sep ~pos ?limit f2 in
          let starts = Array.make n (-1) and ends = Array.make n (-1) in
          C.split c2 n starts ends;
          let got = List.init n (fun k -> (starts.(k), ends.(k) - starts.(k))) in
          got = want && C.pos c1 = C.pos c2 && M.faults f1 = M.faults f2
          && M.resident_pages f1 = M.resident_pages f2)
        [ None; Some 2 ])

(* Whole rows through [split]: CRLF, short rows and no trailing newline,
   against the per-field cursor. *)
let prop_split_rows =
  qtest "Cursor.split walks rows like next_field" ~count:300
    (Gen.triple
       (Gen.list_size (Gen.int_range 0 12)
          (Gen.list_size (Gen.int_range 0 9) (Gen.string_size ~gen:Gen.numeral (Gen.int_range 0 19))))
       (Gen.pair Gen.bool Gen.bool) (Gen.int_range 0 10))
    (fun (rows, (crlf, trail), n) ->
      let module C = Raw_formats.Csv.Cursor in
      let eol = if crlf then "\r\n" else "\n" in
      let body = String.concat eol (List.map (String.concat ",") rows) in
      let text = if trail && rows <> [] then body ^ eol else body in
      let f = Raw_storage.Mmap_file.of_bytes ~name:"t" (Bytes.of_string text) in
      let c1 = C.create f and c2 = C.create f in
      let starts = Array.make n 0 and ends = Array.make n 0 in
      let ok = ref true in
      while !ok && not (C.at_eof c1) do
        let want = List.init n (fun _ -> C.next_field c1) in
        C.split c2 n starts ends;
        ok := List.init n (fun k -> (starts.(k), ends.(k) - starts.(k))) = want
              && C.pos c1 = C.pos c2;
        C.skip_line c1;
        C.skip_line c2
      done;
      !ok && C.at_eof c2)

let prop_count_rows =
  qtest "Csv.count_rows matches a naive newline count" ~count:500
    (Gen.bind (Gen.oneofl [ ','; '|' ]) csv_bytes_gen)
    (fun text ->
      let naive =
        let n = ref 0 in
        String.iter (fun c -> if c = '\n' then incr n) text;
        if text <> "" && text.[String.length text - 1] <> '\n' then !n + 1 else !n
      in
      let f = Raw_storage.Mmap_file.of_bytes ~name:"t" (Bytes.of_string text) in
      Raw_formats.Csv.count_rows f = naive
      (* the false positive of the cheap zero-byte test, at every offset *)
      && List.for_all
           (fun k ->
             let s = String.make k '1' ^ "\n\x0b\n\x0b1234567" in
             Raw_formats.Csv.count_rows
               (Raw_storage.Mmap_file.of_bytes ~name:"t" (Bytes.of_string s))
             = 3)
           (List.init 9 Fun.id))

(* The JIT kernels touch a whole row (or fetch span) at once; page faults
   and simulated I/O must still equal the interpreted kernels', under the
   default residency and a bounded one. *)
let prop_jit_faults_match =
  qtest "JIT CSV scan and fetch fault like the interpreted ones" ~count:60
    (Gen.triple small_grid_gen (Gen.int_range 8 64) Gen.bool)
    (fun ((n, m), page_size, bounded) ->
      let module M = Raw_storage.Mmap_file in
      (* at least two columns, so the fetch splits rather than taking the
         length-aware single-column read, which touches no separator *)
      let m = max m 2 in
      let rows = List.init n (fun r -> List.init m (fun c -> (r * 7919) + (c * 13))) in
      let path = write_csv_rows rows in
      let config =
        { M.Config.default with page_size; residency_capacity = (if bounded then Some 3 else None) }
      in
      let schema = Schema.of_pairs (int_cols m) in
      let needed = [ m / 2 ] and tracked = Raw_formats.Posmap.every_k ~k:2 ~n_cols:m in
      let run mode =
        let file = M.open_file ~config path in
        let _, pm =
          Raw_core.Scan_csv.seq_scan ~mode ~file ~sep:',' ~schema ~needed ~tracked ()
        in
        let scan = (M.faults file, M.simulated_io_seconds file) in
        M.drop_cache file;
        let rowids = Array.init ((n + 1) / 2) (fun i -> 2 * i) in
        ignore
          (Raw_core.Scan_csv.fetch ~mode ~file ~sep:',' ~schema ~posmap:(Option.get pm)
             ~cols:(List.sort_uniq compare [ 1 mod m; m - 1 ]) ~rowids ());
        (scan, (M.faults file, M.simulated_io_seconds file))
      in
      run Raw_core.Scan_csv.Interpreted = run Raw_core.Scan_csv.Jit)

(* ---------------- HEP access paths ---------------- *)

(* Bit-for-bit, floats included. *)
let same_value (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Value.equal a b

(* What the object API ([get_entry]) says a HEP table holds: one row per
   event, or per particle with its event id. *)
let hep_object_rows path coll =
  let module H = Raw_formats.Hep in
  let r = H.Reader.open_file path in
  List.concat_map
    (fun e ->
      let ev = H.Reader.get_entry r e in
      match coll with
      | None -> [ [| Value.Int ev.event_id; Value.Int ev.run_number |] ]
      | Some coll ->
        let ps = match (coll : H.coll) with Muons -> ev.muons | Electrons -> ev.electrons | Jets -> ev.jets in
        Array.to_list
          (Array.map
             (fun (p : H.particle) ->
               [| Value.Int ev.event_id; Value.Float p.pt; Value.Float p.eta; Value.Float p.phi |])
             ps))
    (List.init (H.Reader.n_events r) Fun.id)

(* The JIT readers go through decoded offsets, the interpreted ones
   through the field API. On every table and column subset, for a full
   scan and for a sorted sparse fetch as the very first access of a fresh
   catalog, both return exactly what the object API returns, and fault
   the same pages (small pages, so records straddle them). *)
let prop_hep_paths_agree =
  qtest "HEP JIT, field-API and object-API reads agree, faults included" ~count:60
    (Gen.triple events_gen (Gen.int_range 8 64) Gen.int)
    (fun (events, page_size, seed) ->
      let module H = Raw_formats.Hep in
      let module M = Raw_storage.Mmap_file in
      let open Raw_core in
      let path = fresh_path ".hep" in
      H.write_file ~path (List.to_seq events);
      let rng = Random.State.make [| seed |] in
      let config =
        { Config.default with Config.mmap = { M.Config.default with page_size } }
      in
      List.for_all
        (fun (table, coll) ->
          let want = Array.of_list (hep_object_rows path coll) in
          let arity = if coll = None then 2 else 4 in
          let needed = List.filter (fun _ -> Random.State.bool rng) (List.init arity Fun.id) in
          let needed = if needed = [] then [ Random.State.int rng arity ] else needed in
          let rowids =
            if Random.State.bool rng then None
            else
              Some
                (Array.of_list
                   (List.filter (fun _ -> Random.State.int rng 4 = 0)
                      (List.init (Array.length want) Fun.id)))
          in
          let run mode =
            let cat = Catalog.create ~config () in
            Catalog.register_hep cat ~name_prefix:"h" ~path;
            let entry = Catalog.get cat table in
            let reader = Catalog.hep_reader cat entry in
            let cols =
              match coll with
              | None -> Scan_hep.scan_events ~mode ~reader ~needed ~rowids ()
              | Some coll ->
                Scan_hep.scan_particles ~mode ~reader ~coll
                  ~index:(Catalog.hep_index cat entry) ~needed ~rowids
            in
            let file = H.Reader.file reader in
            (cols, M.faults file, M.simulated_io_seconds file)
          in
          let jit, jit_faults, jit_io = run Scan_csv.Jit in
          let interp, faults, io = run Scan_csv.Interpreted in
          let rows = match rowids with Some ids -> ids | None -> Array.init (Array.length want) Fun.id in
          List.for_all2
            (fun col k ->
              Array.for_all
                (fun (c : Column.t array) ->
                  Column.length c.(k) = Array.length rows
                  && Array.for_all Fun.id
                       (Array.mapi (fun i r -> same_value (Column.get c.(k) i) want.(r).(col)) rows))
                [| jit; interp |])
            needed (List.init (List.length needed) Fun.id)
          && jit_faults = faults && jit_io = io)
        [ ("h_events", None); ("h_muons", Some H.Muons); ("h_electrons", Some H.Electrons);
          ("h_jets", Some H.Jets) ])

(* ---------------- parallel scans vs sequential ---------------- *)

(* Run [f], returning its result plus the Io_stats work-counter delta it
   caused (timing entries excluded: the per-domain wall-clock breakdown and
   latency histograms — morsel.seconds has one observation per morsel and
   wall-clock-dependent buckets — are timings, not work, and legitimately
   vary with parallelism). *)
let timing_key k =
  String.starts_with ~prefix:"par.domain" k
  (* one segment per morsel: the stitch count is the morsel count *)
  || k = "posmap.segments_merged"
  ||
  match Raw_obs.Metrics.owner k with
  | Some m -> Raw_obs.Metrics.kind m = Raw_obs.Metrics.Histogram
  | None -> false

let delta_counters f =
  let before = Raw_storage.Io_stats.snapshot () in
  let r = f () in
  let after = Raw_storage.Io_stats.snapshot () in
  let d =
    List.filter_map
      (fun (k, v) ->
        if timing_key k then None
        else
          let v0 =
            match List.assoc_opt k before with Some x -> x | None -> 0.
          in
          if v -. v0 <> 0. then Some (k, v -. v0) else None)
      after
  in
  (r, d)

let posmap_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    Raw_formats.Posmap.tracked a = Raw_formats.Posmap.tracked b
    && Raw_formats.Posmap.n_rows a = Raw_formats.Posmap.n_rows b
    && Array.for_all
         (fun c ->
           Raw_formats.Posmap.positions a c = Raw_formats.Posmap.positions b c
           && Raw_formats.Posmap.lengths a c = Raw_formats.Posmap.lengths b c)
         (Raw_formats.Posmap.tracked a)
  | _ -> false

let mode_gen = Gen.oneofl [ Raw_core.Scan_csv.Interpreted; Raw_core.Scan_csv.Jit ]

let prop_parallel_csv =
  qtest "parallel CSV scan is bit-identical to sequential" ~count:10
    (Gen.pair small_grid_gen mode_gen)
    (fun ((n, m), mode) ->
      let rows = List.init n (fun r -> List.init m (fun c -> (r * 17) + c)) in
      let path = write_csv_rows rows in
      let schema = Schema.of_pairs (int_cols m) in
      let needed = List.init m Fun.id in
      let tracked = Raw_formats.Posmap.every_k ~k:2 ~n_cols:m in
      let run parallelism =
        let file = Raw_storage.Mmap_file.open_file path in
        delta_counters (fun () ->
            Raw_core.Scan_csv.par_scan ~mode ~parallelism ~file ~sep:','
              ~schema ~needed ~tracked ())
      in
      let (c1, p1), d1 = run 1 in
      let (c4, p4), d4 = run 4 in
      Array.for_all2 Column.equal c1 c4 && posmap_equal p1 p4 && d1 = d4)

let prop_parallel_fwb =
  qtest "parallel FWB scan is bit-identical to sequential" ~count:10
    (Gen.pair (Gen.int_range 1 200) mode_gen)
    (fun (n, mode) ->
      let layout =
        Raw_formats.Fwb.layout [| Dtype.Int; Dtype.Float; Dtype.Bool |]
      in
      let path = fresh_path ".fwb" in
      Raw_formats.Fwb.write_file ~path layout
        (Seq.init n (fun i ->
             [|
               Value.Int (i * 3);
               Value.Float (float_of_int i /. 7.);
               Value.Bool (i mod 2 = 0);
             |]));
      let schema =
        Schema.of_pairs
          [ ("a", Dtype.Int); ("b", Dtype.Float); ("c", Dtype.Bool) ]
      in
      let run parallelism =
        let file = Raw_storage.Mmap_file.open_file path in
        delta_counters (fun () ->
            Raw_core.Scan_fwb.par_scan ~mode ~parallelism ~file ~layout
              ~schema ~needed:[ 0; 1; 2 ] ())
      in
      let c1, d1 = run 1 in
      let c4, d4 = run 4 in
      Array.for_all2 Column.equal c1 c4 && d1 = d4)

let prop_parallel_hep =
  qtest "parallel HEP scans are bit-identical to sequential" ~count:10
    events_gen
    (fun events ->
      let path = fresh_path ".hep" in
      Raw_formats.Hep.write_file ~path (List.to_seq events);
      (* flattened muon index, entry/item per dense particle row *)
      let pairs =
        List.concat
          (List.mapi
             (fun e (ev : Raw_formats.Hep.event) ->
               List.init (Array.length ev.muons) (fun i -> (e, i)))
             events)
      in
      let index =
        ( Array.of_list (List.map fst pairs),
          Array.of_list (List.map snd pairs) )
      in
      (* A JIT scan decodes the offsets before forking, so the views
         share the coordinator's array: it holds them afterwards. *)
      let decoded mode r =
        mode = Raw_core.Scan_csv.Interpreted || Raw_formats.Hep.Reader.offsets_bytes r > 0
      in
      let run_events parallelism =
        let r = Raw_formats.Hep.Reader.open_file path in
        let c, d =
          delta_counters (fun () ->
              Raw_core.Scan_hep.par_scan_events ~mode:Raw_core.Scan_csv.Jit
                ~parallelism ~reader:r ~needed:[ 0; 1 ] ~rowids:None ())
        in
        (c, d, decoded Raw_core.Scan_csv.Jit r)
      in
      let run_particles mode parallelism =
        let r = Raw_formats.Hep.Reader.open_file path in
        let c, d =
          delta_counters (fun () ->
              Raw_core.Scan_hep.par_scan_particles ~mode ~parallelism ~reader:r
                ~coll:Raw_formats.Hep.Muons ~index ~needed:[ 0; 1; 2; 3 ]
                ~rowids:None)
        in
        (c, d, index = ([||], [||]) || decoded mode r)
      in
      let e1, de1, _ = run_events 1 in
      let e4, de4, ok = run_events 4 in
      ok && Array.for_all2 Column.equal e1 e4 && de1 = de4
      && List.for_all
           (fun mode ->
             let p1, dp1, _ = run_particles mode 1 in
             let p4, dp4, ok = run_particles mode 4 in
             ok && Array.for_all2 Column.equal p1 p4 && dp1 = dp4)
           [ Raw_core.Scan_csv.Interpreted; Raw_core.Scan_csv.Jit ])

(* ---------------- io_stats merge algebra ---------------- *)

(* The morsel coordinator folds worker snapshots into its own table; the
   result must not depend on how the workers' deltas are grouped or
   ordered. Values are quarter-integers so float addition is exact and the
   property is about the merge, not rounding. *)
let snap_gen =
  Gen.list_size (Gen.int_range 0 10)
    (Gen.pair
       (Gen.oneofl [ "m.a"; "m.b"; "m.c"; "m.d" ])
       (Gen.map (fun i -> float_of_int i /. 4.) (Gen.int_range 0 400)))

(* Each merge runs in a fresh domain: Io_stats tables are domain-local,
   so a spawned domain starts empty. *)
let merged snaps =
  Domain.join
    (Domain.spawn (fun () ->
         List.iter Raw_storage.Io_stats.merge snaps;
         Raw_storage.Io_stats.snapshot ()))

let prop_io_stats_merge =
  qtest "io_stats merge is associative and order-insensitive" ~count:30
    (Gen.triple snap_gen snap_gen snap_gen)
    (fun (a, b, c) ->
      let abc = merged [ a; b; c ] in
      abc = merged [ c; a; b ]
      && abc = merged [ merged [ a; b ]; c ]
      && abc = merged [ a; merged [ b; c ] ])

(* ---------------- end-to-end: SQL vs naive model ---------------- *)

let prop_sql_selection =
  qtest "SELECT MAX WHERE agrees with list model" ~count:30
    (Gen.pair (Gen.list_size (Gen.int_range 1 80) (Gen.int_range 0 1000))
       (Gen.int_range 0 1000))
    (fun (values, x) ->
      let rows = List.map (fun v -> [ v; v * 2 ]) values in
      let path = write_csv_rows rows in
      let db = Raw_core.Raw_db.create () in
      Raw_core.Raw_db.register_csv db ~name:"t" ~path
        ~columns:[ ("a", Dtype.Int); ("b", Dtype.Int) ] ();
      let got =
        Raw_core.Raw_db.scalar db
          (Printf.sprintf "SELECT MAX(b) FROM t WHERE a < %d" x)
      in
      let qualifying = List.filter (fun v -> v < x) values in
      let want =
        match qualifying with
        | [] -> Value.Null
        | l -> Value.Int (2 * List.fold_left max min_int l)
      in
      Value.equal got want)

let suites =
  [
    ( "props",
      [
        prop_parse_int;
        prop_parse_float;
        prop_parse_int_range;
        prop_parse_float_exact;
        prop_sel_partition;
        prop_sel_compose;
        prop_lru_bounded;
        prop_touch_counts;
        prop_gather_scatter;
        prop_filter_const;
        prop_filter_col;
        prop_eval_filter;
        prop_eval_arith;
        prop_aggregate;
        prop_int_table;
        prop_hash_join;
        prop_sort_limit;
        prop_scan_modes_agree;
        prop_fetch_matches_scan;
        prop_fwb_roundtrip;
        prop_hep_roundtrip;
        prop_group_by;
        prop_concat;
        prop_jsonl_extract;
        prop_btree;
        prop_csv_edges;
        prop_split_matches_next_field;
        prop_split_rows;
        prop_count_rows;
        prop_jit_faults_match;
        prop_hep_paths_agree;
        prop_parallel_csv;
        prop_parallel_fwb;
        prop_parallel_hep;
        prop_io_stats_merge;
        prop_sql_selection;
      ] );
  ]
