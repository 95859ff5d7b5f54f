(* The answer oracle: a row-at-a-time evaluator of {!Script.query} over the
   generated values, and a typed comparison of the engine's answers
   against it. It never calls the engine. NULLs follow SQL: a comparison
   with NULL is unknown, WHERE keeps only rows whose predicate is true,
   aggregates skip NULLs, and an aggregate over no values is NULL (COUNT
   is 0). *)

open Raw_vector
open Script

type table = { n : int; col : string -> Data.column }
type env = string -> table

let lit = function I n -> Value.Int n | S s -> Value.String s

let compare_values (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Int x, Int y -> compare x y
  | Float x, Float y -> compare x y
  | Int x, Float y -> compare (float x) y
  | Float x, Int y -> compare x (float y)
  | String x, String y -> compare x y
  | _ -> invalid_arg "oracle: incomparable values"

let holds op c =
  match op with Lt -> c < 0 | Le -> c <= 0 | Gt -> c > 0 | Ge -> c >= 0 | Eq -> c = 0 | Ne -> c <> 0

(* Rows are positions [k] in the (joined) row-id arrays; a column
   resolves once to a getter over them. *)
type column = { get : int -> Value.t; ints : (int -> int) option }

(* A predicate compiled over the columns: Kleene three-valued logic, with
   [None] for unknown. Int columns against int literals skip boxing. *)
let rec compile_pred column = function
  | Cmp (op, c, l) -> (
    let col = column c in
    match (col.ints, l) with
    | Some get, I n -> fun k -> Some (holds op (compare (get k) n))
    | _ ->
      let l = lit l in
      fun k -> (match col.get k with Value.Null -> None | v -> Some (holds op (compare_values v l))))
  | And (a, b) ->
    let a = compile_pred column a and b = compile_pred column b in
    fun k ->
      (match (a k, b k) with
       | Some false, _ | _, Some false -> Some false
       | Some true, Some true -> Some true
       | _ -> None)
  | Or (a, b) ->
    let a = compile_pred column a and b = compile_pred column b in
    fun k ->
      (match (a k, b k) with
       | Some true, _ | _, Some true -> Some true
       | Some false, Some false -> Some false
       | _ -> None)
  | Not a ->
    let a = compile_pred column a in
    fun k -> Option.map not (a k)

let aggregate column rows = function
  | Count_star -> Value.Int (Array.length rows)
  | Count c ->
    let g = (column c).get in
    Int (Array.fold_left (fun n k -> if g k = Value.Null then n else n + 1) 0 rows)
  | (Sum c | Min c | Max c | Avg c) as a -> (
    let g = (column c).get in
    let vs = List.filter (fun v -> v <> Value.Null) (Array.to_list (Array.map g rows)) in
    match vs with
    | [] -> Null
    | v0 :: _ -> (
      match a with
      | Min _ -> List.fold_left (fun m v -> if compare_values v m < 0 then v else m) v0 vs
      | Max _ -> List.fold_left (fun m v -> if compare_values v m > 0 then v else m) v0 vs
      | Sum _ -> (
        match v0 with
        | Int _ -> Int (List.fold_left (fun s v -> s + Value.as_int v) 0 vs)
        | _ -> Float (List.fold_left (fun s v -> s +. Value.to_float v) 0. vs))
      | _ ->
        let s =
          match v0 with
          | Int _ -> float (List.fold_left (fun s v -> s + Value.as_int v) 0 vs)
          | _ -> List.fold_left (fun s v -> s +. Value.to_float v) 0. vs
        in
        Float (s /. float (List.length vs))))

let sort_rows = List.sort (List.compare Value.compare)

(* The expected rows; GROUP BY results come sorted (their order is
   unspecified, {!check} sorts the answer the same way). *)
let eval (env : env) q =
  let left = env q.from in
  (* row [k] joins left row [li.(k)] with right row [ri.(k)] *)
  let li, ri =
    match q.join with
    | None -> (Array.init left.n Fun.id, [||])
    | Some (r, key) ->
      let right = env r in
      let rk = right.col key and lk = left.col key in
      let h = Hashtbl.create right.n in
      for j = 0 to right.n - 1 do
        match Data.get rk j with Value.Null -> () | v -> Hashtbl.add h v j
      done;
      let pairs =
        List.concat
          (List.init left.n (fun i ->
               match Data.get lk i with
               | Value.Null -> []
               | v -> List.map (fun j -> (i, j)) (Hashtbl.find_all h v)))
      in
      (Array.of_list (List.map fst pairs), Array.of_list (List.map snd pairs))
  in
  let column c =
    let col = (env c.tbl).col c.name in
    let ids = if c.tbl = q.from then li else ri in
    {
      get = (fun k -> Data.get col ids.(k));
      ints = (match col with Data.Ints a -> Some (fun k -> a.(ids.(k))) | _ -> None);
    }
  in
  let rows = Array.init (Array.length li) Fun.id in
  let rows =
    match q.where with
    | None -> rows
    | Some p ->
      let p = compile_pred column p in
      Array.of_list (List.filter (fun k -> p k = Some true) (Array.to_list rows))
  in
  match q.select with
  | Aggs l -> [ List.map (aggregate column rows) l ]
  | Group (key, l) ->
    let g = (column key).get in
    let groups = Hashtbl.create 64 in
    Array.iter
      (fun k ->
        let v = g k in
        Hashtbl.replace groups v (k :: Option.value ~default:[] (Hashtbl.find_opt groups v)))
      rows;
    Hashtbl.fold (fun v ks acc -> (v :: List.map (aggregate column (Array.of_list (List.rev ks))) l) :: acc) groups []
    |> sort_rows
  | Top (cs, n) ->
    let gs = List.map (fun c -> (column c).get) cs in
    let keyed = Array.to_list (Array.map (fun k -> List.map (fun g -> g k) gs) rows) in
    List.filteri (fun i _ -> i < n) (List.sort (fun a b -> List.compare Value.compare b a) keyed)

(* ---------- the tables, rebuilt from the generators ---------- *)

let relational_env sz ~seed =
  let tables = Hashtbl.create 8 in
  let relational name t =
    let cols = lazy (Data.table_columns sz ~seed t) in
    Hashtbl.replace tables name
      (lazy
        (let cols = Lazy.force cols in
         let names = Array.of_list (List.map fst (Data.columns t)) in
         {
           n = Data.n_rows sz t;
           col =
             (fun c ->
               let rec find i = if names.(i) = c then cols.(i) else find (i + 1) in
               find 0);
         }))
  in
  relational "t30" Data.T30;
  relational "t30s" Data.T30s;
  relational "t120" Data.T120;
  (tables, fun name -> Lazy.force (Hashtbl.find tables name))

(* HEP tables read back through the format library's object API *)
let add_hep tables path =
  let open Raw_formats in
  let load =
    lazy
      (let r = Hep.Reader.open_file path in
       let evs = Array.init (Hep.Reader.n_events r) (Hep.Reader.get_entry r) in
       evs)
  in
  Hashtbl.replace tables "h_events"
    (lazy
      (let evs = Lazy.force load in
       let ids = Data.Ints (Array.map (fun (e : Hep.event) -> e.event_id) evs) in
       let runs = Data.Ints (Array.map (fun (e : Hep.event) -> e.run_number) evs) in
       { n = Array.length evs; col = (function "event_id" -> ids | "run_number" -> runs | c -> failwith c) }));
  List.iter
    (fun (name, coll) ->
      Hashtbl.replace tables name
        (lazy
          (let evs = Lazy.force load in
           let rows =
             Array.concat
               (Array.to_list
                  (Array.map
                     (fun (e : Hep.event) ->
                       Array.map (fun p -> (e.event_id, p)) (coll e))
                     evs))
           in
           let f g = Data.Floats (Array.map (fun (_, p) -> g p) rows) in
           let ids = Data.Ints (Array.map fst rows) in
           let pt = f (fun (p : Hep.particle) -> p.pt) and eta = f (fun p -> p.eta) and phi = f (fun p -> p.phi) in
           {
             n = Array.length rows;
             col = (function "event_id" -> ids | "pt" -> pt | "eta" -> eta | "phi" -> phi | c -> failwith c);
           })))
    [
      ("h_muons", fun (e : Hep.event) -> e.muons);
      ("h_electrons", fun (e : Hep.event) -> e.electrons);
      ("h_jets", fun (e : Hep.event) -> e.jets);
    ]

let log_env sz ~seed ~max_epoch =
  let cols = Data.log_columns_upto ~seed (Data.log_rows_at sz max_epoch) in
  fun epoch name ->
    if name <> "log" then failwith name;
    { n = Data.log_rows_at sz epoch; col = (fun c -> List.assoc c cols) }

(* ---------- typed comparison ---------- *)

let value_ok (exp : Value.t) (got : Value.t) =
  match (exp, got) with
  | Null, Null -> true
  | Int a, Int b -> a = b
  | Float a, Float b -> a = b || Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)
  | String a, String b -> a = b
  | Bool a, Bool b -> a = b
  | _ -> false

let pp_value = function Value.Float f -> Printf.sprintf "%.17g" f | v -> Value.to_string v
let pp_row r = "(" ^ String.concat ", " (List.map pp_value r) ^ ")"
let pp_rows rs = "[" ^ String.concat "; " (List.map pp_row rs) ^ "]"

(* [None] when the answer matches, otherwise why not *)
let check q ~expected ~got =
  let got = match q.select with Group _ -> sort_rows got | _ -> got in
  if
    List.length expected = List.length got
    && List.for_all2
         (fun e g -> List.length e = List.length g && List.for_all2 value_ok e g)
         expected got
  then None
  else Some (Printf.sprintf "expected %s, got %s" (pp_rows expected) (pp_rows got))

(* ---------- answers on the wire ---------- *)

module J = Raw_obs.Jsons

(* Typed values back from the JSON rows: the "types" array says how to read
   each column, since an integral float prints like an int. *)
let rows_of_json j =
  let types =
    Option.bind (J.member "types" j) J.to_list_opt
    |> Option.value ~default:[]
    |> List.map (fun t -> Option.bind (J.to_string_opt t) Dtype.of_string)
  in
  let value dt (v : J.t) : Value.t =
    match (dt, v) with
    | _, J.Null -> Null
    | Some Dtype.Int, J.Int n -> Int n
    | Some Dtype.Float, (J.Int _ | J.Float _) -> Float (Option.get (J.to_float_opt v))
    | Some Dtype.String, J.Str s -> String s
    | Some Dtype.Bool, J.Bool b -> Bool b
    | _ -> String ("?" ^ J.to_string v)
  in
  Option.bind (J.member "rows" j) J.to_list_opt
  |> Option.value ~default:[]
  |> List.map (fun r ->
         List.mapi (fun i v -> value (List.nth_opt types i |> Option.join) v)
           (Option.value ~default:[] (J.to_list_opt r)))

let json_of_rows ~types rows =
  let value : Value.t -> J.t = function
    | Int n -> Int n
    | Float f -> Float f
    | String s -> Str s
    | Bool b -> Bool b
    | Null -> Null
  in
  [
    ("types", J.List (List.map (fun d -> J.Str (Dtype.to_string d)) types));
    ("rows", J.List (List.map (fun r -> J.List (List.map value r)) rows));
  ]
