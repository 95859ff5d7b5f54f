(* The query streams, as data: the measured program receives the SQL
   rendering, the oracle evaluates the same structure over the generated
   values. Every stream is a pure function of the seed. *)

type col = { tbl : string; name : string }
type cmp = Lt | Le | Gt | Ge | Eq | Ne
type lit = I of int | S of string

type pred =
  | Cmp of cmp * col * lit
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type agg = Count_star | Count of col | Sum of col | Min of col | Max of col | Avg of col

type select =
  | Aggs of agg list  (** one row *)
  | Group of col * agg list  (** key, then aggregates; row order unspecified *)
  | Top of col list * int  (** the columns, ordered by all of them descending, limited *)

type query = {
  from : string;
  join : (string * string) option;
      (** [(right table, key)]: equi-join on the same-named column *)
  where : pred option;
  select : select;
}

(* ---------- SQL rendering ---------- *)

let cmp_sql = function Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "=" | Ne -> "<>"

let to_sql q =
  let col c = if q.join = None then c.name else c.tbl ^ "." ^ c.name in
  let lit = function I n -> string_of_int n | S s -> "'" ^ s ^ "'" in
  let rec pred = function
    | Cmp (op, c, l) -> Printf.sprintf "%s %s %s" (col c) (cmp_sql op) (lit l)
    | And (a, b) -> Printf.sprintf "(%s AND %s)" (pred a) (pred b)
    | Or (a, b) -> Printf.sprintf "(%s OR %s)" (pred a) (pred b)
    | Not a -> Printf.sprintf "(NOT %s)" (pred a)
  in
  let agg = function
    | Count_star -> "COUNT(*)"
    | Count c -> Printf.sprintf "COUNT(%s)" (col c)
    | Sum c -> Printf.sprintf "SUM(%s)" (col c)
    | Min c -> Printf.sprintf "MIN(%s)" (col c)
    | Max c -> Printf.sprintf "MAX(%s)" (col c)
    | Avg c -> Printf.sprintf "AVG(%s)" (col c)
  in
  let items, tail =
    match q.select with
    | Aggs l -> (List.map agg l, "")
    | Group (k, l) -> (col k :: List.map agg l, " GROUP BY " ^ col k)
    | Top (cs, n) ->
      ( List.map col cs,
        Printf.sprintf " ORDER BY %s LIMIT %d"
          (String.concat ", " (List.map (fun c -> c.name ^ " DESC") cs))
          n )
  in
  let join =
    match q.join with
    | None -> ""
    | Some (r, k) -> Printf.sprintf " JOIN %s ON %s.%s = %s.%s" r q.from k r k
  in
  let where = match q.where with None -> "" | Some p -> " WHERE " ^ pred p in
  Printf.sprintf "SELECT %s FROM %s%s%s%s" (String.concat ", " items) q.from join where
    tail

(* ---------- which columns a query touches ---------- *)

let columns q =
  let acc = ref [] in
  let add c = if not (List.mem c !acc) then acc := c :: !acc in
  let rec pred = function
    | Cmp (_, c, _) -> add c
    | And (a, b) | Or (a, b) -> pred a; pred b
    | Not a -> pred a
  in
  let agg = function
    | Count_star -> ()
    | Count c | Sum c | Min c | Max c | Avg c -> add c
  in
  Option.iter (fun (r, k) -> add { tbl = q.from; name = k }; add { tbl = r; name = k }) q.join;
  Option.iter pred q.where;
  (match q.select with
   | Aggs l -> List.iter agg l
   | Group (k, l) -> add k; List.iter agg l
   | Top (cs, _) -> List.iter add cs);
  List.rev !acc

type cls = First | Adapt | Warm

let cls_name = function First -> "first" | Adapt -> "adapt" | Warm -> "warm"

(* First-touch classes from the script alone: the session's first query,
   queries that reference a column no earlier query of the session did,
   and the rest. *)
let classify qs =
  let seen = Hashtbl.create 64 in
  List.mapi
    (fun i q ->
      let cs = columns q in
      let fresh = List.exists (fun c -> not (Hashtbl.mem seen c)) cs in
      List.iter (fun c -> Hashtbl.replace seen c ()) cs;
      if i = 0 then First else if fresh then Adapt else Warm)
    qs

(* ---------- one-shot exploration sessions ---------- *)

type source = Csv_files | Fwb_files

(* Per-session state: each table's columns in a seeded "hotness" order;
   new columns are taken in that order, re-used columns are drawn from the
   touched ones with a Zipf-like skew towards the hottest. *)
type st = {
  rng : Random.State.t;
  hot : (string, string array) Hashtbl.t;
  touched : (string, string list) Hashtbl.t;  (** hottest first *)
}

let hot st t = Hashtbl.find st.hot t
let touched st t = Option.value ~default:[] (Hashtbl.find_opt st.touched t)

let fresh_col st t =
  let used = touched st t in
  let c = Array.to_list (hot st t) |> List.find (fun c -> not (List.mem c used)) in
  let rank x = let r = ref 0 in Array.iteri (fun i y -> if y = x then r := i) (hot st t); !r in
  Hashtbl.replace st.touched t (List.sort (fun a b -> compare (rank a) (rank b)) (c :: used));
  { tbl = t; name = c }

(* a touched column not in [avoid], Zipf(1) over the hotness rank *)
let warm_col st t ~avoid =
  let cands = List.filter (fun c -> not (List.mem c avoid)) (touched st t) in
  let w = List.mapi (fun i c -> (1. /. float (i + 1), c)) cands in
  let total = List.fold_left (fun a (x, _) -> a +. x) 0. w in
  let r = Random.State.float st.rng total in
  let rec pick acc = function
    | [ (_, c) ] -> c
    | (x, c) :: tl -> if r < acc +. x then c else pick (acc +. x) tl
    | [] -> invalid_arg "warm_col: no touched column"
  in
  { tbl = t; name = pick 0. w }

(* [sel] of the uniform [0, 1e9) values pass [c < k]; a 2% jitter keeps
   constants distinct without moving the work per query *)
let below st sel = I (int_of_float (sel *. 1e9 *. (0.99 +. (0.02 *. Random.State.float st.rng 1.))))
let above st sel = I (int_of_float ((1. -. sel) *. 1e9 *. (0.99 +. (0.02 *. Random.State.float st.rng 1.))))

(* A slot names the query shape and which of its columns are new to the
   session ([true]) or re-used; the composition of every session is thus
   fixed, and only columns and constants vary with the seed. *)
type shape =
  | Range of bool * bool * bool  (** MAX(a), SUM(b) WHERE f < k: a, b, f *)
  | Conj of bool  (** COUNT, SUM(a), AVG(a) WHERE f1 < k1 AND f2 > k2: a new? *)
  | Topk of bool  (** a, b WHERE f < k ORDER BY a, b DESC LIMIT 10: a new? *)
  | Join of bool  (** first join of the session? *)

let pick st t fresh ~avoid = if fresh then fresh_col st t else warm_col st t ~avoid

let make_query st (tname, shape, sel) =
  let t30 = Data.table_name T30 and t30s = Data.table_name T30s in
  let t = Data.table_name tname in
  match shape with
  | Range (fa, fb, ff) ->
    let f = pick st t ff ~avoid:[] in
    let a = pick st t fa ~avoid:[ f.name ] in
    let b = pick st t fb ~avoid:[ f.name; a.name ] in
    { from = t; join = None; where = Some (Cmp (Lt, f, below st sel)); select = Aggs [ Max a; Sum b; Count_star ] }
  | Conj fa ->
    let f1 = warm_col st t ~avoid:[] in
    let f2 = warm_col st t ~avoid:[ f1.name ] in
    let a = pick st t fa ~avoid:[ f1.name; f2.name ] in
    {
      from = t;
      join = None;
      where = Some (And (Cmp (Lt, f1, below st (sqrt sel)), Cmp (Gt, f2, above st (sqrt sel))));
      select = Aggs [ Count_star; Sum a; Avg a ];
    }
  | Topk fa ->
    let f = warm_col st t ~avoid:[] in
    let a = pick st t fa ~avoid:[ f.name ] in
    let b = warm_col st t ~avoid:[ f.name; a.name ] in
    { from = t; join = None; where = Some (Cmp (Lt, f, below st sel)); select = Top ([ a; b ], 10) }
  | Join first ->
    (* the key is the hottest t30 column; the first join touches t30s *)
    let key = List.hd (touched st t30) in
    let f = warm_col st t30 ~avoid:[ key ] in
    let b =
      if first then begin
        Hashtbl.replace st.touched t30s [ key ];
        fresh_col st t30s
      end
      else warm_col st t30s ~avoid:[ key ]
    in
    {
      from = t30;
      join = Some (t30s, key);
      where = Some (Cmp (Lt, f, below st sel));
      select = Aggs [ Count_star; Sum b; Max { f with name = key } ];
    }

(* 40 queries: 1 first, 2 whole-table first touches (t120, t30s), 11
   single-new-column queries and 26 re-use queries. *)
let slots : (Data.table * shape * float) list =
  let r = Range (false, false, false) in
  [
    (T30, Range (true, true, true), 0.5);
    (T30, r, 0.1); (T30, Conj false, 0.3); (T30, Topk true, 0.05); (T30, r, 0.2);
    (T120, Range (true, true, true), 0.5);
    (T120, r, 0.1); (T30, Join true, 0.1); (T30, Conj true, 0.2); (T120, Conj false, 0.3);
    (T30, Range (false, false, true), 0.3); (T30, Topk false, 0.02); (T120, Topk true, 0.05);
    (T30, Join false, 0.05); (T120, r, 0.2); (T30, Conj false, 0.1); (T120, Range (true, false, false), 0.1);
    (T30, r, 0.4); (T120, Conj false, 0.2); (T30, Topk false, 0.1); (T120, Range (false, false, true), 0.3);
    (T30, r, 0.2); (T30, Conj true, 0.3); (T120, Topk false, 0.02); (T30, r, 0.05);
    (T120, Conj true, 0.1); (T30, Conj false, 0.5); (T120, r, 0.3); (T30, Topk true, 0.1);
    (T30, Join false, 0.1); (T120, Topk false, 0.05); (T30, r, 0.15); (T120, Range (true, false, false), 0.2);
    (T30, Conj false, 0.2); (T120, r, 0.05); (T30, r, 0.3); (T120, Conj false, 0.4);
    (T30, Range (false, true, false), 0.1); (T120, Topk false, 0.1); (T30, r, 0.25);
  ]

(* HEP block closing each binary session: particle cuts, particle-event
   joins and GROUP BY run_number (pt is exponential with mean 25) *)
let hep_block rng =
  let pt () = I (10 + Random.State.int rng 30) in
  let ev = "h_events" in
  let c t n = { tbl = t; name = n } in
  let jn coll where select = { from = coll; join = Some (ev, "event_id"); where = Some where; select } in
  [
    { from = "h_muons"; join = None; where = Some (Cmp (Gt, c "h_muons" "pt", pt ())); select = Aggs [ Count_star; Avg (c "h_muons" "pt"); Max (c "h_muons" "eta") ] };
    jn "h_muons" (Cmp (Lt, c ev "run_number", I (8 + Random.State.int rng 48))) (Aggs [ Count_star; Sum (c "h_muons" "pt") ]);
    jn "h_jets" (Cmp (Gt, c "h_jets" "pt", pt ())) (Group (c ev "run_number", [ Count_star; Max (c "h_jets" "pt") ]));
    { from = "h_muons"; join = None; where = Some (And (Cmp (Gt, c "h_muons" "pt", pt ()), Cmp (Lt, c "h_muons" "eta", I 0))); select = Aggs [ Count_star; Min (c "h_muons" "phi") ] };
    { from = ev; join = None; where = Some (Cmp (Lt, c ev "event_id", I (1000 + Random.State.int rng 30_000))); select = Group (c ev "run_number", [ Count_star; Max (c ev "event_id") ]) };
    { from = "h_muons"; join = None; where = Some (Cmp (Gt, c "h_muons" "pt", pt ())); select = Aggs [ Count_star; Avg (c "h_muons" "pt"); Max (c "h_muons" "eta") ] };
    jn "h_electrons" (Cmp (Gt, c "h_electrons" "pt", pt ())) (Aggs [ Count_star; Avg (c "h_electrons" "pt") ]);
    jn "h_muons" (Cmp (Lt, c ev "run_number", I (8 + Random.State.int rng 48))) (Aggs [ Count_star; Sum (c "h_muons" "pt") ]);
  ]

let session ~seed ~source ~index =
  let rng = Random.State.make [| seed; 0x5e55; index |] in
  let st = { rng; hot = Hashtbl.create 4; touched = Hashtbl.create 4 } in
  List.iter
    (fun tb ->
      let n = Array.length (Data.dtypes tb) in
      let names = Array.init n (Data.col_name tb) in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = names.(i) in
        names.(i) <- names.(j);
        names.(j) <- x
      done;
      (* The table's last column is the third new column of its first
         touch (the first of t30s, whose key comes from t30), so every
         first touch tokenizes whole rows and costs the same in every
         session, whatever the seed picks. *)
      let last = Data.col_name tb (n - 1) in
      let rest = List.filter (( <> ) last) (Array.to_list names) in
      let at = if tb = T30s then 0 else 2 in
      let order = List.filteri (fun i _ -> i < at) rest @ (last :: List.filteri (fun i _ -> i >= at) rest) in
      Hashtbl.replace st.hot (Data.table_name tb) (Array.of_list order))
    [ Data.T30; T30s; T120 ];
  let qs = List.map (make_query st) slots in
  match source with Csv_files -> qs | Fwb_files -> qs @ hep_block rng

(* ---------- the served request mix ---------- *)

let log_col n = { tbl = "log"; name = n }

(* Repeated dashboard statements: after each append one priming pass
   executes them (cache misses), every later copy in the epoch is a
   result-cache hit. The first one reads every column of every row, so
   the post-append rescan lands on it alone and the rest of the epoch
   runs over cached columns. *)
let dashboards ~seed =
  let rng = Random.State.make [| seed; 0xda5 |] in
  let c = log_col in
  [
    { from = "log"; join = None; where = None; select = Aggs [ Count_star; Min (c "status"); Avg (c "latency"); Sum (c "bytes"); Max (c "user"); Max (c "id"); Count (c "region") ] };
    { from = "log"; join = None; where = None; select = Group (c "region", [ Count_star; Sum (c "bytes"); Avg (c "latency") ]) };
    { from = "log"; join = None; where = Some (Cmp (Gt, c "latency", I (60 + Random.State.int rng 60))); select = Group (c "status", [ Count_star; Max (c "latency") ]) };
    { from = "log"; join = None; where = Some (Cmp (Eq, c "region", S Data.regions.(Random.State.int rng 8))); select = Aggs [ Count_star; Avg (c "bytes"); Min (c "latency") ] };
  ]

(* A distinct ad-hoc statement: its constants embed (session, epoch,
   index), so no two requests of a run share text or result. *)
let adhoc ~seed ~session ~epoch ~index =
  let rng = Random.State.make [| seed; 0xad; session; epoch; index |] in
  let c = log_col in
  (* always true: makes the text unique without moving the work *)
  let uniq = Cmp (Lt, c "id", I (1_000_000_000 + (((epoch * 2) + session) * 64) + index)) in
  let k n = I (Random.State.int rng n) in
  let where, select =
    match Random.State.int rng 3 with
    | 0 ->
      ( And (And (Cmp (Lt, c "latency", I (5 + Random.State.int rng 80)), Cmp (Lt, c "user", k 100_000)), uniq),
        Aggs [ Count_star; Sum (c "bytes"); Avg (c "latency") ] )
    | 1 ->
      ( And (Or (Cmp (Ge, c "bytes", k 60_000), Cmp (Eq, c "status", I Data.statuses.(Random.State.int rng 16))), uniq),
        Aggs [ Count_star; Max (c "user"); Count (c "latency") ] )
    | _ ->
      (* user > k keeps at least 10% of the users: the engine raises
         Invalid_argument on a GROUP BY whose input is empty *)
      ( And (And (Cmp (Gt, c "user", k 90_000), Cmp (Le, c "status", I 304)), uniq),
        Group (c "region", [ Count_star; Sum (c "bytes") ]) )
  in
  { from = "log"; join = None; where = Some where; select }

type request = Dashboard of int | Adhoc of int

(* Per session and epoch, two rounds separated by a barrier: 20 dashboard
   copies in a seeded order, then 4 ad-hoc statements. Hits thus never
   queue behind an executing miss, and concurrent misses meet in shared
   scans. With the 4 priming requests, hits are 77% of requests, so the
   median falls inside them, and rescans 1.9%, so the 99th percentile
   falls inside those. *)
let rounds ~seed ~session ~epoch =
  let rng = Random.State.make [| seed; 0xe9; session; epoch |] in
  let d = Array.init 20 (fun i -> Dashboard (i mod 4)) in
  for i = Array.length d - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = d.(i) in
    d.(i) <- d.(j);
    d.(j) <- x
  done;
  [ Array.to_list d; List.init 4 (fun i -> Adhoc i) ]

let request_query ~seed ~session ~epoch = function
  | Dashboard i -> List.nth (dashboards ~seed) i
  | Adhoc index -> adhoc ~seed ~session ~epoch ~index
