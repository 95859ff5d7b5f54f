open Raw_vector

type col_stats = { min_v : float; max_v : float; n_rows : int; n_valid : int }

type t = { cols : (string * int, col_stats) Hashtbl.t }

let create () = { cols = Hashtbl.create 32 }

let observe t ~table ~col column =
  let numeric =
    match Column.dtype column with
    | Dtype.Int | Dtype.Float -> true
    | Dtype.Bool | Dtype.String -> false
  in
  if numeric then begin
    let n = Column.length column in
    let mn = ref infinity and mx = ref neg_infinity and valid = ref 0 in
    let see x =
      incr valid;
      if x < !mn then mn := x;
      if x > !mx then mx := x
    in
    (match Column.data column with
     | Column.Int_data a ->
       for i = 0 to n - 1 do
         if Column.is_valid column i then see (float_of_int a.(i))
       done
     | Column.Float_data a ->
       for i = 0 to n - 1 do
         if Column.is_valid column i then see a.(i)
       done
     | Column.Bool_data _ | Column.String_data _ -> ());
    if !valid > 0 then
      Hashtbl.replace t.cols (table, col)
        { min_v = !mn; max_v = !mx; n_rows = n; n_valid = !valid }
  end

let get t ~table ~col = Hashtbl.find_opt t.cols (table, col)

let selectivity s (op : Kernels.cmp) x =
  let clamp v = Float.max 0. (Float.min 1. v) in
  let width = s.max_v -. s.min_v in
  if width <= 0. then
    (* constant column *)
    match op with
    | Kernels.Eq -> if x = s.min_v then 1. else 0.
    | Kernels.Ne -> if x = s.min_v then 0. else 1.
    | Kernels.Lt -> if s.min_v < x then 1. else 0.
    | Kernels.Le -> if s.min_v <= x then 1. else 0.
    | Kernels.Gt -> if s.min_v > x then 1. else 0.
    | Kernels.Ge -> if s.min_v >= x then 1. else 0.
  else
    let frac_below = clamp ((x -. s.min_v) /. width) in
    match op with
    | Kernels.Lt | Kernels.Le -> frac_below
    | Kernels.Gt | Kernels.Ge -> clamp (1. -. frac_below)
    | Kernels.Eq -> clamp (1. /. (width +. 1.))
    | Kernels.Ne -> clamp (1. -. (1. /. (width +. 1.)))

let clear t = Hashtbl.reset t.cols

let size t = Hashtbl.length t.cols
