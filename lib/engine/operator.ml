open Raw_vector

type t = { next_fn : unit -> Chunk.t option; close_fn : unit -> unit }

(* growable int buffer for join match indexes *)
module Buffer_idx = struct
  type t = { mutable a : int array; mutable n : int }

  let create capacity = { a = Array.make capacity 0; n = 0 }

  let grow t =
    let a = Array.make (max 16 (2 * Array.length t.a)) 0 in
    Array.blit t.a 0 a 0 t.n;
    t.a <- a

  let add t x =
    if t.n >= Array.length t.a then grow t;
    Array.unsafe_set t.a t.n x;
    t.n <- t.n + 1

  let length t = t.n
  let contents t = if t.n = Array.length t.a then t.a else Array.sub t.a 0 t.n
end

let default_chunk_rows = 4096

let next t = t.next_fn ()
let close t = t.close_fn ()

let of_fn ~next ?(close = fun () -> ()) () = { next_fn = next; close_fn = close }

let of_chunks chunks =
  let rest = ref chunks in
  of_fn ()
    ~next:(fun () ->
      match !rest with
      | [] -> None
      | c :: tl ->
        rest := tl;
        Some c)

let of_chunk ~chunk_rows chunk =
  let n = Chunk.n_rows chunk in
  if n = 0 then of_chunks [ chunk ]
  else
    let pos = ref 0 in
    of_fn () ~next:(fun () ->
        if !pos >= n then None
        else begin
          let len = min chunk_rows (n - !pos) in
          let slice = Chunk.slice chunk !pos len in
          pos := !pos + len;
          Some slice
        end)

let defer make =
  let op = lazy (make ()) in
  of_fn ()
    ~next:(fun () -> (Lazy.force op).next_fn ())
    ~close:(fun () -> if Lazy.is_val op then (Lazy.force op).close_fn ())

let empty = { next_fn = (fun () -> None); close_fn = (fun () -> ()) }

let rec next_nonempty input =
  match input.next_fn () with
  | None -> None
  | Some c when Chunk.n_rows c = 0 -> next_nonempty input
  | some -> some

let filter pred input =
  of_fn () ~close:input.close_fn ~next:(fun () ->
      (* keep pulling until a chunk survives the filter, to avoid emitting
         a long run of empty chunks at low selectivity *)
      let rec go () =
        match next_nonempty input with
        | None -> None
        | Some c ->
          let sel = Expr.eval_filter pred c None in
          if Sel.length sel = 0 then go () else Some (Chunk.take c sel)
      in
      go ())

let count_into key input =
  of_fn () ~close:input.close_fn ~next:(fun () ->
      match input.next_fn () with
      | None -> None
      | Some c ->
        Raw_storage.Io_stats.add key (Chunk.n_rows c);
        Some c)

let project exprs input =
  of_fn () ~close:input.close_fn ~next:(fun () ->
      match input.next_fn () with
      | None -> None
      | Some c -> Some (Chunk.of_columns (List.map (fun e -> Expr.eval e c) exprs)))

let map_chunks f input =
  of_fn () ~close:input.close_fn ~next:(fun () ->
      match input.next_fn () with
      | None -> None
      | Some c -> Some (f c))

let limit n input =
  let remaining = ref n in
  of_fn () ~close:input.close_fn ~next:(fun () ->
      if !remaining <= 0 then None
      else
        match next_nonempty input with
        | None -> None
        | Some c ->
          let take = min (Chunk.n_rows c) !remaining in
          remaining := !remaining - take;
          if take = Chunk.n_rows c then Some c else Some (Chunk.slice c 0 take))

let collect op =
  let chunks = ref [] in
  let rec go () =
    match op.next_fn () with
    | None -> ()
    | Some c ->
      chunks := c :: !chunks;
      go ()
  in
  go ();
  op.close_fn ();
  List.rev !chunks

let to_chunk op = Chunk.concat (collect op)

(* ---------- aggregation ---------- *)

let result_dtype (op : Kernels.agg) (v : Value.t) : Dtype.t =
  match op, Value.dtype v with
  | (Kernels.Count | Kernels.Count_distinct), _ -> Dtype.Int
  | Kernels.Avg, _ -> Dtype.Float
  | _, Some dt -> dt
  | _, None -> Dtype.Int (* NULL result; dtype is arbitrary *)

(* COUNT over a non-NULL constant — COUNT( * ) — counts rows; it never
   builds the constant column *)
let counts_rows ((op : Kernels.agg), (e : Expr.t)) =
  match op, e with
  | Kernels.Count, Expr.Const v -> not (Value.is_null v)
  | _ -> false

let aggregate specs input =
  let done_ = ref false in
  of_fn () ~close:input.close_fn ~next:(fun () ->
      if !done_ then None
      else begin
        done_ := true;
        let accs = List.map (fun (op, _) -> Kernels.acc_create op 1) specs in
        let rec drain () =
          match next_nonempty input with
          | None -> ()
          | Some c ->
            List.iter2
              (fun a spec ->
                if counts_rows spec then Kernels.acc_count_rows a (Chunk.n_rows c)
                else Kernels.acc_update a (Expr.eval (snd spec) c) None)
              accs specs;
            drain ()
        in
        drain ();
        input.close_fn ();
        let cols =
          List.map2
            (fun a (op, _) ->
              let v = Kernels.acc_result a 0 in
              Column.of_values (result_dtype op v) [ v ])
            accs specs
        in
        Some (Chunk.of_columns cols)
      end)

module String_table = Hashtbl.Make (String)

(* Each chunk first maps every row to its group id, then one typed loop
   per aggregate column folds the rows into their groups' slots. Ids run
   from 1 in first-seen order; slot 0 of every accumulator takes the NULL
   values (see {!Kernels.acc_update_groups}). A single Int key goes
   through a flat {!Int_table}, a single String key through a string
   table, any other key through boxed [Value.t list] keys. NULL keys form
   one group of their own. *)
let group_by ~keys ~aggs input =
  let done_ = ref false in
  of_fn () ~close:input.close_fn ~next:(fun () ->
      if !done_ then None
      else begin
        done_ := true;
        let accs = Array.of_list (List.map (fun (op, _) -> Kernels.acc_create op 1) aggs) in
        (* each group's key values, newest first *)
        let group_keys : Value.t list list ref = ref [] in
        let n_groups = ref 0 in
        let new_group key =
          group_keys := key :: !group_keys;
          incr n_groups;
          !n_groups
        in
        let null_group = ref 0 in
        let null_gid () =
          if !null_group = 0 then null_group := new_group [ Value.Null ];
          !null_group
        in
        let int_groups = Int_table.create 0 in
        let string_groups = String_table.create 16 in
        let value_groups : (Value.t list, int) Hashtbl.t = Hashtbl.create 16 in
        let gids = ref [||] in
        let assign key_cols n =
          if Array.length !gids < n then gids := Array.make n 0;
          let gids = !gids in
          (match key_cols with
           | [ kc ] when Column.dtype kc = Dtype.Int ->
             let ks = Column.int_array kc in
             let add k =
               let g = new_group [ Value.Int k ] in
               Int_table.replace int_groups k g;
               g
             in
             (match Column.validity kc with
              | None ->
                for i = 0 to n - 1 do
                  let k = ks.(i) in
                  let g = Int_table.find int_groups k in
                  gids.(i) <- (if g > 0 then g else add k)
                done
              | Some v ->
                for i = 0 to n - 1 do
                  let k = ks.(i) in
                  let g = Int_table.find int_groups k in
                  gids.(i) <-
                    (if Bytes.get v i = '\000' then null_gid () else if g > 0 then g else add k)
                done)
           | [ kc ] when Column.dtype kc = Dtype.String ->
             let ks = Column.string_array kc in
             let gid k =
               match String_table.find_opt string_groups k with
               | Some g -> g
               | None ->
                 let g = new_group [ Value.String k ] in
                 String_table.replace string_groups k g;
                 g
             in
             (match Column.validity kc with
              | None -> for i = 0 to n - 1 do gids.(i) <- gid ks.(i) done
              | Some v ->
                for i = 0 to n - 1 do
                  gids.(i) <- (if Bytes.get v i = '\000' then null_gid () else gid ks.(i))
                done)
           | _ ->
             for i = 0 to n - 1 do
               let key = List.map (fun col -> Column.get col i) key_cols in
               gids.(i) <-
                 (match Hashtbl.find_opt value_groups key with
                  | Some g -> g
                  | None ->
                    let g = new_group key in
                    Hashtbl.replace value_groups key g;
                    g)
             done);
          gids
        in
        let rec drain () =
          match next_nonempty input with
          | None -> ()
          | Some c ->
            let n = Chunk.n_rows c in
            let gids = assign (List.map (fun e -> Expr.eval e c) keys) n in
            List.iteri
              (fun j spec ->
                let a = accs.(j) in
                Kernels.acc_reserve a (!n_groups + 1);
                if counts_rows spec then Kernels.acc_count_groups a gids n
                else Kernels.acc_update_groups a (Expr.eval (snd spec) c) gids n)
              aggs;
            drain ()
        in
        drain ();
        input.close_fn ();
        (* no groups still yields the key and aggregate columns, empty *)
        let typed_column vs dtype_of =
          let dt =
            match List.find_opt (fun v -> not (Value.is_null v)) vs with
            | Some v -> dtype_of v
            | None -> Dtype.Int
          in
          Column.of_values dt vs
        in
        let keys_in_order = List.rev !group_keys in
        let key_cols =
          List.mapi
            (fun k _ ->
              typed_column
                (List.map (fun key -> List.nth key k) keys_in_order)
                (fun v -> Option.get (Value.dtype v)))
            keys
        in
        let agg_cols =
          List.mapi
            (fun j (op, _) ->
              typed_column
                (List.init !n_groups (fun g -> Kernels.acc_result accs.(j) (g + 1)))
                (result_dtype op))
            aggs
        in
        Some (Chunk.of_columns (key_cols @ agg_cols))
      end)

(* ---------- join ---------- *)

(* Int build keys live in one flat {!Int_table}: a key maps to the first
   build row with that key, shifted left one bit, the low bit set when
   [next] chains more rows. Chains run in ascending build-row order. *)
type int_table = { heads : Int_table.t; next : int array }

let int_table_build keys (col : Column.t) =
  let n = Array.length keys in
  let t = { heads = Int_table.create n; next = Array.make n (-1) } in
  let all_valid = Column.all_valid col in
  (* insert back to front: pushing at the head leaves chains ascending *)
  for i = n - 1 downto 0 do
    if all_valid || Column.is_valid col i then begin
      let k = keys.(i) in
      let h = Int_table.find t.heads k in
      if h < 0 then Int_table.replace t.heads k (i lsl 1)
      else begin
        t.next.(i) <- h lsr 1;
        Int_table.replace t.heads k ((i lsl 1) lor 1)
      end
    end
  done;
  t

(* every build row matching [k], ascending, paired with probe row [i] *)
let int_table_probe t k i pidx bidx =
  let h = Int_table.find t.heads k in
  if h >= 0 then begin
    Buffer_idx.add pidx i;
    Buffer_idx.add bidx (h lsr 1);
    if h land 1 = 1 then begin
      let j = ref t.next.(h lsr 1) in
      while !j >= 0 do
        Buffer_idx.add pidx i;
        Buffer_idx.add bidx !j;
        j := t.next.(!j)
      done
    end
  end

(* Any other key type hashes boxed values. [norm] widens Int keys to Float
   when the two sides' key types differ, so the join matches exactly the
   pairs a numeric [=] would. *)
let gen_table_build norm (col : Column.t) =
  let table : (Value.t, int list) Hashtbl.t = Hashtbl.create 64 in
  for i = Column.length col - 1 downto 0 do
    match Column.get col i with
    | Value.Null -> ()
    | k ->
      let k = norm k in
      let prev = Option.value (Hashtbl.find_opt table k) ~default:[] in
      Hashtbl.replace table k (i :: prev)
  done;
  table

let widen = function Value.Int k -> Value.Float (float_of_int k) | v -> v

let hash_join ~build ~probe ~build_key ~probe_key =
  let build_side =
    lazy
      (let all = to_chunk build in
       let keys =
         if Chunk.n_rows all = 0 then None else Some (Expr.eval build_key all)
       in
       (all, keys))
  in
  let int_table = ref None and gen_table = ref None in
  (* index pairs of one probe chunk's matches, into buffers presized from
     the chunk (duplicate build keys may still grow them) *)
  let probe_chunk pc =
    let n = Chunk.n_rows pc in
    let pidx = Buffer_idx.create n and bidx = Buffer_idx.create n in
    (match snd (Lazy.force build_side) with
     | None -> ()
     | Some bkeys ->
       let pkeys = Expr.eval probe_key pc in
       (match Column.data bkeys, Column.data pkeys with
        | Column.Int_data bk, Column.Int_data pk ->
          let t =
            match !int_table with
            | Some t -> t
            | None ->
              let t = int_table_build bk bkeys in
              int_table := Some t;
              t
          in
          let all_valid = Column.all_valid pkeys in
          for i = 0 to n - 1 do
            if all_valid || Column.is_valid pkeys i then
              int_table_probe t pk.(i) i pidx bidx
          done
        | _ ->
          let mixed =
            match Column.dtype bkeys, Column.dtype pkeys with
            | Dtype.Int, Dtype.Float | Dtype.Float, Dtype.Int -> true
            | _ -> false
          in
          let norm = if mixed then widen else Fun.id in
          let table =
            match !gen_table with
            | Some (m, table) when m = mixed -> table
            | _ ->
              let table = gen_table_build norm bkeys in
              gen_table := Some (mixed, table);
              table
          in
          for i = 0 to n - 1 do
            match Column.get pkeys i with
            | Value.Null -> ()
            | k ->
              (match Hashtbl.find_opt table (norm k) with
               | Some matches ->
                 List.iter
                   (fun j ->
                     Buffer_idx.add pidx i;
                     Buffer_idx.add bidx j)
                   matches
               | None -> ())
          done));
    (pidx, bidx)
  in
  of_fn ()
    ~close:(fun () ->
      build.close_fn ();
      probe.close_fn ())
    ~next:(fun () ->
      let build_chunk = fst (Lazy.force build_side) in
      let rec go () =
        match next_nonempty probe with
        | None -> None
        | Some pc ->
          let pidx, bidx = probe_chunk pc in
          if Buffer_idx.length pidx = 0 then go ()
          else begin
            let pidx = Buffer_idx.contents pidx in
            let bidx = Buffer_idx.contents bidx in
            (* every probe row matched once, in order: its columns pass
               through as they are *)
            let pcols =
              let rec identity k = k < 0 || (pidx.(k) = k && identity (k - 1)) in
              if Array.length pidx = Chunk.n_rows pc && identity (Array.length pidx - 1)
              then Chunk.columns pc
              else Array.map (fun col -> Column.gather col pidx) (Chunk.columns pc)
            in
            let bcols =
              Array.map
                (fun col -> Column.gather col bidx)
                (Chunk.columns build_chunk)
            in
            Some (Chunk.create (Array.append pcols bcols))
          end
      in
      go ())

(* ---------- sort ---------- *)

(* One key column's order, extracted once: typed arrays compare unboxed.
   NULL sorts first as in {!Value.compare}, and DESC reverses the whole
   order, NULLs included. *)
let key_compare col dir =
  let cmp : int -> int -> int =
    match Column.data col with
    | Column.Int_data a -> fun i j -> Int.compare a.(i) a.(j)
    | Column.Float_data a -> fun i j -> Float.compare a.(i) a.(j)
    | Column.Bool_data a -> fun i j -> Bool.compare a.(i) a.(j)
    | Column.String_data a -> fun i j -> String.compare a.(i) a.(j)
  in
  let cmp =
    if Column.all_valid col then cmp
    else fun i j ->
      match Column.is_valid col i, Column.is_valid col j with
      | true, true -> cmp i j
      | false, false -> 0
      | false, true -> -1
      | true, false -> 1
  in
  match dir with `Asc -> cmp | `Desc -> fun i j -> cmp j i

(* The [k] smallest rows under the total order [cmp], in order: a max-heap
   of the best [k] so far, whose root is evicted by any smaller row. *)
let top_k cmp n k =
  let heap = Array.make k 0 and size = ref 0 in
  let swap a b =
    let x = heap.(a) in
    heap.(a) <- heap.(b);
    heap.(b) <- x
  in
  let rec up i =
    let p = (i - 1) / 2 in
    if i > 0 && cmp heap.(i) heap.(p) > 0 then begin swap i p; up p end
  in
  let rec down i =
    let l = (2 * i) + 1 in
    let r = l + 1 in
    let m = if l < !size && cmp heap.(l) heap.(i) > 0 then l else i in
    let m = if r < !size && cmp heap.(r) heap.(m) > 0 then r else m in
    if m <> i then begin swap i m; down m end
  in
  for row = 0 to n - 1 do
    if !size < k then begin
      heap.(!size) <- row;
      incr size;
      up (!size - 1)
    end
    else if cmp row heap.(0) < 0 then begin
      heap.(0) <- row;
      down 0
    end
  done;
  let out = Array.sub heap 0 !size in
  Array.sort cmp out;
  out

let sort ?limit:top ~by input =
  match top with
  | Some k when k <= 0 ->
    (* what LIMIT 0 over a sort does: the input is never pulled *)
    of_fn () ~close:input.close_fn ~next:(fun () -> None)
  | _ ->
    let done_ = ref false in
    of_fn () ~close:input.close_fn ~next:(fun () ->
        if !done_ then None
        else begin
          done_ := true;
          let all = to_chunk input in
          let n = Chunk.n_rows all in
          if n = 0 then (if top = None then Some all else None)
          else begin
            let keys =
              Array.of_list
                (List.map (fun (c, dir) -> key_compare (Chunk.column all c) dir) by)
            in
            let nk = Array.length keys in
            let rec cmp_from k i j =
              if k = nk then 0
              else
                let r = keys.(k) i j in
                if r <> 0 then r else cmp_from (k + 1) i j
            in
            let cmp = if nk = 1 then keys.(0) else cmp_from 0 in
            let idx =
              match top with
              | Some k when k < n ->
                (* row order breaks ties: a total order whose first k rows
                   are those of the stable sort *)
                top_k
                  (fun i j ->
                    let r = cmp i j in
                    if r <> 0 then r else Int.compare i j)
                  n k
              | _ ->
                let idx = Sel.range 0 n in
                Array.stable_sort cmp idx;
                idx
            in
            Some
              (Chunk.create
                 (Array.map (fun c -> Column.gather c idx) (Chunk.columns all)))
          end
        end)

(* ---------- consumers ---------- *)

let row_count op =
  let n = ref 0 in
  let rec go () =
    match op.next_fn () with
    | None -> ()
    | Some c ->
      n := !n + Chunk.n_rows c;
      go ()
  in
  go ();
  op.close_fn ();
  !n

let iter f op =
  let rec go () =
    match op.next_fn () with
    | None -> ()
    | Some c ->
      f c;
      go ()
  in
  go ();
  op.close_fn ()
