open Raw_vector

type t = { next_fn : unit -> Chunk.t option; close_fn : unit -> unit }

(* growable int buffer for join match indexes *)
module Buffer_idx = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 64 0; n = 0 }

  let add t x =
    if t.n >= Array.length t.a then begin
      let a = Array.make (2 * Array.length t.a) 0 in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n
  let contents t = Array.sub t.a 0 t.n
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

let union_all inputs =
  let rest = ref inputs in
  let rec pull () =
    match !rest with
    | [] -> None
    | op :: tl ->
      (match op.next_fn () with
       | Some c -> Some c
       | None ->
         op.close_fn ();
         rest := tl;
         pull ())
  in
  of_fn () ~next:pull ~close:(fun () -> List.iter (fun o -> o.close_fn ()) !rest)

(* ---------- aggregation ---------- *)

(* Incremental aggregation state. Numeric updates stay unboxed (the grouped
   path calls {!acc_update_at} once per row); bool/string extremes fall back
   to boxed values. *)
type acc = {
  op : Kernels.agg;
  mutable count : int; (* valid values seen *)
  mutable sum : float;
  mutable i_best : int;
  mutable f_best : float;
  mutable v_best : Value.t; (* Max/Min over bool/string columns *)
  mutable kind : [ `None | `Int | `Float | `Other ];
  distinct : (Value.t, unit) Hashtbl.t Lazy.t; (* COUNT DISTINCT *)
}

let acc_create op =
  { op; count = 0; sum = 0.; i_best = 0; f_best = 0.; v_best = Value.Null;
    kind = `None; distinct = lazy (Hashtbl.create 16) }

(* one-row update, typed; [i] must be a valid row of [col] *)
let acc_update_at a (col : Column.t) i =
  match Column.data col with
  | Column.Int_data arr ->
    let x = arr.(i) in
    (match a.op with
     | Kernels.Count -> ()
     | Kernels.Count_distinct ->
       Hashtbl.replace (Lazy.force a.distinct) (Value.Int x) ()
     | Kernels.Sum | Kernels.Avg -> a.sum <- a.sum +. float_of_int x
     | Kernels.Max -> if a.kind = `None || x > a.i_best then a.i_best <- x
     | Kernels.Min -> if a.kind = `None || x < a.i_best then a.i_best <- x);
    a.kind <- `Int;
    a.count <- a.count + 1
  | Column.Float_data arr ->
    let x = arr.(i) in
    (match a.op with
     | Kernels.Count -> ()
     | Kernels.Count_distinct ->
       Hashtbl.replace (Lazy.force a.distinct) (Value.Float x) ()
     | Kernels.Sum | Kernels.Avg -> a.sum <- a.sum +. x
     | Kernels.Max -> if a.kind = `None || x > a.f_best then a.f_best <- x
     | Kernels.Min -> if a.kind = `None || x < a.f_best then a.f_best <- x);
    a.kind <- `Float;
    a.count <- a.count + 1
  | Column.Bool_data _ | Column.String_data _ ->
    let v = Column.get col i in
    (match a.op with
     | Kernels.Count -> ()
     | Kernels.Count_distinct -> Hashtbl.replace (Lazy.force a.distinct) v ()
     | Kernels.Sum | Kernels.Avg ->
       invalid_arg "aggregate: SUM/AVG over non-numeric column"
     | Kernels.Max | Kernels.Min ->
       if Value.is_null a.v_best then a.v_best <- v
       else
         let c = Value.compare v a.v_best in
         let take = match a.op with Kernels.Max -> c > 0 | _ -> c < 0 in
         if take then a.v_best <- v);
    a.kind <- `Other;
    a.count <- a.count + 1

(* whole-column update for the scalar (ungrouped) path *)
let acc_update a (col : Column.t) =
  let n = Column.length col in
  if Column.all_valid col then
    for i = 0 to n - 1 do
      acc_update_at a col i
    done
  else
    for i = 0 to n - 1 do
      if Column.is_valid col i then acc_update_at a col i
    done

let acc_result a : Value.t =
  match a.op with
  | Kernels.Count -> Value.Int a.count
  | Kernels.Count_distinct ->
    Value.Int (if Lazy.is_val a.distinct then Hashtbl.length (Lazy.force a.distinct) else 0)
  | Kernels.Avg ->
    if a.count = 0 then Value.Null else Value.Float (a.sum /. float_of_int a.count)
  | Kernels.Sum ->
    (match a.kind with
     | `None -> Value.Null
     | `Int -> Value.Int (int_of_float a.sum)
     | `Float | `Other -> Value.Float a.sum)
  | Kernels.Max | Kernels.Min ->
    (match a.kind with
     | `None -> Value.Null
     | `Int -> Value.Int a.i_best
     | `Float -> Value.Float a.f_best
     | `Other -> a.v_best)

let result_dtype (op : Kernels.agg) (v : Value.t) : Dtype.t =
  match op, Value.dtype v with
  | (Kernels.Count | Kernels.Count_distinct), _ -> Dtype.Int
  | Kernels.Avg, _ -> Dtype.Float
  | _, Some dt -> dt
  | _, None -> Dtype.Int (* NULL result; dtype is arbitrary *)

let aggregate specs input =
  let done_ = ref false in
  of_fn () ~close:input.close_fn ~next:(fun () ->
      if !done_ then None
      else begin
        done_ := true;
        let accs = List.map (fun (op, _) -> acc_create op) specs in
        let rec drain () =
          match input.next_fn () with
          | None -> ()
          | Some c ->
            List.iter2
              (fun a (_, e) -> if Chunk.n_rows c > 0 then acc_update a (Expr.eval e c))
              accs specs;
            drain ()
        in
        drain ();
        input.close_fn ();
        let cols =
          List.map2
            (fun a (op, _) ->
              let v = acc_result a in
              Column.of_values (result_dtype op v) [ v ])
            accs specs
        in
        Some (Chunk.of_columns cols)
      end)

let group_by ~keys ~aggs input =
  let done_ = ref false in
  of_fn () ~close:input.close_fn ~next:(fun () ->
      if !done_ then None
      else begin
        done_ := true;
        (* first-seen group order; each group holds (key values, accs) *)
        let order : (Value.t list * acc array) list ref = ref [] in
        let new_group key =
          let a = Array.of_list (List.map (fun (op, _) -> acc_create op) aggs) in
          order := (key, a) :: !order;
          a
        in
        let update_row accs agg_cols i =
          Array.iteri
            (fun j col ->
              if Column.is_valid col i then acc_update_at accs.(j) col i)
            agg_cols
        in
        (* fast path: single Int key column, hashed unboxed *)
        let int_groups : (int, acc array) Hashtbl.t = Hashtbl.create 256 in
        let null_group : acc array option ref = ref None in
        let generic_groups : (Value.t list, acc array) Hashtbl.t =
          Hashtbl.create 64
        in
        let rec drain () =
          match input.next_fn () with
          | None -> ()
          | Some c when Chunk.n_rows c = 0 -> drain ()
          | Some c ->
            let key_cols = List.map (fun e -> Expr.eval e c) keys in
            let agg_cols =
              Array.of_list (List.map (fun (_, e) -> Expr.eval e c) aggs)
            in
            (match key_cols with
             | [ kc ] when Column.dtype kc = Dtype.Int ->
               let ks = Column.int_array kc in
               let all_valid = Column.all_valid kc in
               for i = 0 to Chunk.n_rows c - 1 do
                 let accs =
                   if all_valid || Column.is_valid kc i then begin
                     let k = ks.(i) in
                     match Hashtbl.find_opt int_groups k with
                     | Some a -> a
                     | None ->
                       let a = new_group [ Value.Int k ] in
                       Hashtbl.replace int_groups k a;
                       a
                   end
                   else
                     match !null_group with
                     | Some a -> a
                     | None ->
                       let a = new_group [ Value.Null ] in
                       null_group := Some a;
                       a
                 in
                 update_row accs agg_cols i
               done
             | _ ->
               for i = 0 to Chunk.n_rows c - 1 do
                 let key = List.map (fun col -> Column.get col i) key_cols in
                 let accs =
                   match Hashtbl.find_opt generic_groups key with
                   | Some a -> a
                   | None ->
                     let a = new_group key in
                     Hashtbl.replace generic_groups key a;
                     a
                 in
                 update_row accs agg_cols i
               done);
            drain ()
        in
        drain ();
        input.close_fn ();
        (* no groups still yields the key and aggregate columns, empty *)
        let groups_in_order = List.rev !order in
        let n_keys = List.length keys in
        let key_cols =
          List.init n_keys (fun k ->
              let vs =
                List.map (fun (key, _) -> List.nth key k) groups_in_order
              in
              let dt =
                match List.find_opt (fun v -> not (Value.is_null v)) vs with
                | Some v -> Option.get (Value.dtype v)
                | None -> Dtype.Int
              in
              Column.of_values dt vs)
        in
        let agg_cols =
          List.mapi
            (fun j (op, _) ->
              let vs =
                List.map (fun (_, accs) -> acc_result accs.(j)) groups_in_order
              in
              let dt =
                match List.find_opt (fun v -> not (Value.is_null v)) vs with
                | Some v -> result_dtype op v
                | None -> Dtype.Int
              in
              Column.of_values dt vs)
            aggs
        in
        Some (Chunk.of_columns (key_cols @ agg_cols))
      end)

(* ---------- join ---------- *)

let hash_join ~build ~probe ~build_key ~probe_key =
  (* Integer keys (the common case: row ids, foreign keys) are hashed
     unboxed; everything else goes through Value.t. *)
  let int_table : (int, int list) Hashtbl.t = Hashtbl.create 1024 in
  let gen_table : (Value.t, int list) Hashtbl.t = Hashtbl.create 64 in
  let build_rows : Chunk.t option ref = ref None in
  let built = ref false in
  let do_build () =
    let chunks = ref [] in
    let rec drain () =
      match build.next_fn () with
      | None -> ()
      | Some c ->
        chunks := c :: !chunks;
        drain ()
    in
    drain ();
    build.close_fn ();
    let all = Chunk.concat (List.rev !chunks) in
    build_rows := Some all;
    if Chunk.n_rows all > 0 then begin
      let keys = Expr.eval build_key all in
      (match Column.data keys with
       | Column.Int_data ks ->
         for i = 0 to Chunk.n_rows all - 1 do
           if Column.is_valid keys i then begin
             let k = ks.(i) in
             let prev = Option.value (Hashtbl.find_opt int_table k) ~default:[] in
             Hashtbl.replace int_table k (i :: prev)
           end
         done;
         Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) int_table
       | _ ->
         for i = 0 to Chunk.n_rows all - 1 do
           match Column.get keys i with
           | Value.Null -> ()
           | k ->
             let prev = Option.value (Hashtbl.find_opt gen_table k) ~default:[] in
             Hashtbl.replace gen_table k (i :: prev)
         done;
         Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) gen_table)
    end;
    built := true
  in
  of_fn ()
    ~close:(fun () ->
      build.close_fn ();
      probe.close_fn ())
    ~next:(fun () ->
      if not !built then do_build ();
      let build_chunk = Option.get !build_rows in
      let rec go () =
        match next_nonempty probe with
        | None -> None
        | Some pc ->
          let keys = Expr.eval probe_key pc in
          let pidx = Buffer_idx.create () and bidx = Buffer_idx.create () in
          let emit i matches =
            List.iter
              (fun j ->
                Buffer_idx.add pidx i;
                Buffer_idx.add bidx j)
              matches
          in
          (match Column.data keys with
           | Column.Int_data ks when Hashtbl.length gen_table = 0 ->
             for i = 0 to Chunk.n_rows pc - 1 do
               if Column.is_valid keys i then
                 match Hashtbl.find_opt int_table ks.(i) with
                 | Some matches -> emit i matches
                 | None -> ()
             done
           | _ ->
             for i = 0 to Chunk.n_rows pc - 1 do
               match Column.get keys i with
               | Value.Null -> ()
               | Value.Int k when Hashtbl.length gen_table = 0 ->
                 (match Hashtbl.find_opt int_table k with
                  | Some matches -> emit i matches
                  | None -> ())
               | k ->
                 (match Hashtbl.find_opt gen_table k with
                  | Some matches -> emit i matches
                  | None -> ())
             done);
          if Buffer_idx.length pidx = 0 then go ()
          else begin
            let pidx = Buffer_idx.contents pidx in
            let bidx = Buffer_idx.contents bidx in
            let pcols =
              Array.map (fun col -> Column.gather col pidx) (Chunk.columns pc)
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

let sort ~by input =
  let done_ = ref false in
  of_fn () ~close:input.close_fn ~next:(fun () ->
      if !done_ then None
      else begin
        done_ := true;
        let chunks = ref [] in
        let rec drain () =
          match input.next_fn () with
          | None -> ()
          | Some c ->
            chunks := c :: !chunks;
            drain ()
        in
        drain ();
        input.close_fn ();
        let all = Chunk.concat (List.rev !chunks) in
        let n = Chunk.n_rows all in
        if n = 0 then Some all
        else begin
          let idx = Array.init n (fun i -> i) in
          let cmp i j =
            let rec go = function
              | [] -> Stdlib.compare i j (* stability tiebreak *)
              | (c, dir) :: rest ->
                let col = Chunk.column all c in
                let r = Value.compare (Column.get col i) (Column.get col j) in
                let r = match dir with `Asc -> r | `Desc -> -r in
                if r <> 0 then r else go rest
            in
            go by
          in
          Array.sort cmp idx;
          Some (Chunk.create (Array.map (fun c -> Column.gather c idx) (Chunk.columns all)))
        end
      end)

(* ---------- placeholder ---------- *)

module Placeholder = struct
  type op = t
  type nonrec t = { mutable attached : op option }

  let create () =
    let handle = { attached = None } in
    let op =
      of_fn ()
        ~next:(fun () ->
          match handle.attached with
          | None -> failwith "Operator.Placeholder: pulled before attach"
          | Some o -> o.next_fn ())
        ~close:(fun () ->
          match handle.attached with None -> () | Some o -> o.close_fn ())
    in
    (handle, op)

  let attach handle op =
    match handle.attached with
    | Some _ -> failwith "Operator.Placeholder.attach: already attached"
    | None -> handle.attached <- Some op

  let is_attached handle = Option.is_some handle.attached
end

(* ---------- consumers ---------- *)

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
