open Raw_vector
open Raw_storage
open Raw_formats
module Metrics = Raw_obs.Metrics

type mode = Interpreted | Jit

let mode_to_string = function Interpreted -> "interp" | Jit -> "jit"

let template_key ~phase ~table ~sep ~needed ~tracked ~policy =
  Scan_kit.template_key "csv" ~phase ~table ~needed ~policy
    ~extra:
      [ ("sep", Printf.sprintf "%C" sep);
        ("tracked", String.concat "," (List.map string_of_int tracked)) ]

let source schema i = (Schema.field schema i).Schema.source_index

(* An interpreted conversion consumes one tokenized field [(pos, len)],
   looks the type up in the catalog and dispatches on it for every value. *)
let interp_convert buf schema i b p l =
  match Schema.dtype schema i with
  | Dtype.Int -> Builder.add_int b (Csv.parse_int buf p l)
  | Dtype.Float -> Builder.add_float b (Csv.parse_float buf p l)
  | Dtype.Bool -> Builder.add_bool b (Csv.parse_bool buf p l)
  | Dtype.String -> Builder.add_string b (Csv.parse_string buf p l)

(* Skip_row's validate-only conversion for a schema column the query does
   not read: decode and discard. Strings never fail, so they need none. *)
let validate buf (dt : Dtype.t) : (int -> int -> unit) option =
  match dt with
  | Int -> Some (fun p l -> ignore (Csv.parse_int buf p l))
  | Float -> Some (fun p l -> ignore (Csv.parse_float buf p l))
  | Bool -> Some (fun p l -> ignore (Csv.parse_bool buf p l))
  | String -> None

(* A JIT conversion reads its field from slot [k] of the row's split
   spans, with the data type chosen here, once per column: past the
   split, a field costs one call. It ignores its argument (unit in the
   seq loop, the row id in the fetch loop). *)
let jit_convert buf (dt : Dtype.t) b ~starts ~ends k : 'a -> unit =
  match dt with
  | Int ->
    fun _ ->
      let p = Array.unsafe_get starts k in
      Builder.add_int b (Csv.parse_int buf p (Array.unsafe_get ends k - p))
  | Float ->
    fun _ ->
      let p = Array.unsafe_get starts k in
      Builder.add_float b (Csv.parse_float buf p (Array.unsafe_get ends k - p))
  | Bool ->
    fun _ ->
      let p = Array.unsafe_get starts k in
      Builder.add_bool b (Csv.parse_bool buf p (Array.unsafe_get ends k - p))
  | String ->
    fun _ ->
      let p = Array.unsafe_get starts k in
      Builder.add_string b (Csv.parse_string buf p (Array.unsafe_get ends k - p))

(* Skip_row's validation over slot [k] (off the default path, so one
   more call per field is fine) *)
let jit_validate buf dt ~starts ~ends k =
  Option.map
    (fun f () ->
      let p = Array.unsafe_get starts k in
      f p (Array.unsafe_get ends k - p))
    (validate buf dt)

(* The Null_fill wrapper: a failed conversion is recorded against its
   source column and the row's byte offset, and becomes NULL. The parse
   raises before anything reaches the builder, so nothing to roll back. *)
let to_null ~origin ~col b (e : Scan_errors.sample) =
  Scan_errors.record ~offset:!origin ~field:col ~cause:e.cause;
  Builder.add_null b

let interp_conversion ~policy ~origin buf schema i b =
  let f = interp_convert buf schema i b in
  match (policy : Scan_errors.policy) with
  | Null_fill ->
    let col = source schema i in
    fun p l -> (try f p l with Scan_errors.Error e -> to_null ~origin ~col b e)
  | Fail_fast | Skip_row -> f

let jit_conversion ~policy ~origin buf schema i b ~starts ~ends k =
  let f = jit_convert buf (Schema.dtype schema i) b ~starts ~ends k in
  match (policy : Scan_errors.policy) with
  | Null_fill ->
    let col = source schema i in
    fun x -> (try f x with Scan_errors.Error e -> to_null ~origin ~col b e)
  | Fail_fast | Skip_row -> f

(* A reader consumes [tok] fields of a row, [built] of which produce a
   value; [col] is the source column it reads. The loops count work per
   row from these, so the readers stay free of bookkeeping. *)
type 'a reader = { read : 'a -> unit; col : int; tok : int; built : int }

let sum f rs = List.fold_left (fun a r -> a + f r) 0 rs

let report ~tokenized ~built =
  Metrics.add Metrics.csv_fields_tokenized tokenized;
  Metrics.add Metrics.csv_values_converted built;
  Metrics.add Metrics.scan_values_built built

(* What a scan does with each source column [0..last]: convert it into a
   builder (schema index [i]), validate it only (Skip_row), or nothing;
   and whether the positional map records it. Interpreted readers consult
   these tables for every field; JIT readers are specialised from them
   once. *)
type work = Convert of int * Builder.t | Validate of Dtype.t

let seq_readers ~mode ~policy ~origin ~buf ~schema ~cur ~pm ~work
    ~tracked_mask ~last =
  let touched c = Option.is_some work.(c) || tracked_mask.(c) in
  let built c = match work.(c) with Some (Convert _) -> 1 | _ -> 0 in
  match mode with
  | Interpreted ->
    (* the general-purpose operator: tokenizes field by field, and checks
       "is this column requested?" / "is it tracked?" on every field *)
    let convs =
      Array.map
        (function
          | Some (Convert (i, b)) ->
            Some (interp_conversion ~policy ~origin buf schema i b)
          | Some (Validate dt) -> validate buf dt
          | None -> None)
        work
    in
    let record col =
      match pm with
      | Some pm -> fun p l -> Posmap.Build.record pm ~col ~pos:p ~len:l
      | None -> fun _ _ -> ()
    in
    let field col () =
      if not (touched col) then Csv.Cursor.skip_field cur
      else begin
        let p, l = Csv.Cursor.next_field cur in
        if tracked_mask.(col) then record col p l;
        match convs.(col) with Some f -> f p l | None -> ()
      end
    in
    List.init (last + 1) (fun col ->
        { read = field col; col; tok = 1; built = built col })
  | Jit ->
    (* one word-at-a-time split of fields [0..last] per row, then one
       monomorphic closure per touched column reading its span; untouched
       columns cost nothing past the split *)
    let starts = Array.make (last + 1) 0 and ends = Array.make (last + 1) 0 in
    let read c =
      let conv =
        match work.(c) with
        | Some (Convert (i, b)) ->
          Some (jit_conversion ~policy ~origin buf schema i b ~starts ~ends c)
        | Some (Validate dt) -> jit_validate buf dt ~starts ~ends c
        | None -> None
      in
      match pm, conv with
      | Some pm, _ when tracked_mask.(c) -> (
        let record () =
          let p = Array.unsafe_get starts c in
          Posmap.Build.record pm ~col:c ~pos:p ~len:(Array.unsafe_get ends c - p)
        in
        match conv with
        | None -> record
        | Some f ->
          fun () ->
            record ();
            f ())
      | _, Some f -> f
      | _, None -> ignore
    in
    let rec go prev c acc =
      if c > last then
        (* a trailing untouched run (Skip_row's unvalidated strings) is
           still split, and counted as tokenized *)
        List.rev
          (if prev > last then acc
           else { read = ignore; col = last; tok = last - prev + 1; built = 0 } :: acc)
      else if not (touched c) then go prev (c + 1) acc
      else
        go (c + 1) (c + 1)
          ({ read = read c; col = c; tok = c - prev + 1; built = built c } :: acc)
    in
    if last < 0 then []
    else
      { read = (fun () -> Csv.Cursor.split cur (last + 1) starts ends);
        col = 0; tok = 0; built = 0 }
      :: go 0 0 []

(* The one sequential loop. [Skip_row] validates every schema column —
   row identity must not depend on which columns a query reads, or
   positional maps, cached row counts and the shred pool would disagree —
   and rolls a bad row's builder and posmap entries back; [record] says
   whether it also records the errors. Returns the kept row count. *)
let scan ~mode ~policy ?(record = true) ?range ~file ~sep ~schema ~needed
    ~tracked () =
  let buf = Mmap_file.bytes file in
  let pos = Option.fold ~none:0 ~some:fst range in
  let cur = Csv.Cursor.create ~sep ~pos ?limit:(Option.map snd range) file in
  let skip = policy = Scan_errors.Skip_row in
  let builders = List.map (fun i -> Builder.create ~capacity:1024 (Schema.dtype schema i)) needed in
  let all = List.init (Schema.arity schema) Fun.id in
  let last =
    List.fold_left max (-1)
      (tracked @ List.map (source schema) (if skip then all else needed))
  in
  let origin = ref pos in
  let work = Array.make (last + 1) None in
  if skip then
    List.iter
      (fun i ->
        match Schema.dtype schema i with
        | Dtype.String -> ()
        | dt -> work.(source schema i) <- Some (Validate dt))
      all;
  List.iter2 (fun i b -> work.(source schema i) <- Some (Convert (i, b))) needed builders;
  let tracked_mask = Array.make (last + 1) false in
  List.iter (fun c -> tracked_mask.(c) <- true) tracked;
  let pm = if tracked = [] then None else Some (Posmap.Build.create ~tracked) in
  let rs =
    Array.of_list
      (seq_readers ~mode ~policy ~origin ~buf ~schema ~cur ~pm ~work ~tracked_mask ~last)
  in
  let n_readers = Array.length rs in
  (* work of readers [0, j) of a row, for rows and rolled-back prefixes *)
  let upto f =
    let a = Array.make (n_readers + 1) 0 in
    Array.iteri (fun j r -> a.(j + 1) <- a.(j) + f r) rs;
    a
  in
  let tok = upto (fun r -> r.tok) and built = upto (fun r -> r.built) in
  let tick = Cancel.batch_checker (Cancel.current ()) in
  let n_rows = ref 0 and skipped = ref 0 in
  let extra_tok = ref 0 and extra_built = ref 0 in
  let k = ref 0 in
  while not (Csv.Cursor.at_eof cur) do
    tick ();
    origin := Csv.Cursor.pos cur;
    k := 0;
    match
      while !k < n_readers do
        rs.(!k).read ();
        incr k
      done
    with
    | () ->
      Csv.Cursor.skip_line cur;
      Option.iter Posmap.Build.end_row pm;
      incr n_rows
    | exception Scan_errors.Error e when skip ->
      if record then
        Scan_errors.record ~offset:!origin ~field:rs.(!k).col
          ~cause:e.Scan_errors.cause;
      (* the failing reader tokenized its field but built nothing *)
      extra_tok := !extra_tok + tok.(!k + 1);
      extra_built := !extra_built + built.(!k);
      List.iter (fun b -> Builder.truncate b !n_rows) builders;
      Option.iter Posmap.Build.abort_row pm;
      Csv.Cursor.skip_line cur;
      incr skipped
  done;
  report
    ~tokenized:((!n_rows * tok.(n_readers)) + !extra_tok)
    ~built:((!n_rows * built.(n_readers)) + !extra_built);
  if !skipped > 0 then Metrics.add Metrics.scan_rows_skipped !skipped;
  ( Array.of_list (List.map Builder.to_column builders),
    Option.map Posmap.Build.finish pm,
    !n_rows )

let seq_scan ~mode ?(policy = Scan_errors.Fail_fast) ?range ~file ~sep ~schema
    ~needed ~tracked () =
  let cols, pm, _ = scan ~mode ~policy ?range ~file ~sep ~schema ~needed ~tracked () in
  (cols, pm)

(* The catalog sizes a table once; the passes that produce data do the
   error reporting. *)
let count_valid_rows ?range ~file ~sep ~schema ?(record = false) () =
  let _, _, n =
    scan ~mode:Jit ~policy:Scan_errors.Skip_row ~record ?range ~file ~sep ~schema
      ~needed:[] ~tracked:[] ()
  in
  n

(* Each worker domain scans one row-aligned byte range against a private
   file view; posmap segments stitch without shifting (positions are
   absolute). Morsel boundaries are newlines, so they do not depend on row
   validity. *)
let par_scan ~mode ?policy ~parallelism ~file ~sep ~schema ~needed ~tracked () =
  let scan ?range file = seq_scan ~mode ?policy ?range ~file ~sep ~schema ~needed ~tracked () in
  match if parallelism <= 1 then [] else Csv.row_aligned_ranges file ~n:parallelism with
  | [] | [ _ ] -> scan file
  | ranges ->
    let parts =
      Morsel.fork_join
        ~fork:(fun () -> Mmap_file.fork_view file)
        ~absorb:(fun view -> Mmap_file.absorb ~into:file view)
        (fun view range -> scan ~range view)
        ranges
    in
    ( Morsel.concat_columns (List.map fst parts),
      match List.filter_map snd parts with
      | [] -> None
      | segs -> Some (Posmap.concat segs) )

let first_source schema cols =
  List.fold_left (fun a i -> min a (source schema i)) max_int cols

let can_fetch ~schema ~posmap ~cols =
  cols <> []
  && Option.is_some (Posmap.nearest_at_or_before posmap (first_source schema cols))

(* Fetch readers take the row id. The first one positions the cursor at
   the tracked column at or before the first requested one (the JIT one
   also splits the row from there to the last requested column); each
   further reader converts one requested field, its gap included in its
   work. *)
let fetch ~mode ?(policy = Scan_errors.Fail_fast) ~file ~sep ~schema ~posmap
    ~cols ~rowids () =
  let buf = Mmap_file.bytes file in
  let cur = Csv.Cursor.create ~sep file in
  if cols = [] then invalid_arg "Scan_csv.fetch: no columns";
  let first = first_source schema cols in
  let tcol, positions =
    match Posmap.nearest_at_or_before posmap first with
    | Some x -> x
    | None -> failwith "Scan_csv.fetch: positional map cannot reach column"
  in
  let builders = List.map (fun i -> Builder.create ~capacity:1024 (Schema.dtype schema i)) cols in
  let origin = ref 0 in
  let wanted =
    List.map2 (fun i b -> (source schema i, i, b)) cols builders
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let chain head convert =
    let step (prev, acc) (s, i, b) =
      (s + 1, { read = convert s i b; col = s; tok = s - prev + 1; built = 1 } :: acc)
    in
    head :: List.rev (snd (List.fold_left step (tcol, []) wanted))
  in
  let readers =
    match mode, wanted, Posmap.lengths posmap tcol with
    | Jit, [ (s, i, b) ], Some lens when s = tcol && policy <> Scan_errors.Null_fill ->
      (* a tracked column with recorded lengths needs no tokenizing at
         all — the paper's "custom atoi" case *)
      let starts = [| 0 |] and ends = [| 0 |] in
      let f = jit_convert buf (Schema.dtype schema i) b ~starts ~ends 0 in
      let read r =
        let p = positions.(r) and l = lens.(r) in
        Mmap_file.touch file p l;
        starts.(0) <- p;
        ends.(0) <- p + l;
        f r
      in
      [ { read; col = s; tok = 1; built = 1 } ]
    | Jit, _, _ ->
      let width = List.fold_left (fun a (s, _, _) -> max a s) tcol wanted - tcol + 1 in
      let starts = Array.make width 0 and ends = Array.make width 0 in
      let split r =
        origin := positions.(r);
        Csv.Cursor.seek cur positions.(r);
        Csv.Cursor.split cur width starts ends
      in
      chain
        { read = split; col = tcol; tok = 0; built = 0 }
        (fun s i b -> jit_conversion ~policy ~origin buf schema i b ~starts ~ends (s - tcol))
    | Interpreted, _, _ ->
      (* runtime decisions for every row: consult the positional map, walk
         to each requested column *)
      let at = ref tcol in
      let seek r =
        let tcol, positions = Option.get (Posmap.nearest_at_or_before posmap first) in
        origin := positions.(r);
        Csv.Cursor.seek cur positions.(r);
        at := tcol
      in
      chain
        { read = seek; col = tcol; tok = 0; built = 0 }
        (fun s i b ->
          let f = interp_conversion ~policy ~origin buf schema i b in
          fun _ ->
            while !at < s do
              Csv.Cursor.skip_field cur;
              incr at
            done;
            let p, l = Csv.Cursor.next_field cur in
            incr at;
            f p l)
  in
  let steps = Array.of_list (List.map (fun r -> r.read) readers) in
  let tick = Cancel.batch_checker (Cancel.current ()) in
  let n = Array.length rowids in
  for k = 0 to n - 1 do
    tick ();
    let r = rowids.(k) in
    for j = 0 to Array.length steps - 1 do
      steps.(j) r
    done
  done;
  report ~tokenized:(n * sum (fun r -> r.tok) readers)
    ~built:(n * sum (fun r -> r.built) readers);
  Array.of_list (List.map Builder.to_column builders)
