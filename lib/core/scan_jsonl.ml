open Raw_vector
open Raw_storage
open Raw_formats
module Metrics = Raw_obs.Metrics

let template_key = Scan_kit.template_key "jsonl"

let path_of schema i = String.split_on_char '.' (Schema.name schema i)

let type_clash what s =
  Scan_errors.fail ~offset:s ~field:(-1)
    ~cause:("json: string value in " ^ what ^ " column")

(* copy-accounting site: unquoted/unescaped string values materialize via
   Bytes.sub_string (escaped ones are charged inside Jsonl.unescape) *)
let site_value = Prof_gate.site "jsonl.value"

let sub_copy buf s l =
  Prof_gate.copy site_value l;
  Bytes.sub_string buf s l

(* The JIT emitter: one monomorphic closure per wanted path, conversion
   baked in. *)
let jit_emitter buf (dt : Dtype.t) b : Jsonl.Extract.kind -> int -> int -> unit =
  match dt with
  | Int -> (
      fun kind s l ->
        match kind with
        | Scalar -> Builder.add_int b (Csv.parse_int buf s l)
        | Nul -> Builder.add_null b
        | Quoted _ -> type_clash "Int" s)
  | Float -> (
      fun kind s l ->
        match kind with
        | Scalar -> Builder.add_float b (Csv.parse_float buf s l)
        | Nul -> Builder.add_null b
        | Quoted _ -> type_clash "Float" s)
  | Bool -> (
      fun kind s l ->
        match kind with
        | Scalar -> Builder.add_bool b (Csv.parse_bool buf s l)
        | Nul -> Builder.add_null b
        | Quoted _ -> type_clash "Bool" s)
  | String -> (
      fun kind s l ->
        match kind with
        | Quoted false | Scalar -> Builder.add_string b (sub_copy buf s l)
        | Quoted true -> Builder.add_string b (Jsonl.unescape buf s l)
        | Nul -> Builder.add_null b)

(* The interpreted emitter: every value looks its column's type up in the
   catalog and dispatches — the general-purpose operator's behaviour. *)
let interp_emitter buf schema i b (kind : Jsonl.Extract.kind) s l =
  match Schema.dtype schema i, kind with
  | _, Nul -> Builder.add_null b
  | Dtype.Int, Scalar -> Builder.add_int b (Csv.parse_int buf s l)
  | Dtype.Float, Scalar -> Builder.add_float b (Csv.parse_float buf s l)
  | Dtype.Bool, Scalar -> Builder.add_bool b (Csv.parse_bool buf s l)
  | Dtype.String, (Quoted false | Scalar) -> Builder.add_string b (sub_copy buf s l)
  | Dtype.String, Quoted true -> Builder.add_string b (Jsonl.unescape buf s l)
  | _, Quoted _ -> type_clash "non-string" s

(* The Null_fill wrapper: a failed conversion records the error against
   its schema column and emits NULL instead (the parse raises before
   anything reaches the builder, so no rollback is needed). Under the
   other policies conversion errors escape to the caller. *)
let emitter ~mode ~policy buf schema i b =
  let f =
    match (mode : Scan_csv.mode) with
    | Jit -> jit_emitter buf (Schema.dtype schema i) b
    | Interpreted -> interp_emitter buf schema i b
  in
  match (policy : Scan_errors.policy) with
  | Fail_fast | Skip_row -> f
  | Null_fill ->
    fun k s l ->
      (try f k s l
       with Scan_errors.Error e ->
         Scan_errors.record ~offset:e.offset ~field:i ~cause:e.cause;
         Builder.add_null b)

let make_kernel ~mode ~policy ~file ~schema ~needed =
  let buf = Mmap_file.bytes file in
  let builders =
    List.map (fun i -> Builder.create ~capacity:1024 (Schema.dtype schema i)) needed
  in
  let trie =
    Jsonl.Extract.compile
      (List.map2
         (fun i b -> (path_of schema i, emitter ~mode ~policy buf schema i b))
         needed builders)
  in
  let n_rows = ref 0 in
  let row_at pos =
    let next =
      Jsonl.Extract.run ~len:(Mmap_file.length file) buf ~pos ~wanted:trie
        ~emit:(fun f k s l -> f k s l)
    in
    Mmap_file.touch file pos (next - pos);
    incr n_rows;
    (* absent fields become NULL *)
    List.iter
      (fun b -> if Builder.length b < !n_rows then Builder.add_null b)
      builders;
    next
  in
  (builders, row_at, n_rows)

let finish builders n_rows =
  let v = n_rows * List.length builders in
  Metrics.add Metrics.jsonl_values_extracted v;
  Metrics.add Metrics.scan_values_built v;
  Array.of_list (List.map Builder.to_column builders)

let skip_ws buf len p =
  let i = ref p in
  while
    !i < len
    && (match Bytes.unsafe_get buf !i with
        | ' ' | '\t' | '\n' | '\r' -> true
        | _ -> false)
  do
    incr i
  done;
  !i

(* Resync point after a structurally broken row: the next line. *)
let next_line buf len p =
  match Bytes.index_from_opt buf p '\n' with Some i when i < len -> i + 1 | _ -> len

(* A structurally broken row that must still yield a row: roll back
   whatever it emitted and fill it with NULLs. *)
let null_row builders n_rows =
  List.iter (fun b -> Builder.truncate b !n_rows) builders;
  incr n_rows;
  List.iter Builder.add_null builders

(* The one sequential loop. [Skip_row] scans (and therefore validates)
   every schema column — row identity must not depend on the queried
   columns — and drops a row on any structural or conversion error,
   rolling its partial builder state back. [Null_fill] keeps every
   physical row: conversion errors are nulled in the emitters; a
   structurally broken row yields all-NULL values and resyncs at the next
   line. [Fail_fast] lets the error escape. *)
let scan ~mode ~policy ?(record = true) ?(from = 0) ~file ~schema ~needed () =
  let skip = policy = Scan_errors.Skip_row in
  let scan_cols =
    if skip then List.init (Schema.arity schema) (fun i -> i) else needed
  in
  let builders, row_at, n_rows =
    make_kernel ~mode ~policy ~file ~schema ~needed:scan_cols
  in
  let buf = Mmap_file.bytes file in
  let len = Mmap_file.length file in
  let starts = Buffer_int.create () in
  let tick = Cancel.batch_checker (Cancel.current ()) in
  let skipped = ref 0 in
  let pos = ref (skip_ws buf len from) in
  while !pos < len do
    tick ();
    let start = !pos in
    match row_at start with
    | next ->
      Buffer_int.add starts start;
      pos := skip_ws buf len next
    | exception Scan_errors.Error e when policy <> Scan_errors.Fail_fast ->
      if record then
        Scan_errors.record ~offset:start ~field:e.field ~cause:e.cause;
      let next = next_line buf len start in
      Mmap_file.touch file start (next - start);
      if skip then begin
        List.iter (fun b -> Builder.truncate b !n_rows) builders;
        incr skipped
      end
      else begin
        null_row builders n_rows;
        Buffer_int.add starts start
      end;
      pos := skip_ws buf len next
  done;
  if !skipped > 0 then Metrics.add Metrics.scan_rows_skipped !skipped;
  let columns = finish builders !n_rows in
  let columns =
    if skip then Array.of_list (List.map (fun c -> columns.(c)) needed)
    else columns
  in
  (columns, Buffer_int.contents starts)

let seq_scan ~mode ?(policy = Scan_errors.Fail_fast) ~file ~schema ~needed () =
  scan ~mode ~policy ~file ~schema ~needed ()

let valid_row_starts ?pos ~file ~schema ?(record = false) () =
  snd
    (scan ~mode:Interpreted ~policy:Scan_errors.Skip_row ~record ?from:pos ~file
       ~schema ~needed:[] ())

(* Point reads of the rows at [offsets.(r)]. A structurally broken row
   yields all-NULL values when [lenient] (and is recorded); otherwise the
   error escapes. *)
let read_rows ~lenient (builders, row_at, n_rows) offsets ids =
  let tick = Cancel.batch_checker (Cancel.current ()) in
  Array.iter
    (fun r ->
      tick ();
      match row_at offsets.(r) with
      | _ -> ()
      | exception Scan_errors.Error e when lenient ->
        Scan_errors.record ~offset:offsets.(r) ~field:e.field ~cause:e.cause;
        null_row builders n_rows)
    ids;
  builders

(* [Skip_row] row ids only name validated rows, so a structural error
   there is real; under [Null_fill] the row exists but is broken. *)
let fetch ~mode ?(policy = Scan_errors.Fail_fast) ~file ~schema ~row_starts
    ~cols ~rowids () =
  let builders =
    read_rows ~lenient:(policy = Scan_errors.Null_fill)
      (make_kernel ~mode ~policy ~file ~schema ~needed:cols)
      row_starts rowids
  in
  finish builders (Array.length rowids)

(* ------------------------------------------------------------------ *)
(* Flattened child tables over arrays of objects                       *)
(* ------------------------------------------------------------------ *)

let array_index ~file ~row_starts ~array_path =
  let buf = Mmap_file.bytes file in
  let parents = Buffer_int.create () in
  let positions = Buffer_int.create () in
  Array.iteri
    (fun row start ->
      let stop =
        Jsonl.Extract.iter_array_objects ~len:(Mmap_file.length file) buf ~pos:start
          ~path:array_path
          ~f:(fun pos ->
            Buffer_int.add parents row;
            Buffer_int.add positions pos)
      in
      Mmap_file.touch file start (stop - start))
    row_starts;
  (Buffer_int.contents parents, Buffer_int.contents positions)

let scan_array ~mode ?(policy = Scan_errors.Fail_fast) ~file ~schema
    ~index:(parents, positions) ~needed ~rowids () =
  let ids =
    match rowids with
    | Some ids -> ids
    | None -> Sel.range 0 (Array.length parents)
  in
  (* schema column 0 is the parent row id; element fields start at 1 *)
  let elem_cols = List.filter (fun c -> c > 0) needed in
  (* Element identity is pinned by the parent-side array index, so a child
     table can never drop rows without invalidating it: both lenient
     policies degrade a structurally broken element to all-NULL fields. *)
  let builders =
    read_rows ~lenient:(policy <> Scan_errors.Fail_fast)
      (make_kernel ~mode ~policy ~file ~schema ~needed:elem_cols)
      positions ids
  in
  let elem_columns =
    List.combine elem_cols
      (Array.to_list (finish builders (Array.length ids)))
  in
  Array.of_list
    (List.map
       (fun c ->
         if c = 0 then Column.of_int_array (Array.map (fun r -> parents.(r)) ids)
         else List.assoc c elem_columns)
       needed)
