open Raw_vector
open Raw_storage
open Raw_formats
module Metrics = Raw_obs.Metrics

let template_key = Scan_kit.template_key "fwb"

(* FWB values cannot fail to decode — every fixed-width slot is a valid
   int/float/bool bit pattern — so the only malformation is a ragged file
   length. [Fail_fast] raises on it ({!Raw_formats.Fwb.n_rows}); the
   lenient policies scan the whole rows and record the tail once per
   enumerating pass. *)
let row_bound ~policy layout file =
  match (policy : Scan_errors.policy) with
  | Fail_fast -> Fwb.n_rows layout file
  | Skip_row | Null_fill ->
    let tb = Fwb.trailing_bytes layout file in
    if tb > 0 then
      Scan_errors.record
        ~offset:(Mmap_file.length file - tb)
        ~field:(-1) ~cause:"fwb: trailing bytes";
    Fwb.n_rows_floor layout file

let source_of schema i = (Schema.field schema i).Schema.source_index

(* General-purpose read: the field offset comes from the layout and the
   read is dispatched on the data type, for every value. *)
let read_dispatch file layout schema i row : Value.t =
  let pos = Fwb.offset_of layout ~row ~field:(source_of schema i) in
  match Schema.dtype schema i with
  | Int -> Value.Int (Fwb.read_int file pos)
  | Float -> Value.Float (Fwb.read_float file pos)
  | Bool -> Value.Bool (Fwb.read_bool file pos)
  | String -> invalid_arg "Scan_fwb: String column in FWB"

(* Sequential scans and fetches share the readers and the column loop;
   they differ only in the row ids they visit. *)
let scan ~mode ?ids ?lo n ~file ~layout ~schema cols =
  let rs = Fwb.row_size layout in
  let reader i =
    match (mode : Scan_csv.mode) with
    | Interpreted -> Scan_kit.values n (Schema.dtype schema i) (read_dispatch file layout schema i)
    | Jit -> (
      (* the paper's "inject the binary offsets into the code" *)
      let off = Fwb.field_offset layout (source_of schema i) in
      match Schema.dtype schema i with
      | Int -> Scan_kit.ints n (fun r -> Fwb.read_int file (off + (r * rs)))
      | Float -> Scan_kit.floats n (fun r -> Fwb.read_float file (off + (r * rs)))
      | Bool -> Scan_kit.bools n (fun r -> Fwb.read_bool file (off + (r * rs)))
      | String -> invalid_arg "Scan_fwb: String column in FWB")
  in
  let columns = Scan_kit.columns ?ids ?lo n (List.map reader cols) in
  Metrics.add Metrics.fwb_values_read (n * List.length cols);
  Metrics.add Metrics.scan_values_built (n * List.length cols);
  columns

let seq_scan ~mode ?(policy = Scan_errors.Fail_fast) ?rows ~file ~layout
    ~schema ~needed () =
  let lo, hi =
    match rows with Some r -> r | None -> (0, row_bound ~policy layout file)
  in
  scan ~mode ~lo (hi - lo) ~file ~layout ~schema needed

(* Contiguous row ranges (fixed arithmetic) as morsels. *)
let par_scan ~mode ?(policy = Scan_errors.Fail_fast) ~parallelism ~file
    ~layout ~schema ~needed () =
  let bound = row_bound ~policy layout file in
  let scan rows file = seq_scan ~mode ~rows ~file ~layout ~schema ~needed () in
  match if parallelism <= 1 then [] else Morsel.split_range ~lo:0 ~hi:bound ~n:parallelism with
  | [] | [ _ ] -> scan (0, bound) file
  | ranges ->
    Morsel.concat_columns
      (Morsel.fork_join
         ~fork:(fun () -> Mmap_file.fork_view file)
         ~absorb:(fun view -> Mmap_file.absorb ~into:file view)
         (fun view rows -> scan rows view)
         ranges)

let fetch ~mode ~file ~layout ~schema ~cols ~rowids =
  scan ~mode ~ids:rowids (Array.length rowids) ~file ~layout ~schema cols
