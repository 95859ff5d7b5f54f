open Raw_vector
open Raw_storage

(* ---------- generation ---------- *)

let write_file ~path ?(sep = ',') ~header ~rows () =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let sep_s = String.make 1 sep in
      let put fields = output_string oc (String.concat sep_s fields); output_char oc '\n' in
      (match header with Some h -> put h | None -> ());
      Seq.iter put rows)

let render_value (v : Value.t) =
  match v with
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.3f" f
  | Bool b -> if b then "1" else "0"
  | String s -> s
  | Null -> ""

let generate ~path ?(sep = ',') ~n_rows ~dtypes ~seed () =
  let st = Random.State.make [| seed |] in
  let words = [| "alpha"; "bravo"; "charlie"; "delta"; "echo"; "foxtrot" |] in
  let render dt =
    match (dt : Dtype.t) with
    | Int -> string_of_int (Random.State.int st 1_000_000_000)
    | Float -> Printf.sprintf "%.3f" (Random.State.float st 1e9)
    | Bool -> if Random.State.bool st then "1" else "0"
    | String ->
      words.(Random.State.int st (Array.length words))
      ^ string_of_int (Random.State.int st 1000)
  in
  let rows =
    Seq.init n_rows (fun _ -> Array.to_list (Array.map render dtypes))
  in
  write_file ~path ~sep ~header:None ~rows ()

(* ---------- fast parsers ----------

   Decode failures raise the typed Scan_errors.Error with the field's own
   byte offset; scan kernels catch it and re-attribute to (row offset,
   source column) before recording or re-raising under the active error
   policy. Malformed data is user input, not a programmer error, so none
   of these paths use failwith/assert. *)

(* copy-accounting sites, precomputed once so the profiled path does not
   allocate; each Prof_gate.copy is one domain-local read + branch when
   profiling is off. "csv.field" charges string materialization of parsed
   fields; "csv.value" charges the slow-path numeric/bool decoders that
   fall back to an intermediate string. *)
let site_field = Prof_gate.site "csv.field"
let site_value = Prof_gate.site "csv.value"

let bad_int ~pos = Scan_errors.fail ~offset:pos ~field:(-1) ~cause:"bad int"
let bad_float ~pos = Scan_errors.fail ~offset:pos ~field:(-1) ~cause:"bad float"
let bad_bool ~pos = Scan_errors.fail ~offset:pos ~field:(-1) ~cause:"bad bool"

(* Up to 18 digits cannot overflow a 63-bit int, so that (common) case
   keeps the unchecked loop; longer inputs accumulate negatively, where
   [min_int] fits, and fail on the digit that would leave the range. *)
let parse_int_checked buf pos i0 stop neg =
  let acc = ref 0 in
  for i = i0 to stop - 1 do
    let c = Char.code (Bytes.unsafe_get buf i) - Char.code '0' in
    if c < 0 || c > 9 || !acc < (min_int + c) / 10 then bad_int ~pos;
    acc := (!acc * 10) - c
  done;
  if neg then !acc else if !acc = min_int then bad_int ~pos else - !acc

let parse_int buf pos len =
  if len = 0 then bad_int ~pos;
  let stop = pos + len in
  let neg = Bytes.unsafe_get buf pos = '-' in
  let i0 = if neg || Bytes.unsafe_get buf pos = '+' then pos + 1 else pos in
  if i0 >= stop then bad_int ~pos;
  if stop - i0 > 18 then parse_int_checked buf pos i0 stop neg
  else begin
    let acc = ref 0 in
    for i = i0 to stop - 1 do
      let c = Char.code (Bytes.unsafe_get buf i) - Char.code '0' in
      if c < 0 || c > 9 then bad_int ~pos;
      acc := (!acc * 10) + c
    done;
    if neg then - !acc else !acc
  end

let pow10 = [| 1.; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11;
               1e12; 1e13; 1e14; 1e15 |]

let parse_float_slow buf pos len =
  Prof_gate.copy site_value len;
  match float_of_string_opt (Bytes.sub_string buf pos len) with
  | Some f -> f
  | None -> bad_float ~pos

(* The fast path is exact: at most 15 digits accumulate exactly below
   2^53 and powers of ten up to 1e15 are exact, so the one division is
   correctly rounded and agrees with [float_of_string] bit for bit. More
   digits, no digit, an exponent or anything unexpected take the slow
   path. *)
let parse_float buf pos len =
  if len = 0 then bad_float ~pos;
  let stop = pos + len in
  let neg = Bytes.unsafe_get buf pos = '-' in
  let i = ref (if neg || Bytes.unsafe_get buf pos = '+' then pos + 1 else pos) in
  let mantissa = ref 0. in
  let digits = ref 0 in
  (* integer part *)
  let continue_ = ref true in
  while !continue_ && !i < stop do
    let c = Bytes.unsafe_get buf !i in
    if c >= '0' && c <= '9' then begin
      mantissa := (!mantissa *. 10.) +. float_of_int (Char.code c - 48);
      incr digits;
      incr i
    end
    else continue_ := false
  done;
  (* fraction *)
  let frac_digits = ref 0 in
  if !i < stop && Bytes.unsafe_get buf !i = '.' then begin
    incr i;
    let continue_ = ref true in
    while !continue_ && !i < stop do
      let c = Bytes.unsafe_get buf !i in
      if c >= '0' && c <= '9' then begin
        mantissa := (!mantissa *. 10.) +. float_of_int (Char.code c - 48);
        incr frac_digits;
        incr i
      end
      else continue_ := false
    done
  end;
  let digits = !digits + !frac_digits in
  if digits = 0 || digits > 15 || !i < stop then parse_float_slow buf pos len
  else begin
    let m = !mantissa /. pow10.(!frac_digits) in
    if neg then -.m else m
  end

let parse_bool buf pos len =
  if len = 1 then
    match Bytes.get buf pos with
    | '1' | 't' | 'T' -> true
    | '0' | 'f' | 'F' -> false
    | _ -> bad_bool ~pos
  else begin
    Prof_gate.copy site_value len;
    match String.lowercase_ascii (Bytes.sub_string buf pos len) with
    | "true" -> true
    | "false" -> false
    | _ -> bad_bool ~pos
  end

let parse_string buf pos len =
  Prof_gate.copy site_field len;
  Bytes.sub_string buf pos len

(* ---------- word-at-a-time scanning ----------

   SWAR ("SIMD within a register") over 8-byte little-endian words: the
   byte j of a word sits at bits [8j, 8j+8). [zero_bytes x] sets the high
   bit of exactly the zero bytes of [x] — no borrow crosses a byte, so
   unlike the cheaper [(x - 0x01..) land lnot x] test there are no false
   positives after a match (a ['\x0b'] right after a ['\n'] is not a
   newline). Flags are then shifted down to bit [8j], which fits in a
   native int. *)

let ones = 0x0101010101010101L
let lows = 0x7f7f7f7f7f7f7f7fL
let broadcast c = Int64.mul ones (Int64.of_int (Char.code c))
let newlines = broadcast '\n'
let returns = broadcast '\r'

let[@inline] zero_bytes x =
  Int64.lognot (Int64.logor (Int64.logor (Int64.add (Int64.logand x lows) lows) x) lows)

let[@inline] flags m = Int64.to_int (Int64.shift_right_logical m 7)

(* byte index of the single flag [b = 1 lsl 8j]: the multiply shifts the
   byte ladder 00 01 .. 07 so that byte (7-j), holding j, lands on top *)
let[@inline] flag_index b = (b * 0x0001020304050607) lsr 56

(* number of flags in [f]: every byte adds into the top one *)
let[@inline] flag_count f = (f * 0x0101010101010101) lsr 56

(* ---------- navigation ---------- *)

module Cursor = struct
  type t = {
    file : Mmap_file.t;
    buf : Bytes.t;
    len : int;
    sep : char;
    mutable pos : int;
  }

  let create ?(sep = ',') ?(pos = 0) ?limit file =
    let len =
      match limit with
      | Some l -> min l (Mmap_file.length file)
      | None -> Mmap_file.length file
    in
    { file; buf = Mmap_file.bytes file; len; sep; pos }

  let pos t = t.pos
  let seek t p = t.pos <- p
  let at_eof t = t.pos >= t.len

  (* A field ends at the separator, at a line terminator ('\r' of a CRLF
     ending or a bare '\n'), or at EOF. At a terminator or EOF the field is
     empty and the cursor does not move — this is how an empty final field
     ("a,b,") parses, with [skip_line] consuming the terminator. *)
  let next_field t =
    let start = t.pos in
    let sep = t.sep in
    let i = ref t.pos in
    let continue_ = ref true in
    while !continue_ && !i < t.len do
      let c = Bytes.unsafe_get t.buf !i in
      if c = sep || c = '\n' || c = '\r' then continue_ := false else incr i
    done;
    let stop = !i in
    if stop > start || stop < t.len then
      Mmap_file.touch t.file start (stop - start + 1);
    (* advance past the separator, stay on the line terminator / EOF *)
    if stop < t.len && Bytes.unsafe_get t.buf stop = sep then t.pos <- stop + 1
    else t.pos <- stop;
    (start, stop - start)

  (* allocation-free variant of [next_field] for fields we never parse *)
  let skip_field t =
    let start = t.pos in
    let sep = t.sep in
    let i = ref t.pos in
    let continue_ = ref true in
    while !continue_ && !i < t.len do
      let c = Bytes.unsafe_get t.buf !i in
      if c = sep || c = '\n' || c = '\r' then continue_ := false else incr i
    done;
    let stop = !i in
    if stop > start || stop < t.len then
      Mmap_file.touch t.file start (stop - start + 1);
    if stop < t.len && Bytes.unsafe_get t.buf stop = sep then t.pos <- stop + 1
    else t.pos <- stop

  (* [split] finds the same fields as [n] calls of [next_field]. [m]
     holds the unconsumed delimiter flags of the word ending at [i]; the
     last word that does not fit before [len] is scanned byte by byte. A
     row terminator or EOF ends the row: the remaining fields are empty
     there and the cursor stays on it. The row's span is touched once,
     covering exactly the pages the per-field touches would. *)
  let split t n starts ends =
    if n > Array.length starts || n > Array.length ends then
      invalid_arg "Csv.Cursor.split: span arrays too short";
    let buf = t.buf and len = t.len and sep = t.sep in
    let seps = broadcast sep in
    let row = t.pos in
    let start = ref row and i = ref row and m = ref 0 in
    let k = ref 0 and stop = ref (-1) in
    while !k < n do
      while !m = 0 && !i + 8 <= len do
        let w = Bytes.get_int64_le buf !i in
        m :=
          flags
            (Int64.logor
               (zero_bytes (Int64.logxor w seps))
               (Int64.logor
                  (zero_bytes (Int64.logxor w newlines))
                  (zero_bytes (Int64.logxor w returns))));
        i := !i + 8
      done;
      let d =
        if !m <> 0 then begin
          let b = !m land - !m in
          m := !m lxor b;
          !i - 8 + flag_index b
        end
        else begin
          let j = ref !i in
          while
            !j < len
            &&
            let c = Bytes.unsafe_get buf !j in
            c <> sep && c <> '\n' && c <> '\r'
          do
            incr j
          done;
          i := !j + 1;
          !j
        end
      in
      Array.unsafe_set starts !k !start;
      Array.unsafe_set ends !k d;
      incr k;
      if d > !start || d < len then stop := d;
      if d < len && Bytes.unsafe_get buf d = sep then start := d + 1
      else begin
        start := d;
        while !k < n do
          Array.unsafe_set starts !k d;
          Array.unsafe_set ends !k d;
          incr k
        done
      end
    done;
    t.pos <- !start;
    if !stop >= 0 then Mmap_file.touch t.file row (!stop - row + 1)

  let at_end_of_line t =
    t.pos >= t.len
    ||
    let c = Bytes.unsafe_get t.buf t.pos in
    c = '\n' || c = '\r'

  let skip_line t =
    let start = t.pos in
    let i = ref t.pos in
    let continue_ = ref true in
    while !continue_ && !i < t.len do
      if Bytes.unsafe_get t.buf !i = '\n' then continue_ := false else incr i
    done;
    t.pos <- min (!i + 1) t.len;
    Mmap_file.touch t.file start (t.pos - start)
end

let count_rows ?(pos = 0) file =
  let buf = Mmap_file.bytes file in
  let len = Mmap_file.length file in
  let n = ref 0 and i = ref pos in
  while !i + 8 <= len do
    let w = Bytes.get_int64_le buf !i in
    n := !n + flag_count (flags (zero_bytes (Int64.logxor w newlines)));
    i := !i + 8
  done;
  for j = !i to len - 1 do
    if Bytes.unsafe_get buf j = '\n' then incr n
  done;
  if len > pos && Bytes.get buf (len - 1) <> '\n' then incr n;
  !n

(* ---------- morsels ---------- *)

(* Row-aligned byte ranges for a morsel-driven parallel scan: cut the file
   into ~[n] equal spans, then push each cut forward to just past the next
   newline so every morsel holds whole rows. The boundary probe reads raw
   bytes without page accounting — it inspects O(n) positions, not the file.
   Ranges are non-empty, ordered, and partition [0, length). A file of fewer
   rows than [n] yields fewer ranges. *)
let row_aligned_ranges file ~n =
  let len = Mmap_file.length file in
  let buf = Mmap_file.bytes file in
  if len = 0 then []
  else if n <= 1 then [ (0, len) ]
  else begin
    let target = (len + n - 1) / n in
    let rec go start acc =
      if start >= len then List.rev acc
      else begin
        let cut = start + target in
        if cut >= len then List.rev ((start, len) :: acc)
        else begin
          let i = ref cut in
          while !i < len && Bytes.unsafe_get buf !i <> '\n' do incr i done;
          let stop = min (!i + 1) len in
          go stop ((start, stop) :: acc)
        end
      end
    in
    go 0 []
  end
