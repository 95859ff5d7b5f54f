type data =
  | Int_data of int array
  | Float_data of float array
  | Bool_data of bool array
  | String_data of string array

type t = { data : data; valid : Bytes.t option }

let data_length = function
  | Int_data a -> Array.length a
  | Float_data a -> Array.length a
  | Bool_data a -> Array.length a
  | String_data a -> Array.length a

let make ?valid data =
  (match valid with
   | Some v when Bytes.length v <> data_length data ->
     invalid_arg "Column.make: validity bitmap length mismatch"
   | _ -> ());
  { data; valid }

let data t = t.data
let length t = data_length t.data

let dtype t =
  match t.data with
  | Int_data _ -> Dtype.Int
  | Float_data _ -> Dtype.Float
  | Bool_data _ -> Dtype.Bool
  | String_data _ -> Dtype.String

(* Heap footprint estimate in bytes, for memory-budget accounting: boxed
   words for numeric arrays, payload bytes for strings (headers ignored),
   plus the validity bitmap. *)
let byte_size t =
  let data_bytes =
    match t.data with
    | Int_data a -> 8 * Array.length a
    | Float_data a -> 8 * Array.length a
    | Bool_data a -> 8 * Array.length a
    | String_data a ->
      Array.fold_left (fun acc s -> acc + 8 + String.length s) 0 a
  in
  data_bytes + match t.valid with None -> 0 | Some v -> Bytes.length v

let of_int_array a = { data = Int_data a; valid = None }
let of_float_array a = { data = Float_data a; valid = None }
let of_bool_array a = { data = Bool_data a; valid = None }
let of_string_array a = { data = String_data a; valid = None }

let validity t = t.valid

let is_valid t i =
  match t.valid with
  | None -> true
  | Some v -> Bytes.unsafe_get v i <> '\000'

let all_valid t =
  match t.valid with
  | None -> true
  | Some v ->
    let n = Bytes.length v in
    let rec go i = i >= n || (Bytes.unsafe_get v i <> '\000' && go (i + 1)) in
    go 0

let valid_count t =
  match t.valid with
  | None -> length t
  | Some v ->
    let c = ref 0 in
    Bytes.iter (fun b -> if b <> '\000' then incr c) v;
    !c

let get t i =
  if i < 0 || i >= length t then invalid_arg "Column.get: index out of bounds";
  if not (is_valid t i) then Value.Null
  else
    match t.data with
    | Int_data a -> Value.Int a.(i)
    | Float_data a -> Value.Float a.(i)
    | Bool_data a -> Value.Bool a.(i)
    | String_data a -> Value.String a.(i)

let int_array t =
  match t.data with
  | Int_data a -> a
  | _ -> invalid_arg "Column.int_array: not an Int column"

let float_array t =
  match t.data with
  | Float_data a -> a
  | _ -> invalid_arg "Column.float_array: not a Float column"

let bool_array t =
  match t.data with
  | Bool_data a -> a
  | _ -> invalid_arg "Column.bool_array: not a Bool column"

let string_array t =
  match t.data with
  | String_data a -> a
  | _ -> invalid_arg "Column.string_array: not a String column"

let of_values dt values =
  let n = List.length values in
  let valid = Bytes.make n '\001' in
  let has_null = ref false in
  let set_valid i b =
    if not b then begin
      has_null := true;
      Bytes.set valid i '\000'
    end
  in
  let data =
    match dt with
    | Dtype.Int ->
      let a = Array.make n 0 in
      List.iteri
        (fun i v ->
          match (v : Value.t) with
          | Int x -> a.(i) <- x
          | Null -> set_valid i false
          | _ -> invalid_arg "Column.of_values: type mismatch")
        values;
      Int_data a
    | Dtype.Float ->
      let a = Array.make n 0. in
      List.iteri
        (fun i v ->
          match (v : Value.t) with
          | Float x -> a.(i) <- x
          | Int x -> a.(i) <- float_of_int x
          | Null -> set_valid i false
          | _ -> invalid_arg "Column.of_values: type mismatch")
        values;
      Float_data a
    | Dtype.Bool ->
      let a = Array.make n false in
      List.iteri
        (fun i v ->
          match (v : Value.t) with
          | Bool x -> a.(i) <- x
          | Null -> set_valid i false
          | _ -> invalid_arg "Column.of_values: type mismatch")
        values;
      Bool_data a
    | Dtype.String ->
      let a = Array.make n "" in
      List.iteri
        (fun i v ->
          match (v : Value.t) with
          | String x -> a.(i) <- x
          | Null -> set_valid i false
          | _ -> invalid_arg "Column.of_values: type mismatch")
        values;
      String_data a
  in
  { data; valid = (if !has_null then Some valid else None) }

let const dt v n =
  let data =
    match dt, (v : Value.t) with
    | Dtype.Int, Int x -> Int_data (Array.make n x)
    | Dtype.Int, Null -> Int_data (Array.make n 0)
    | Dtype.Float, Float x -> Float_data (Array.make n x)
    | Dtype.Float, Int x -> Float_data (Array.make n (float_of_int x))
    | Dtype.Float, Null -> Float_data (Array.make n 0.)
    | Dtype.Bool, Bool x -> Bool_data (Array.make n x)
    | Dtype.Bool, Null -> Bool_data (Array.make n false)
    | Dtype.String, String x -> String_data (Array.make n x)
    | Dtype.String, Null -> String_data (Array.make n "")
    | _, _ -> invalid_arg "Column.const: type mismatch"
  in
  let valid = if Value.is_null v && n > 0 then Some (Bytes.make n '\000') else None in
  { data; valid }

let set t i v =
  let mark_valid () =
    match t.valid with
    | None -> ()
    | Some b -> Bytes.set b i '\001'
  in
  match t.data, (v : Value.t) with
  | _, Null ->
    (match t.valid with
     | None -> invalid_arg "Column.set: cannot store Null without bitmap"
     | Some b -> Bytes.set b i '\000')
  | Int_data a, Int x -> a.(i) <- x; mark_valid ()
  | Float_data a, Float x -> a.(i) <- x; mark_valid ()
  | Float_data a, Int x -> a.(i) <- float_of_int x; mark_valid ()
  | Bool_data a, Bool x -> a.(i) <- x; mark_valid ()
  | String_data a, String x -> a.(i) <- x; mark_valid ()
  | _, _ -> invalid_arg "Column.set: type mismatch"

let invalidate_all t =
  { t with valid = Some (Bytes.make (length t) '\000') }

let to_values t = List.init (length t) (get t)

let equal a b =
  length a = length b
  && Dtype.equal (dtype a) (dtype b)
  &&
  let n = length a in
  let rec go i = i >= n || (Value.equal (get a i) (get b i) && go (i + 1)) in
  go 0

let pp ppf t =
  Format.fprintf ppf "@[<h>[%a]@]"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ";@ ") Value.pp)
    (to_values t)

let slice t pos len =
  if pos < 0 || len < 0 || pos + len > length t then
    invalid_arg "Column.slice: out of bounds";
  let data =
    match t.data with
    | Int_data a -> Int_data (Array.sub a pos len)
    | Float_data a -> Float_data (Array.sub a pos len)
    | Bool_data a -> Bool_data (Array.sub a pos len)
    | String_data a -> String_data (Array.sub a pos len)
  in
  let valid = Option.map (fun v -> Bytes.sub v pos len) t.valid in
  { data; valid }

let concat parts =
  match parts with
  | [] -> invalid_arg "Column.concat: empty list"
  | [ c ] -> c
  | first :: _ ->
    let total = List.fold_left (fun acc c -> acc + length c) 0 parts in
    let dst =
      match first.data with
      | Int_data _ -> Int_data (Array.make total 0)
      | Float_data _ -> Float_data (Array.make total 0.)
      | Bool_data _ -> Bool_data (Array.make total false)
      | String_data _ -> String_data (Array.make total "")
    in
    let any_invalid = List.exists (fun c -> c.valid <> None) parts in
    let valid = if any_invalid then Some (Bytes.make total '\001') else None in
    let pos = ref 0 in
    List.iter
      (fun c ->
        let n = length c in
        (* typed loops for immediates: [Array.blit] into an array on the
           major heap goes through the write barrier per element *)
        (match dst, c.data with
         | Int_data d, Int_data s ->
           for k = 0 to n - 1 do Array.unsafe_set d (!pos + k) s.(k) done
         | Float_data d, Float_data s -> Array.blit s 0 d !pos n
         | Bool_data d, Bool_data s ->
           for k = 0 to n - 1 do Array.unsafe_set d (!pos + k) s.(k) done
         | String_data d, String_data s -> Array.blit s 0 d !pos n
         | _, _ -> invalid_arg "Column.concat: type mismatch");
        (match valid, c.valid with
         | Some v, Some cv -> Bytes.blit cv 0 v !pos n
         | Some _, None | None, _ -> ());
        pos := !pos + n)
      parts;
    { data = dst; valid }

let scatter dst idx src =
  if length src <> Array.length idx then
    invalid_arg "Column.scatter: index/source length mismatch";
  (match dst.data, src.data with
   | Int_data d, Int_data s -> Array.iteri (fun k i -> d.(i) <- s.(k)) idx
   | Float_data d, Float_data s -> Array.iteri (fun k i -> d.(i) <- s.(k)) idx
   | Bool_data d, Bool_data s -> Array.iteri (fun k i -> d.(i) <- s.(k)) idx
   | String_data d, String_data s -> Array.iteri (fun k i -> d.(i) <- s.(k)) idx
   | _, _ -> invalid_arg "Column.scatter: type mismatch");
  match dst.valid with
  | None -> ()
  | Some v ->
    Array.iteri
      (fun k i ->
        Bytes.set v i (if is_valid src k then '\001' else '\000'))
      idx

(* typed loops: a closure per element would box every float *)
let gather t idx =
  let n = Array.length idx in
  let data =
    match t.data with
    | Int_data a ->
      let out = Array.make n 0 in
      for k = 0 to n - 1 do Array.unsafe_set out k a.(Array.unsafe_get idx k) done;
      Int_data out
    | Float_data a ->
      let out = Array.create_float n in
      for k = 0 to n - 1 do Array.unsafe_set out k a.(Array.unsafe_get idx k) done;
      Float_data out
    | Bool_data a ->
      let out = Array.make n false in
      for k = 0 to n - 1 do Array.unsafe_set out k a.(Array.unsafe_get idx k) done;
      Bool_data out
    | String_data a ->
      let out = Array.make n "" in
      for k = 0 to n - 1 do Array.unsafe_set out k a.(Array.unsafe_get idx k) done;
      String_data out
  in
  (* the data loop above bounds-checked every index *)
  let valid =
    Option.map
      (fun v ->
        let out = Bytes.create n in
        for k = 0 to n - 1 do
          Bytes.unsafe_set out k (Bytes.unsafe_get v (Array.unsafe_get idx k))
        done;
        out)
      t.valid
  in
  { data; valid }
