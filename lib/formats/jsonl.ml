open Raw_vector
open Raw_storage

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let escape_into b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let render_value b (v : Value.t) =
  match v with
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string b (Printf.sprintf "%.1f" f)
    else Buffer.add_string b (Printf.sprintf "%.12g" f)
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | String s -> escape_into b s
  | Null -> Buffer.add_string b "null"

(* Group dotted paths into a nested rendering. Adjacent pairs sharing the
   same head key become one nested object. *)
let rec render_fields b fields =
  Buffer.add_char b '{';
  let rec go first = function
    | [] -> ()
    | (path, v) :: rest ->
      if not first then Buffer.add_char b ',';
      (match String.index_opt path '.' with
       | None ->
         escape_into b path;
         Buffer.add_char b ':';
         render_value b v;
         go false rest
       | Some dot ->
         let head = String.sub path 0 dot in
         let tail p = String.sub p (dot + 1) (String.length p - dot - 1) in
         (* collect the run of fields with the same head *)
         let same, rest' =
           List.partition
             (fun (p, _) ->
               String.length p > dot
               && String.sub p 0 dot = head
               && (String.length p = dot || p.[dot] = '.'))
             ((path, v) :: rest)
         in
         escape_into b head;
         Buffer.add_char b ':';
         render_fields b (List.map (fun (p, v) -> (tail p, v)) same);
         go false rest')
  in
  go true fields;
  Buffer.add_char b '}'

let write_file ~path rows =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let b = Buffer.create 256 in
      Seq.iter
        (fun fields ->
          Buffer.clear b;
          render_fields b fields;
          Buffer.add_char b '\n';
          Buffer.output_buffer oc b)
        rows)

let generate ~path ~n_rows ~fields ?(missing_probability = 0.) ?(shuffle_keys = true)
    ~seed () =
  let st = Random.State.make [| seed |] in
  let words = [| "alpha"; "bravo"; "charlie"; "delta"; "echo"; "foxtrot" |] in
  let gen dt : Value.t =
    match (dt : Dtype.t) with
    | Int -> Int (Random.State.int st 1_000_000_000)
    | Float -> Float (Float.of_string (Printf.sprintf "%.3f" (Random.State.float st 1e9)))
    | Bool -> Bool (Random.State.bool st)
    | String ->
      String
        (words.(Random.State.int st (Array.length words))
        ^ string_of_int (Random.State.int st 1000))
  in
  let rows =
    Seq.init n_rows (fun _ ->
        let present =
          List.filter
            (fun _ ->
              missing_probability = 0.
              || Random.State.float st 1.0 >= missing_probability)
            fields
        in
        let rendered = List.map (fun (p, dt) -> (p, gen dt)) present in
        if not shuffle_keys then rendered
        else begin
          (* shuffle top-level groups, keeping dotted-prefix runs together *)
          let heads = Hashtbl.create 8 in
          let order = ref [] in
          List.iter
            (fun (p, v) ->
              let head =
                match String.index_opt p '.' with
                | Some i -> String.sub p 0 i
                | None -> p
              in
              match Hashtbl.find_opt heads head with
              | Some l -> l := (p, v) :: !l
              | None ->
                let l = ref [ (p, v) ] in
                Hashtbl.replace heads head l;
                order := head :: !order)
            rendered;
          let groups = Array.of_list (List.rev !order) in
          let n = Array.length groups in
          for i = n - 1 downto 1 do
            let j = Random.State.int st (i + 1) in
            let tmp = groups.(i) in
            groups.(i) <- groups.(j);
            groups.(j) <- tmp
          done;
          Array.to_list groups
          |> List.concat_map (fun h -> List.rev !(Hashtbl.find heads h))
        end)
  in
  write_file ~path rows

(* ------------------------------------------------------------------ *)
(* Reference parser                                                    *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Object of (string * json) list
  | Array of json list

let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

(* copy-accounting site: unescaping materializes the string through an
   intermediate Buffer, so the input span counts as copied bytes *)
let site_unescape = Prof_gate.site "jsonl.unescape"

let unescape buf pos len =
  Prof_gate.copy site_unescape len;
  let out = Buffer.create len in
  let stop = pos + len in
  let i = ref pos in
  while !i < stop do
    let c = Bytes.get buf !i in
    if c = '\\' && !i + 1 < stop then begin
      (match Bytes.get buf (!i + 1) with
       | '"' -> Buffer.add_char out '"'
       | '\\' -> Buffer.add_char out '\\'
       | '/' -> Buffer.add_char out '/'
       | 'n' -> Buffer.add_char out '\n'
       | 't' -> Buffer.add_char out '\t'
       | 'r' -> Buffer.add_char out '\r'
       | 'b' -> Buffer.add_char out '\b'
       | 'f' -> Buffer.add_char out '\012'
       | 'u' ->
         if !i + 5 < stop then begin
           let code, used =
             Raw_obs.Jsons.decode_u (Bytes.get buf) (!i + 2) stop
           in
           if code < 0 then
             Scan_errors.fail ~offset:!i ~field:(-1)
               ~cause:"json: bad \\u escape";
           Buffer.add_utf_8_uchar out (Uchar.of_int code);
           i := !i + used
         end
         else
           Scan_errors.fail ~offset:!i ~field:(-1)
             ~cause:"json: truncated \\u escape"
       | c ->
         Scan_errors.fail ~offset:!i ~field:(-1)
           ~cause:(Printf.sprintf "json: bad escape \\%c" c));
      i := !i + 2
    end
    else begin
      Buffer.add_char out c;
      incr i
    end
  done;
  Buffer.contents out

(* ------------------------------------------------------------------ *)
(* Byte-level scanning primitives                                      *)
(* ------------------------------------------------------------------ *)

(* Structural failures carry the byte offset of the violation as a typed
   scan error: reachable from arbitrary user bytes, so never failwith. *)
let fail_at what pos =
  Scan_errors.fail ~offset:pos ~field:(-1) ~cause:("json: " ^ what)

let skip_ws buf len pos =
  let i = ref pos in
  while !i < len && is_ws (Bytes.unsafe_get buf !i) do
    incr i
  done;
  !i

(* String literal starting at the opening quote; returns (body_start,
   body_len, has_escapes, next_pos_after_closing_quote). *)
let string_span buf len pos =
  if pos >= len || Bytes.unsafe_get buf pos <> '"' then
    fail_at "expected string" pos;
  let start = pos + 1 in
  let i = ref start in
  let esc = ref false in
  let closed = ref false in
  while (not !closed) && !i < len do
    match Bytes.unsafe_get buf !i with
    | '"' -> closed := true
    | '\\' ->
      esc := true;
      i := !i + 2
    | _ -> incr i
  done;
  if not !closed then fail_at "unterminated string" pos;
  (start, !i - start, !esc, !i + 1)

(* Value starting at [pos]: returns (kind_tag, vstart, vlen, next_pos).
   kind_tag: 0 scalar (number/bool), 1 string w/o escapes, 2 string w/
   escapes, 3 null, 4 object, 5 array. For objects/arrays the span covers
   the whole composite. *)
let value_span buf len pos =
  let pos = skip_ws buf len pos in
  if pos >= len then fail_at "expected value" pos;
  match Bytes.unsafe_get buf pos with
  | '"' ->
    let s, l, esc, next = string_span buf len pos in
    ((if esc then 2 else 1), s, l, next)
  | '{' | '[' ->
    let open_c = Bytes.unsafe_get buf pos in
    let close_c = if open_c = '{' then '}' else ']' in
    let depth = ref 0 in
    let i = ref pos in
    let finished = ref false in
    while (not !finished) && !i < len do
      (match Bytes.unsafe_get buf !i with
       | '"' ->
         let _, _, _, next = string_span buf len !i in
         i := next - 1
       | c when c = open_c -> incr depth
       | c when c = close_c ->
         decr depth;
         if !depth = 0 then finished := true
       | '}' | ']' -> () (* the other bracket kind at depth>0 *)
       | _ -> ());
      incr i
    done;
    if not !finished then fail_at "unterminated composite" pos;
    ((if open_c = '{' then 4 else 5), pos, !i - pos, !i)
  | 'n' ->
    if pos + 4 <= len && Bytes.sub_string buf pos 4 = "null" then
      (3, pos, 4, pos + 4)
    else fail_at "bad literal" pos
  | _ ->
    (* number / true / false: scan to a delimiter *)
    let i = ref pos in
    let continue_ = ref true in
    while !continue_ && !i < len do
      match Bytes.unsafe_get buf !i with
      | ',' | '}' | ']' | '\n' | ' ' | '\t' | '\r' -> continue_ := false
      | _ -> incr i
    done;
    (0, pos, !i - pos, !i)

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

module Extract = struct
  type kind = Scalar | Quoted of bool | Nul

  type 'a node = L of 'a | N of (string * 'a node) list

  type 'a trie = { root : (string * 'a node) list; order : 'a list }

  let compile paths =
    let rec insert tree keys payload =
      match keys with
      | [] -> invalid_arg "Jsonl.Extract.compile: empty path"
      | [ k ] ->
        if List.mem_assoc k tree then
          invalid_arg ("Jsonl.Extract.compile: duplicate or conflicting path at " ^ k);
        tree @ [ (k, L payload) ]
      | k :: rest ->
        (match List.assoc_opt k tree with
         | Some (N sub) ->
           List.map
             (fun (k', n) -> if k' = k then (k', N (insert sub rest payload)) else (k', n))
             tree
         | Some (L _) ->
           invalid_arg ("Jsonl.Extract.compile: conflicting path at " ^ k)
         | None -> tree @ [ (k, N (insert [] rest payload)) ])
    in
    let root =
      List.fold_left (fun tree (keys, p) -> insert tree keys p) [] paths
    in
    { root; order = List.map snd paths }

  let leaves t = t.order

  let key_matches buf kstart klen key =
    String.length key = klen
    &&
    let rec go i =
      i >= klen || (Bytes.unsafe_get buf (kstart + i) = key.[i] && go (i + 1))
    in
    go 0

  let run ?len buf ~pos ~wanted ~emit =
    let len = Option.value len ~default:(Bytes.length buf) in
    let rec walk_object pos tree =
      let pos = skip_ws buf len pos in
      if pos >= len || Bytes.unsafe_get buf pos <> '{' then
        fail_at "expected object" pos;
      let pos = ref (pos + 1) in
      let continue_ = ref true in
      (* empty object *)
      let p = skip_ws buf len !pos in
      if p < len && Bytes.unsafe_get buf p = '}' then begin
        pos := p + 1;
        continue_ := false
      end;
      while !continue_ do
        let kpos = skip_ws buf len !pos in
        let kstart, klen, _esc, after_key = string_span buf len kpos in
        let colon = skip_ws buf len after_key in
        if colon >= len || Bytes.unsafe_get buf colon <> ':' then
          fail_at "expected ':'" colon;
        let vpos = colon + 1 in
        let matched =
          List.find_opt (fun (k, _) -> key_matches buf kstart klen k) tree
        in
        let next =
          match matched with
          | Some (_, L payload) ->
            let tag, vs, vl, next = value_span buf len vpos in
            (match tag with
             | 0 -> emit payload Scalar vs vl
             | 1 -> emit payload (Quoted false) vs vl
             | 2 -> emit payload (Quoted true) vs vl
             | 3 -> emit payload Nul vs vl
             | _ ->
               (* composite where a scalar was wanted: surface as NULL *)
               emit payload Nul vs 0);
            next
          | Some (_, N sub) ->
            let p = skip_ws buf len vpos in
            if p < len && Bytes.unsafe_get buf p = '{' then walk_object p sub
            else begin
              (* wanted a nested object but found something else: skip *)
              let _, _, _, next = value_span buf len vpos in
              next
            end
          | None ->
            let _, _, _, next = value_span buf len vpos in
            next
        in
        let p = skip_ws buf len next in
        if p < len && Bytes.unsafe_get buf p = ',' then pos := p + 1
        else if p < len && Bytes.unsafe_get buf p = '}' then begin
          pos := p + 1;
          continue_ := false
        end
        else fail_at "expected ',' or '}'" p
      done;
      !pos
    in
    walk_object pos wanted.root

  (* find the value position of [key] inside the object at [pos]; also
     returns the object's end position when the key is absent *)
  let find_key buf len pos key =
    let pos = skip_ws buf len pos in
    if pos >= len || Bytes.unsafe_get buf pos <> '{' then
      fail_at "expected object" pos;
    let cur = ref (pos + 1) in
    let result = ref None in
    let continue_ = ref true in
    let p0 = skip_ws buf len !cur in
    if p0 < len && Bytes.unsafe_get buf p0 = '}' then begin
      cur := p0 + 1;
      continue_ := false
    end;
    while !continue_ do
      let kpos = skip_ws buf len !cur in
      let kstart, klen, _esc, after = string_span buf len kpos in
      let colon = skip_ws buf len after in
      if colon >= len || Bytes.unsafe_get buf colon <> ':' then
        fail_at "expected ':'" colon;
      let vpos = colon + 1 in
      if !result = None && key_matches buf kstart klen key then
        result := Some (skip_ws buf len vpos);
      let _, _, _, next = value_span buf len vpos in
      let p = skip_ws buf len next in
      if p < len && Bytes.unsafe_get buf p = ',' then cur := p + 1
      else if p < len && Bytes.unsafe_get buf p = '}' then begin
        cur := p + 1;
        continue_ := false
      end
      else fail_at "expected ',' or '}'" p
    done;
    (!result, !cur)

  let iter_array_objects ?len buf ~pos ~path ~f =
    let len = Option.value len ~default:(Bytes.length buf) in
    (* the row's end position, independent of whether the path exists *)
    let _, _, _, row_end = value_span buf len pos in
    let rec descend pos = function
      | [] ->
        (* pos is the candidate array *)
        let pos = skip_ws buf len pos in
        if pos < len && Bytes.unsafe_get buf pos = '[' then begin
          let cur = ref (pos + 1) in
          let continue_ = ref true in
          let p0 = skip_ws buf len !cur in
          if p0 < len && Bytes.unsafe_get buf p0 = ']' then continue_ := false;
          while !continue_ do
            let epos = skip_ws buf len !cur in
            if epos < len && Bytes.unsafe_get buf epos = '{' then f epos;
            let _, _, _, next = value_span buf len epos in
            let p = skip_ws buf len next in
            if p < len && Bytes.unsafe_get buf p = ',' then cur := p + 1
            else if p < len && Bytes.unsafe_get buf p = ']' then continue_ := false
            else fail_at "expected ',' or ']'" p
          done
        end
      | key :: rest ->
        let pos = skip_ws buf len pos in
        if pos < len && Bytes.unsafe_get buf pos = '{' then begin
          match fst (find_key buf len pos key) with
          | Some vpos -> descend vpos rest
          | None -> ()
        end
    in
    descend pos path;
    row_end
end

(* ------------------------------------------------------------------ *)
(* Reference parser (on top of the span primitives)                    *)
(* ------------------------------------------------------------------ *)

let parse s =
  let buf = Bytes.of_string s in
  let len = Bytes.length buf in
  let rec value pos =
    let pos = skip_ws buf len pos in
    if pos >= len then fail_at "expected value" pos;
    match Bytes.unsafe_get buf pos with
    | '{' ->
      let fields = ref [] in
      let pos = ref (pos + 1) in
      let p = skip_ws buf len !pos in
      if p < len && Bytes.unsafe_get buf p = '}' then (Object [], p + 1)
      else begin
        let continue_ = ref true in
        while !continue_ do
          let kpos = skip_ws buf len !pos in
          let ks, kl, esc, after = string_span buf len kpos in
          let key =
            if esc then unescape buf ks kl else Bytes.sub_string buf ks kl
          in
          let colon = skip_ws buf len after in
          if colon >= len || Bytes.unsafe_get buf colon <> ':' then
            fail_at "expected ':'" colon;
          let v, next = value (colon + 1) in
          fields := (key, v) :: !fields;
          let p = skip_ws buf len next in
          if p < len && Bytes.unsafe_get buf p = ',' then pos := p + 1
          else if p < len && Bytes.unsafe_get buf p = '}' then begin
            pos := p + 1;
            continue_ := false
          end
          else fail_at "expected ',' or '}'" p
        done;
        (Object (List.rev !fields), !pos)
      end
    | '[' ->
      let items = ref [] in
      let pos = ref (pos + 1) in
      let p = skip_ws buf len !pos in
      if p < len && Bytes.unsafe_get buf p = ']' then (Array [], p + 1)
      else begin
        let continue_ = ref true in
        while !continue_ do
          let v, next = value !pos in
          items := v :: !items;
          let p = skip_ws buf len next in
          if p < len && Bytes.unsafe_get buf p = ',' then pos := p + 1
          else if p < len && Bytes.unsafe_get buf p = ']' then begin
            pos := p + 1;
            continue_ := false
          end
          else fail_at "expected ',' or ']'" p
        done;
        (Array (List.rev !items), !pos)
      end
    | '"' ->
      let s, l, esc, next = string_span buf len pos in
      ((if esc then String (unescape buf s l) else String (Bytes.sub_string buf s l)), next)
    | _ ->
      let tag, vs, vl, next = value_span buf len pos in
      (match tag with
       | 3 -> (Null, next)
       | 0 ->
         let body = Bytes.sub_string buf vs vl in
         (match body with
          | "true" -> (Bool true, next)
          | "false" -> (Bool false, next)
          | _ ->
            (match float_of_string_opt body with
             | Some f -> (Number f, next)
             | None -> fail_at "bad number" pos))
       | _ -> fail_at "unexpected value" pos)
  in
  let v, next = value 0 in
  let next = skip_ws buf len next in
  if next <> len then fail_at "trailing garbage" next;
  v

(* ------------------------------------------------------------------ *)
(* Rows                                                                *)
(* ------------------------------------------------------------------ *)

let row_starts ?(pos = 0) file =
  let buf = Mmap_file.bytes file in
  let len = Mmap_file.length file in
  let starts = Buffer_int.create () in
  let i = ref pos in
  while !i < len do
    (* skip blank space between rows *)
    while !i < len && is_ws (Bytes.unsafe_get buf !i) do
      incr i
    done;
    if !i < len then begin
      Buffer_int.add starts !i;
      while !i < len && Bytes.unsafe_get buf !i <> '\n' do
        incr i
      done
    end
  done;
  Buffer_int.contents starts

let count_rows file = Array.length (row_starts file)
