open Raw_storage

(* Per-query resource profiling over the existing span machinery.

   Three attributions, all gated by Prof_gate (off by default):

   - GC/allocation: Trace.gc_stat deltas (Gc.quick_stat with exact
     minor words). They are per-domain in
     OCaml 5, so the executor samples around the whole query on the
     coordinator and each morsel worker samples around its own work;
     the sums merge additively at join with no double counting.
     Per-span deltas ride in span args (Trace.with_span captures them
     when the gate is up).
   - Copies: the bytes.copied.<site> counters bumped by Prof_gate.copy
     in the format kernels and builders.
   - The folded-stack export below, which flamegraph.pl and speedscope
     both read: one line per distinct stack, "root;frame;...;frame N".

   Word conventions (see Metrics): alloc.minor = minor-heap words,
   alloc.major = words allocated directly on the major heap (promotions
   subtracted back out), so total words allocated = minor + major. *)

let with_profiling enabled f = Prof_gate.with_gate enabled f

type gc_sample = Gc.stat

let sample = Trace.gc_stat

let record_since (g0 : gc_sample) =
  let g1 = Trace.gc_stat () in
  let pos v = Float.max 0. v in
  let promoted = pos (g1.Gc.promoted_words -. g0.Gc.promoted_words) in
  Metrics.add_float Metrics.alloc_minor_words
    (pos (g1.Gc.minor_words -. g0.Gc.minor_words));
  Metrics.add_float Metrics.alloc_major_words
    (pos (g1.Gc.major_words -. g0.Gc.major_words -. promoted));
  Metrics.add_float Metrics.alloc_promoted_words promoted;
  Metrics.add Metrics.gc_minor_collections
    (max 0 (g1.Gc.minor_collections - g0.Gc.minor_collections));
  Metrics.add Metrics.gc_major_collections
    (max 0 (g1.Gc.major_collections - g0.Gc.major_collections))

let allocated_words counters =
  let f k = match List.assoc_opt k counters with Some v -> v | None -> 0. in
  f "alloc.minor_words" +. f "alloc.major_words"

(* ------------------------------------------------------------------ *)
(* Folded-stack export                                                 *)
(* ------------------------------------------------------------------ *)

let copy_prefix = "bytes.copied."

(* frame separators are structural in the folded format *)
let sanitize_frame name =
  String.map (fun c -> if c = ';' || c = ' ' || c = '\n' then '_' else c) name

let span_alloc_words (s : Trace.span) =
  let f k =
    match List.assoc_opt k s.Trace.args with
    | Some v -> (match float_of_string_opt v with Some x -> x | None -> 0.)
    | None -> 0.
  in
  f "alloc.minor" +. f "alloc.major"

let folded_of_spans spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace by_id s.Trace.id s) spans;
  let children = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.span) ->
      match s.Trace.parent with
      | Some p when Hashtbl.mem by_id p ->
        Hashtbl.replace children p
          (s :: (try Hashtbl.find children p with Not_found -> []))
      | _ -> ())
    spans;
  (* root-first frame names; the depth guard makes a corrupt parent
     cycle degrade to a truncated stack instead of a hang *)
  let rec path acc depth (s : Trace.span) =
    let acc = sanitize_frame s.Trace.name :: acc in
    if depth > 64 then acc
    else
      match s.Trace.parent with
      | Some p -> (
        match Hashtbl.find_opt by_id p with
        | Some ps -> path acc (depth + 1) ps
        | None -> acc)
      | None -> acc
  in
  let weights = Hashtbl.create 64 in
  let bump root frames w =
    if w > 0 then begin
      let key = String.concat ";" (root :: frames) in
      let cur = try Hashtbl.find weights key with Not_found -> 0 in
      Hashtbl.replace weights key (cur + w)
    end
  in
  List.iter
    (fun (s : Trace.span) ->
      let kids = try Hashtbl.find children s.Trace.id with Not_found -> [] in
      let frames = path [] 0 s in
      (* exclusive wall: children (any domain) ran inside this span's
         interval; parallel children can exceed the parent's wall, which
         clamps to 0 rather than going negative *)
      let child_wall =
        List.fold_left (fun a (c : Trace.span) -> a +. c.Trace.dur_s) 0. kids
      in
      bump "wall" frames
        (int_of_float
           (Float.round (1e6 *. Float.max 0. (s.Trace.dur_s -. child_wall))));
      let self_alloc = span_alloc_words s in
      if self_alloc > 0. then begin
        (* allocation deltas are per-domain: a child on another domain
           contributed nothing to this span's inclusive words, so only
           same-tid children subtract *)
        let child_alloc =
          List.fold_left
            (fun a (c : Trace.span) ->
              if c.Trace.tid = s.Trace.tid then a +. span_alloc_words c else a)
            0. kids
        in
        bump "alloc" frames
          (int_of_float (Float.round (Float.max 0. (self_alloc -. child_alloc))))
      end)
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) weights []
  |> List.sort compare
  |> List.map (fun (k, v) -> Printf.sprintf "%s %d\n" k v)
  |> String.concat ""

let folded_of_copies counters =
  counters
  |> List.filter_map (fun (k, v) ->
         if String.starts_with ~prefix:copy_prefix k then
           let site =
             String.sub k (String.length copy_prefix)
               (String.length k - String.length copy_prefix)
           in
           let n = int_of_float (Float.round v) in
           if n > 0 then
             Some (Printf.sprintf "copies;%s %d\n" (sanitize_frame site) n)
           else None
         else None)
  |> List.sort compare |> String.concat ""

(* ------------------------------------------------------------------ *)
(* Reading folded output back: the [rawq profile FILE] report          *)
(* ------------------------------------------------------------------ *)

let parse_folded text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some i -> (
             let stack = String.sub line 0 i in
             let count =
               String.sub line (i + 1) (String.length line - i - 1)
             in
             match int_of_string_opt count with
             | Some n when n >= 0 && stack <> "" ->
               Some (String.split_on_char ';' stack, n)
             | _ -> None))

let unit_of_root = function
  | "wall" -> "us"
  | "alloc" -> "words"
  | "copies" -> "bytes"
  | _ -> "count"

let pp_report ppf text =
  let entries = parse_folded text in
  if entries = [] then
    Format.fprintf ppf "profile: no folded samples (was the query profiled?)@."
  else begin
    (* per root: total weight + per-stack aggregation (server output
       concatenates one folded block per retained trace, so identical
       stacks repeat and re-aggregate here) *)
    let order = ref [] in
    let roots : (string, (string, int) Hashtbl.t) Hashtbl.t =
      Hashtbl.create 8
    in
    List.iter
      (fun (frames, n) ->
        match frames with
        | [] -> ()
        | root :: rest ->
          let tbl =
            match Hashtbl.find_opt roots root with
            | Some t -> t
            | None ->
              let t = Hashtbl.create 32 in
              Hashtbl.replace roots root t;
              order := root :: !order;
              t
          in
          let key = String.concat ";" rest in
          let cur = try Hashtbl.find tbl key with Not_found -> 0 in
          Hashtbl.replace tbl key (cur + n))
      entries;
    (* wall, alloc, copies first; anything else after, in input order *)
    let known = [ "wall"; "alloc"; "copies" ] in
    let rest =
      List.filter (fun r -> not (List.mem r known)) (List.rev !order)
    in
    let present = List.filter (Hashtbl.mem roots) known @ rest in
    Format.fprintf ppf "profile: %d folded line(s), %d root(s)@."
      (List.length entries) (List.length present);
    List.iter
      (fun root ->
        let tbl = Hashtbl.find roots root in
        let stacks =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
          |> List.sort (fun (ka, a) (kb, b) ->
                 match compare b a with 0 -> compare ka kb | c -> c)
        in
        let total = List.fold_left (fun a (_, n) -> a + n) 0 stacks in
        Format.fprintf ppf "@.%s — total %d %s@." root total
          (unit_of_root root);
        let shown = ref 0 in
        List.iter
          (fun (stack, n) ->
            if !shown < 15 then begin
              incr shown;
              Format.fprintf ppf "  %5.1f%% %12d  %s@."
                (if total > 0 then 100. *. float_of_int n /. float_of_int total
                 else 0.)
                n
                (if stack = "" then "(root)" else stack)
            end)
          stacks;
        if List.length stacks > 15 then
          Format.fprintf ppf "  ... %d more stack(s)@."
            (List.length stacks - 15))
      present
  end
