open Raw_storage

(* Spans are recorded at close into a handle shared by every domain of the
   query (mutex-protected append; ids from the handle too, so parent links
   are exact across domains). The ambient context is domain-local: when no
   handle is installed — the default — [with_span] and [decision] are one
   DLS read and a match, which is what makes disabled observability
   near-free. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  cat : string;
  tid : int; (* 0 = coordinator, workers are 1 + morsel index *)
  start_s : float; (* relative to the handle's epoch *)
  dur_s : float;
  args : (string * string) list;
}

type handle = {
  mutex : Mutex.t;
  epoch : float;
  mutable recorded : span list; (* reverse completion order *)
  mutable next_id : int;
  mutable decisions : int; (* decision events recorded, at most decision_cap *)
}

type frame = {
  f_id : int;
  f_name : string;
  f_cat : string;
  f_start : float;
  mutable f_args : (string * string) list; (* reverse order *)
}

type ctx = {
  h : handle;
  tid : int;
  base : int option; (* parent for this context's toplevel frames *)
  mutable stack : frame list;
}

let key : ctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let create ?epoch () =
  {
    mutex = Mutex.create ();
    epoch = (match epoch with Some e -> e | None -> Timing.now ());
    recorded = [];
    next_id = 0;
    decisions = 0;
  }

let fresh_id h =
  Mutex.protect h.mutex (fun () ->
      let i = h.next_id in
      h.next_id <- i + 1;
      i)

let push h sp = Mutex.protect h.mutex (fun () -> h.recorded <- sp :: h.recorded)

let enabled () = Domain.DLS.get key <> None

let with_ctx ctx f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key (Some ctx);
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

let with_handle h f = with_ctx { h; tid = 0; base = None; stack = [] } f

(* the innermost open span: the parent of whatever is recorded next *)
let parent_of ctx = match ctx.stack with fr :: _ -> Some fr.f_id | [] -> ctx.base

type fork_point = { fp_h : handle; fp_parent : int option }

let fork () =
  match Domain.DLS.get key with
  | None -> None
  | Some ctx -> Some { fp_h = ctx.h; fp_parent = parent_of ctx }

let with_fork fp ~tid f =
  with_ctx { h = fp.fp_h; tid; base = fp.fp_parent; stack = [] } f

(* Gc.quick_stat with its minor_words taken from Gc.minor_words: under
   OCaml 5.1 quick_stat's minor_words only advances at a minor
   collection, so a span or query smaller than the minor heap would read
   0, while Gc.minor_words is exact and per domain. *)
let gc_stat () = { (Gc.quick_stat ()) with Gc.minor_words = Gc.minor_words () }

(* GC attribution per span, behind the profiling gate. A sample costs no
   minor collection, so sampling at both span boundaries is cheap; the
   deltas are inclusive (they cover the span's children too — the folded
   exporter subtracts). f_args is
   in reverse order: consing minor, major, promoted, gc.minor, gc.major
   leaves them at the tail of the final (List.rev'd) arg list in exactly
   that order. *)
let gc_args g0 (g1 : Gc.stat) args =
  let w v = Printf.sprintf "%.0f" (Float.max 0. v) in
  let promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words in
  (* alloc.major is direct major-heap allocation: the runtime counts
     promotions into major_words, so subtract them back out; total words
     allocated by the span is then alloc.minor + alloc.major *)
  ("gc.major", string_of_int (g1.Gc.major_collections - g0.Gc.major_collections))
  :: ("gc.minor",
      string_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections))
  :: ("alloc.promoted", w promoted)
  :: ("alloc.major", w (g1.Gc.major_words -. g0.Gc.major_words -. promoted))
  :: ("alloc.minor", w (g1.Gc.minor_words -. g0.Gc.minor_words))
  :: args

let with_span ?(cat = "raw") ?(args = []) name f =
  match Domain.DLS.get key with
  | None -> f ()
  | Some ctx ->
    let parent = parent_of ctx in
    let gc0 = if Prof_gate.on () then Some (gc_stat ()) else None in
    let fr =
      {
        f_id = fresh_id ctx.h;
        f_name = name;
        f_cat = cat;
        f_start = Timing.now ();
        f_args = List.rev args;
      }
    in
    ctx.stack <- fr :: ctx.stack;
    Fun.protect
      ~finally:(fun () ->
        let now = Timing.now () in
        (match ctx.stack with _ :: rest -> ctx.stack <- rest | [] -> ());
        (match gc0 with
         | Some g0 -> fr.f_args <- gc_args g0 (gc_stat ()) fr.f_args
         | None -> ());
        push ctx.h
          {
            id = fr.f_id;
            parent;
            name = fr.f_name;
            cat = fr.f_cat;
            tid = ctx.tid;
            start_s = fr.f_start -. ctx.h.epoch;
            dur_s = now -. fr.f_start;
            args = List.rev fr.f_args;
          })
      f

let add_arg k v =
  match Domain.DLS.get key with
  | Some { stack = fr :: _; _ } -> fr.f_args <- (k, v) :: fr.f_args
  | _ -> ()

let alloc = fresh_id

let record h ?id ?(tid = 0) ?parent ?(cat = "raw") ?(args = []) ~start ~dur
    name =
  push h
    {
      id = (match id with Some i -> i | None -> fresh_id h);
      parent;
      name;
      cat;
      tid;
      start_s = start -. h.epoch;
      dur_s = dur;
      args;
    }

(* A decision is a zero-length span under the innermost open span. A
   handle keeps its first decision_cap: the planner's decisions land
   early and must not be evicted by a scan that fetches thousands of
   chunks; later ones are counted as dropped. *)
let decision_cat = "decision"
let decision_cap = 4096

let decision ~site ~choice inputs =
  match Domain.DLS.get key with
  | None -> ()
  | Some ({ h; _ } as ctx) ->
    let kept =
      Mutex.protect h.mutex (fun () ->
          h.decisions < decision_cap
          && (h.decisions <- h.decisions + 1;
              true))
    in
    if kept then
      record h ~tid:ctx.tid ?parent:(parent_of ctx) ~cat:decision_cat
        ~args:(("choice", choice) :: inputs) ~start:(Timing.now ()) ~dur:0.
        site
    else Io_stats.incr "obs.decisions_dropped"

let spans h =
  Mutex.protect h.mutex (fun () -> h.recorded)
  |> List.sort (fun a b ->
         match compare a.start_s b.start_s with 0 -> compare a.id b.id | c -> c)

type decision = {
  site : string;
  choice : string;
  inputs : (string * string) list;
}

let is_decision s = s.cat = decision_cat

let decisions spans =
  List.filter_map
    (fun s ->
      match s.args with
      | ("choice", choice) :: inputs when is_decision s ->
        Some (s.id, { site = s.name; choice; inputs })
      | _ -> None)
    spans
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let pp_decision ppf d =
  Format.fprintf ppf "%s: %s" d.site d.choice;
  if d.inputs <> [] then
    Format.fprintf ppf " (%s)"
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) d.inputs))

(* The tree shape a test can compare across parallelism levels: the set of
   distinct (parent name, name) edges, domain ids and morsel multiplicity
   ignored. *)
let edge_set spans =
  let by_id = Hashtbl.create 32 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s.name) spans;
  List.map
    (fun s ->
      ((match s.parent with
        | Some p -> Hashtbl.find_opt by_id p
        | None -> None),
       s.name))
    spans
  |> List.sort_uniq compare
