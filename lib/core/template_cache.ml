open Raw_storage

(* Per-entry synthetic footprint: a compiled artifact is a closure chain a
   few hundred bytes long plus its key. The estimate only has to make
   template eviction *orderable* against shreds and posmaps under one
   byte-denominated budget, not be exact. *)
let entry_bytes key = 256 + String.length key

type t = {
  compile_seconds : float;
  table : (string, Obj.t) Lru.t; (* unbounded; Mem_budget evicts *)
  mutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable charged : float;
  mutable pending_charge : float;
}

let create ~compile_seconds =
  {
    compile_seconds;
    table = Lru.create ();
    mutex = Mutex.create ();
    hits = 0;
    misses = 0;
    charged = 0.;
    pending_charge = 0.;
  }

(* Artifacts are stored as [Obj.t]; the [kind] namespace guarantees that two
   kernels of different types can never share a slot, so [Obj.obj] always
   reproduces the type that went in. A bare shared key would make a
   same-key/different-type collision a memory-safety hole. *)
let slot ~kind ~key = kind ^ "/" ^ key

let get t ~kind ~key compile =
  let bare_key = key in
  let key = slot ~kind ~key in
  Mutex.protect t.mutex (fun () ->
      match Lru.find t.table key with
      | Some artifact ->
        t.hits <- t.hits + 1;
        Raw_obs.Metrics.incr Raw_obs.Metrics.tmpl_hits;
        Raw_obs.Trace.decision ~site:"template_cache" ~choice:"hit"
          [ ("kind", kind); ("key", bare_key) ];
        Obj.obj artifact
      | None ->
        t.misses <- t.misses + 1;
        t.charged <- t.charged +. t.compile_seconds;
        t.pending_charge <- t.pending_charge +. t.compile_seconds;
        Raw_obs.Metrics.incr Raw_obs.Metrics.tmpl_misses;
        Raw_obs.Metrics.add_float Raw_obs.Metrics.tmpl_compile_seconds
          t.compile_seconds;
        Raw_obs.Trace.decision ~site:"template_cache" ~choice:"compile"
          [
            ("kind", kind);
            ("key", bare_key);
            ("charged_seconds", Printf.sprintf "%g" t.compile_seconds);
          ];
        let artifact =
          Raw_obs.Trace.with_span ~cat:"compile"
            ~args:[ ("kind", kind); ("key", bare_key) ]
            "compile" compile
        in
        ignore (Lru.add t.table key (Obj.repr artifact));
        artifact)

let hits t = t.hits
let misses t = t.misses
let charged_seconds t = t.charged

let take_charged_seconds t =
  Mutex.protect t.mutex (fun () ->
      let c = t.pending_charge in
      t.pending_charge <- 0.;
      c)

(* Least recently used first. A dropped template is recompiled, and
   charged again, by the next query that needs it. *)
let items t =
  Mutex.protect t.mutex (fun () ->
      Lru.fold
        (fun key _ acc ->
          let bytes = entry_bytes key in
          let drop () =
            Mutex.protect t.mutex (fun () -> Lru.remove t.table key);
            Raw_obs.Trace.decision ~site:"template_cache" ~choice:"evict"
              [ ("key", key); ("freed_bytes", string_of_int bytes) ]
          in
          { Mem_budget.bytes; drop } :: acc)
        t.table [])

let clear t =
  Mutex.protect t.mutex (fun () ->
      Lru.clear t.table;
      t.hits <- 0;
      t.misses <- 0;
      t.charged <- 0.;
      t.pending_charge <- 0.)

let size t = Lru.length t.table
