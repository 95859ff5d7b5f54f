(* The served workload: a real [rawq serve] child process over the JSONL
   log, driven through [Server.Client] by two closed-loop sessions that
   meet at a barrier after every epoch; with no request in flight the log
   grows by [sizes.append] rows, then a priming pass re-executes the
   dashboard statements and the sessions resume. *)

open Raw_core
open Pb
module J = Raw_obs.Jsons
module C = Server.Client

let schema =
  String.concat "," (List.map (fun (n, d) -> n ^ ":" ^ String.lowercase_ascii (Raw_vector.Dtype.to_string d)) Data.log_columns)

type server = { pid : int; sock : string }

let connect sock = C.connect ~connect_timeout:5. ~request_timeout:60. sock

(* Spawn and wait for the first answered ping; returns the set-up time. *)
let start ~rawq ~log ~sock ~profile ~errlog =
  (try Sys.remove sock with Sys_error _ -> ());
  let t0 = Util.now () in
  let null = Unix.openfile "/dev/null" [ O_RDWR ] 0 in
  let err = Unix.openfile errlog [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let args =
    [ rawq; "serve"; "--jsonl"; Printf.sprintf "log=%s@%s" log schema; "--socket"; sock ]
    @ if profile then [ "--profile" ] else []
  in
  let pid = Unix.create_process rawq (Array.of_list args) null null err in
  Unix.close null;
  Unix.close err;
  let s = { pid; sock } in
  let rec wait () =
    match connect sock with
    | c ->
      let r = C.ping c in
      C.close c;
      if Result.is_error r then retry () else Util.now () -. t0
    | exception Unix.Unix_error _ -> retry ()
  and retry () =
    (match Unix.waitpid [ WNOHANG ] pid with
     | 0, _ -> ()
     | _ -> failwith "rawq serve exited during start-up");
    if Util.now () -. t0 > 60. then failwith "rawq serve did not answer within 60 s";
    Thread.delay 0.001;
    wait ()
  in
  (s, wait ())

let stop s =
  (match connect s.sock with
   | c -> ignore (C.shutdown c); C.close c
   | exception Unix.Unix_error _ -> Unix.kill s.pid Sys.sigterm);
  ignore (Unix.waitpid [] s.pid)

type cls = First | Prime | Hit | Miss

type sample = {
  cls : cls;
  epoch : int;
  rtt : float;  (** client round trip, seconds *)
  shared : bool;  (** answered by a shared scan with the other session *)
  timing : (string * float) list;  (** the response's server-side split *)
  ok : bool;
}

type phase = {
  samples : sample list;
  epochs : float list;  (** wall time of each epoch *)
  factors : float array;
      (** per epoch, the {!Util.speed_factor} measured at the barrier
          before it, with no request in flight *)
  responses : J.t list;  (** for the JSON layer probes *)
  stats : J.t option;  (** the server's counters at the end *)
  engine : (string * float) list;
      (** the server's engine counters at the end, from the metrics op,
          keyed by exposition name *)
  rss : float;
}

(* "raw_pool_hits_total 12" lines of the Prometheus exposition *)
let parse_exposition text =
  String.split_on_char '\n' text
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' l with
         | [ name; v ] when not (String.starts_with ~prefix:"#" name) ->
           Option.map (fun f -> (name, f)) (float_of_string_opt v)
         | _ -> None)

let prom_key k = "raw_" ^ String.map (fun c -> if c = '.' then '_' else c) k

let engine_counter counts k = Option.value ~default:0. (List.assoc_opt (prom_key k ^ "_total") counts)

let engine_prefix counts p =
  let p = prom_key p in
  List.fold_left (fun a (k, v) -> if String.starts_with ~prefix:p k then a +. v else a) 0. counts

(* one request: time it, record the answer for the oracle *)
let request conn ~answers ~tag ~sql ~cls ~epoch ~keep =
  let t0 = Util.now () in
  let r =
    match conn with
    | Ok conn -> C.query conn sql
    | Error detail -> Error { C.kind = C.Refused; detail }
  in
  let rtt = Util.now () -. t0 in
  match r with
  | Ok j when J.member "ok" j = Some (J.Bool true) ->
    let timing =
      match J.member "timing" j with
      | Some (J.Obj l) -> List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (J.to_float_opt v)) l
      | _ -> []
    in
    let fields = List.filter (fun (k, _) -> k = "types" || k = "rows") (match j with J.Obj l -> l | _ -> []) in
    answers := J.Obj (tag @ fields) :: !answers;
    let shared = J.member "shared" j = Some (J.Bool true) in
    ({ cls; epoch; rtt; shared; timing; ok = true }, if keep then Some j else None)
  | Ok j ->
    answers := J.Obj (tag @ [ ("error", J.Str (J.to_string j)) ]) :: !answers;
    ({ cls; epoch; rtt; shared = false; timing = []; ok = false }, None)
  | Error e ->
    answers := J.Obj (tag @ [ ("error", J.Str (C.err_to_string e)) ]) :: !answers;
    ({ cls; epoch; rtt; shared = false; timing = []; ok = false }, None)

(* Epochs until [stop_after] says so. [log] is the served file; rows
   appended at epoch [e] are those of [Data.log_rows_at]. *)
let run_phase ~sz ~seed ~log ~server ~answers_oc ~keep ~stop_after =
  let dash = Script.dashboards ~seed in
  let m = Mutex.create () and cv = Condition.create () in
  let released = ref (-1) and arrived = ref 0 and stopping = ref false in
  let results = Array.make 2 [] and kept = Array.make 2 [] in
  let answers = Array.init 2 (fun _ -> ref []) in
  let session k () =
    (* a session that cannot connect still meets every barrier, failing
       its requests, so the phase ends instead of waiting for it *)
    let conn = try Ok (connect server.sock) with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e) in
    let ans = answers.(k) in
    (* round [r] is round [r mod 2] of epoch [r / 2] *)
    let rec loop r =
      Mutex.lock m;
      while !released < r && not !stopping do Condition.wait cv m done;
      let stop = !stopping in
      Mutex.unlock m;
      if not stop then begin
        let e = r / 2 in
        List.iter
          (fun req ->
            let q = Script.request_query ~seed ~session:k ~epoch:e req in
            let tag =
              [ ("c", J.Int k); ("e", J.Int e) ]
              @ match req with Script.Dashboard i -> [ ("d", J.Int i) ] | Adhoc i -> [ ("a", J.Int i) ]
            in
            let cls = match req with Script.Dashboard _ -> Hit | Adhoc _ -> Miss in
            let s, j = request conn ~answers:ans ~tag ~sql:(Script.to_sql q) ~cls ~epoch:e ~keep in
            results.(k) <- s :: results.(k);
            Option.iter (fun j -> kept.(k) <- j :: kept.(k)) j)
          (List.nth (Script.rounds ~seed ~session:k ~epoch:e) (r mod 2));
        Mutex.lock m;
        incr arrived;
        Condition.broadcast cv;
        Mutex.unlock m;
        loop (r + 1)
      end
    in
    loop 0;
    Result.iter C.close conn
  in
  let threads = List.init 2 (fun k -> Thread.create (session k) ()) in
  let main = connect server.sock in
  let main_conn = Ok main in
  let prime_answers = ref [] and prime = ref [] and epochs = ref [] and factors = ref [] in
  let t_start = Util.now () in
  let rec epoch e =
    factors := Util.speed_factor [ Util.reference () ] :: !factors;
    let t0 = Util.now () in
    if e > 0 then
      Data.write_log ~path:log ~seed ~first:(Data.log_rows_at sz (e - 1)) ~last:(Data.log_rows_at sz e) ~append:true;
    List.iteri
      (fun i q ->
        let s, _ =
          request main_conn ~answers:prime_answers ~tag:[ ("c", J.Int (-1)); ("e", J.Int e); ("d", J.Int i) ]
            ~sql:(Script.to_sql q) ~cls:(if i = 0 then First else Prime) ~epoch:e ~keep:false
        in
        prime := s :: !prime)
      dash;
    List.iter
      (fun r ->
        Mutex.lock m;
        arrived := 0;
        released := r;
        Condition.broadcast cv;
        while !arrived < 2 do Condition.wait cv m done;
        Mutex.unlock m)
      [ 2 * e; (2 * e) + 1 ];
    epochs := (Util.now () -. t0) :: !epochs;
    if stop_after ~epochs:(e + 1) ~elapsed:(Util.now () -. t_start) then begin
      Mutex.lock m;
      stopping := true;
      Condition.broadcast cv;
      Mutex.unlock m
    end
    else epoch (e + 1)
  in
  epoch 0;
  List.iter Thread.join threads;
  let stats = match C.stats main with Ok j -> J.member "counters" j | Error _ -> None in
  let engine =
    match C.metrics main with
    | Ok j -> parse_exposition (Option.value ~default:"" (Option.bind (J.member "exposition" j) J.to_string_opt))
    | Error _ -> []
  in
  C.close main;
  let rss = Util.peak_rss_mb (Some server.pid) in
  List.iter
    (fun l -> List.iter (fun j -> Util.write_answer answers_oc (match j with J.Obj f -> f | _ -> [])) (List.rev !l))
    (prime_answers :: Array.to_list answers);
  {
    samples = !prime @ results.(0) @ results.(1);
    epochs = List.rev !epochs;
    factors = Array.of_list (List.rev !factors);
    responses = kept.(0) @ kept.(1);
    stats;
    engine;
    rss;
  }

let fresh_log ~dir ~log =
  let ic = open_in_bin (Data.log_base dir) and oc = open_out_bin log in
  Fun.protect
    ~finally:(fun () -> close_in ic; close_out oc)
    (fun () ->
      let buf = Bytes.create 65536 in
      let rec copy () = let n = input ic buf 0 65536 in if n > 0 then (output oc buf 0 n; copy ()) in
      copy ())

(* Served times with the engine's share scaled to the reference speed of
   their epoch ({!Util.reference}, measured in this process at the barrier
   while the server idles); the rest is reported as measured. Most of a
   cache hit is the server's 2 ms batch window, a timed wait the host's
   speed does not stretch (scaling whole round trips spread the hit median
   over 1.8-2.8 ms in ten runs), while a rescan is engine work (unscaled,
   its median spread 10%). The engine's share of a request is its
   response's execute_s; a shared scan serves both sessions at once, so
   each member owns half of it within an epoch. *)
let exec s = Option.value ~default:0. (List.assoc_opt "execute_s" s.timing)

let ms p samples = List.map (fun s -> (s.rtt -. (exec s *. (1. -. p.factors.(s.epoch)))) *. 1e3) samples

let epoch_seconds p =
  let engine = Array.make (Array.length p.factors) 0. in
  List.iter (fun s -> engine.(s.epoch) <- engine.(s.epoch) +. (exec s *. if s.shared then 0.5 else 1.)) p.samples;
  List.mapi (fun e t -> t -. (engine.(e) *. (1. -. p.factors.(e)))) p.epochs

let class_ms p cls = Util.median (ms p (List.filter (fun s -> s.cls = cls) p.samples))

let attempted p = List.length p.samples
let failed p = List.length (List.filter (fun s -> not s.ok) p.samples)

(* A server over the log of [dir], its socket beside it (a relative path,
   well inside the socket path length limit); [f] runs while it serves. *)
let with_server ~rawq ~dir ~profile f =
  let log = Data.log_file dir in
  let sock = Filename.concat dir (Printf.sprintf "s%d.sock" (Unix.getpid ())) in
  let server, setup = start ~rawq ~log ~sock ~profile ~errlog:(Filename.concat dir "serve.err") in
  Fun.protect ~finally:(fun () -> stop server) (fun () -> (setup, f ~log ~server))

let cls_name = function First -> "first" | Prime -> "prime" | Hit -> "hit" | Miss -> "miss"

(* per-class sample counts and percentiles, for the human-readable log *)
let summary p =
  List.iter
    (fun c ->
      let xs = ms p (List.filter (fun s -> s.cls = c) p.samples) in
      Printf.eprintf "  %-6s n=%-5d p10 %8.2f  p50 %8.2f  p90 %8.2f  p99 %8.2f  max %8.2f ms\n" (cls_name c)
        (List.length xs) (Util.quantile 0.1 xs) (Util.median xs) (Util.quantile 0.9 xs) (Util.quantile 0.99 xs)
        (Util.quantile 1. xs))
    [ First; Prime; Hit; Miss ]

let end_to_end ~setup p =
  summary p;
  let all = ms p p.samples in
  let epochs = epoch_seconds p in
  [
    ("setup_s", "s", setup);
    ("first_query_ms", "ms", class_ms p First);
    ("adapt_query_ms", "ms", class_ms p Miss);
    ("warm_query_ms", "ms", class_ms p Hit);
    ("session_s", "s", Util.median epochs);
    ("latency_p50_ms", "ms", Util.quantile 0.5 all);
    ("latency_p99_ms", "ms", Util.quantile 0.99 all);
    ("throughput_qps", "1/s", float (List.length all) /. List.fold_left ( +. ) 0. epochs);
    ("peak_rss_mb", "MB", p.rss);
  ]

(* Set-up is sampled over 20 extra start/stop cycles before the measured
   server starts over a freshly restored log. *)
let run ~rawq ~sz ~seed ~dir ~seconds ~answers =
  fresh_log ~dir ~log:(Data.log_file dir);
  let setups = List.init 20 (fun _ -> fst (with_server ~rawq ~dir ~profile:false (fun ~log:_ ~server:_ -> ()))) in
  fresh_log ~dir ~log:(Data.log_file dir);
  let setup, p =
    with_server ~rawq ~dir ~profile:false (fun ~log ~server ->
        run_phase ~sz ~seed ~log ~server ~answers_oc:answers ~keep:false
          ~stop_after:(fun ~epochs:_ ~elapsed -> elapsed >= seconds))
  in
  (p, end_to_end ~setup:(Util.median (setup :: setups)) p)

(* ---------- per-layer view of served phases ---------- *)

let counter stats k =
  match Option.bind stats (J.member k) with Some v -> Option.value ~default:0. (J.to_float_opt v) | None -> 0.

let timing_ms key samples =
  Util.median (List.filter_map (fun s -> Option.map (fun v -> v *. 1e3) (List.assoc_opt key s.timing)) samples)

let layers p =
  let c = counter p.stats in
  let executed = List.filter (fun s -> s.cls <> Hit && s.ok) p.samples in
  let transport =
    Util.median
      (List.filter_map
         (fun s -> Option.map (fun t -> (s.rtt -. t) *. 1e3) (List.assoc_opt "total_s" s.timing))
         p.samples)
  in
  let lines = List.map J.to_string p.responses in
  let bytes = List.fold_left (fun a l -> a + String.length l) 0 lines in
  let parse_ns =
    Util.ns_per_unit ~budget:0.2 (fun () ->
        let (), dt = Util.time (fun () -> List.iter (fun l -> ignore (J.parse l)) lines) in
        (dt, bytes))
  in
  let encode_ns =
    Util.ns_per_unit ~budget:0.2 (fun () ->
        let (), dt = Util.time (fun () -> List.iter (fun j -> ignore (J.to_string j)) p.responses) in
        (dt, bytes))
  in
  [
    ("server.read_ms", "ms", timing_ms "read_s" p.samples);
    ("server.queue_ms", "ms", timing_ms "queue_s" p.samples);
    ("server.execute_ms", "ms", timing_ms "execute_s" executed);
    ("server.transport_ms", "ms", transport);
    ("stmt_cache.hit_ratio", "ratio", Oneshot.ratio (c "cache.stmt.hits") (c "cache.stmt.misses"));
    ("result_cache.hit_ratio", "ratio", Oneshot.ratio (c "cache.result.hits") (c "cache.result.misses"));
    ("result_cache.hits", "count", c "cache.result.hits");
    ("result_cache.misses", "count", c "cache.result.misses");
    ("cache.invalidations", "count", c "cache.invalidations");
    ("shared_scan.batched_share", "ratio",
     let m = c "cache.result.misses" in if m = 0. then 0. else c "server.batched_queries" /. m);
    ("jsons.encode_ns_per_byte", "ns/B", encode_ns);
    ("jsons.parse_ns_per_byte", "ns/B", parse_ns);
  ]

(* Traced: untraced (A) and profiled (B) servers in ABBA order, each for a
   fixed number of epochs, so that cache counts repeat exactly. The layer
   metrics come from the first profiled phase. *)
let run_traced ~rawq ~sz ~seed ~dir ~epochs ~answers =
  let phase profile =
    fresh_log ~dir ~log:(Data.log_file dir);
    snd
      (with_server ~rawq ~dir ~profile (fun ~log ~server ->
           run_phase ~sz ~seed ~log ~server ~answers_oc:answers ~keep:profile
             ~stop_after:(fun ~epochs:e ~elapsed:_ -> e >= epochs)))
  in
  let a1 = phase false in
  let b1 = phase true in
  let b2 = phase true in
  let a2 = phase false in
  let session_s l = Util.median (List.concat_map (fun p -> p.epochs) l) in
  let qps l = float (List.fold_left (fun a p -> a + attempted p) 0 l) /. List.fold_left (fun a p -> List.fold_left ( +. ) a p.epochs) 0. l in
  ( [ a1; b1; b2; a2 ],
    layers b1
    @ [
        ("trace.session_s_overhead", "ratio", (session_s [ b1; b2 ] /. session_s [ a1; a2 ]) -. 1.);
        ("trace.throughput_qps_overhead", "ratio", 1. -. (qps [ b1; b2 ] /. qps [ a1; a2 ]));
      ] )
