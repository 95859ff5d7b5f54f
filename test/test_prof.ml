(* Resource profiler: folded-stack export, profiled-vs-unprofiled
   bit-identity, copy-site determinism, and the Jsons fuzz that backs
   the profile/history serialization path. *)

open Raw_core
open Raw_vector
open Test_util
module Trace = Raw_obs.Trace
module Prof = Raw_obs.Prof
module Jsons = Raw_obs.Jsons
module Prof_gate = Raw_storage.Prof_gate

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let span ?parent ?(tid = 0) ?(args = []) ~id ~name ~dur () =
  {
    Trace.id;
    parent;
    name;
    cat = "q";
    tid;
    start_s = 0.;
    dur_s = dur;
    args;
  }

(* ------------------------------------------------------------------ *)
(* Folded-stack exporter                                               *)
(* ------------------------------------------------------------------ *)

let folded_suite =
  [
    Alcotest.test_case "known tree: exclusive wall and per-domain alloc"
      `Quick (fun () ->
        (* query(100us, 1000w) -> scan(60us, 400w) -> morsel(10us, 300w,
           tid 1). Wall exclusive subtracts children on any domain;
           alloc exclusive subtracts same-tid children only (GC deltas
           are per-domain, so the cross-domain morsel never contributed
           to scan's inclusive words). *)
        let spans =
          [
            span ~id:1 ~name:"query" ~dur:100e-6
              ~args:[ ("alloc.minor", "1000"); ("alloc.major", "0") ]
              ();
            span ~id:2 ~parent:1 ~name:"scan" ~dur:60e-6
              ~args:[ ("alloc.minor", "400") ]
              ();
            span ~id:3 ~parent:2 ~tid:1 ~name:"morsel" ~dur:10e-6
              ~args:[ ("alloc.minor", "300") ]
              ();
          ]
        in
        Alcotest.(check string)
          "folded lines"
          "alloc;query 600\n\
           alloc;query;scan 400\n\
           alloc;query;scan;morsel 300\n\
           wall;query 40\n\
           wall;query;scan 50\n\
           wall;query;scan;morsel 10\n"
          (Prof.folded_of_spans spans));
    Alcotest.test_case "parallel children clamp exclusive wall to zero"
      `Quick (fun () ->
        (* two 8us children overlap inside a 10us parent: exclusive wall
           would be -6us; it clamps to 0 and the parent line is omitted *)
        let spans =
          [
            span ~id:1 ~name:"scan" ~dur:10e-6 ();
            span ~id:2 ~parent:1 ~tid:1 ~name:"morsel" ~dur:8e-6 ();
            span ~id:3 ~parent:1 ~tid:2 ~name:"morsel" ~dur:8e-6 ();
          ]
        in
        Alcotest.(check string)
          "no negative weights, no alloc root for unprofiled spans"
          "wall;scan;morsel 16\n"
          (Prof.folded_of_spans spans));
    Alcotest.test_case "frame names sanitize the structural separators"
      `Quick (fun () ->
        let spans = [ span ~id:1 ~name:"a;b c\nd" ~dur:5e-6 () ] in
        Alcotest.(check string)
          "separators replaced" "wall;a_b_c_d 5\n"
          (Prof.folded_of_spans spans));
    Alcotest.test_case "folded_of_copies keeps positive copy sites only"
      `Quick (fun () ->
        Alcotest.(check string)
          "two-frame copies lines"
          "copies;builder.column 64\ncopies;csv.field 123\n"
          (Prof.folded_of_copies
             [
               ("bytes.copied.csv.field", 123.);
               ("bytes.copied.builder.column", 64.);
               ("bytes.copied.idle", 0.);
               ("scan.rows_scanned", 999.);
             ]));
    Alcotest.test_case "parse_folded round-trips and skips malformed lines"
      `Quick (fun () ->
        let text =
          "wall;query 40\n\
           garbage\n\
           stack notanumber\n\
           ;toothless -3\n\
           copies;csv.field 123\n"
        in
        Alcotest.(check (list (pair (list string) int)))
          "parsed rows"
          [ ([ "wall"; "query" ], 40); ([ "copies"; "csv.field" ], 123) ]
          (Prof.parse_folded text);
        (* a full export survives the round trip *)
        let folded =
          Prof.folded_of_spans
            [
              span ~id:1 ~name:"query" ~dur:100e-6 ();
              span ~id:2 ~parent:1 ~name:"scan" ~dur:60e-6 ();
            ]
        in
        Alcotest.(check (list (pair (list string) int)))
          "export parses back"
          [ ([ "wall"; "query" ], 40); ([ "wall"; "query"; "scan" ], 60) ]
          (Prof.parse_folded folded));
    Alcotest.test_case "pp_report ranks stacks per root" `Quick (fun () ->
        let text =
          "wall;query;scan 75\nwall;query 25\nalloc;query 10\n\
           copies;csv.field 5\nwall;query;scan 25\n"
        in
        let report = Format.asprintf "%a" Prof.pp_report text in
        List.iter
          (fun needle ->
            Alcotest.(check bool)
              ("report contains " ^ needle)
              true (contains report needle))
          [
            "5 folded line(s), 3 root(s)";
            "wall — total 125 us";
            (* the two wall;query;scan lines re-aggregate to 100 = 80% *)
            "80.0%          100  query;scan";
            "alloc — total 10 words";
            "copies — total 5 bytes";
          ];
        let empty = Format.asprintf "%a" Prof.pp_report "" in
        Alcotest.(check bool)
          "empty input says so" true
          (contains empty "no folded samples"));
  ]

(* ------------------------------------------------------------------ *)
(* Profiling must not change results: bit-identity across formats and  *)
(* parallelism                                                         *)
(* ------------------------------------------------------------------ *)

let differential_suite =
  let csv_path, fwb_path =
    lazy (twin_files ~n_rows:600 ~dtypes:[| Dtype.Int; Dtype.Float |] ~seed:11)
    |> fun l -> (lazy (fst (Lazy.force l)), lazy (snd (Lazy.force l)))
  in
  let jsonl_path =
    lazy
      (let path = fresh_path ".jsonl" in
       Raw_formats.Jsonl.generate ~path ~n_rows:600
         ~fields:[ ("a", Dtype.Int); ("x", Dtype.Float) ]
         ~seed:11 ();
       path)
  in
  let hep_path =
    lazy
      (let path = fresh_path ".hep" in
       Raw_formats.Hep.generate ~path ~n_events:200 ~seed:11 ();
       path)
  in
  let cols = [ ("col0", Dtype.Int); ("col1", Dtype.Float) ] in
  let cases =
    [
      ( "csv",
        (fun db ->
          Raw_db.register_csv db ~name:"t" ~path:(Lazy.force csv_path)
            ~columns:cols ()),
        "SELECT COUNT(*), SUM(col1), MIN(col0) FROM t WHERE col0 < 500000000"
      );
      ( "fwb",
        (fun db ->
          Raw_db.register_fwb db ~name:"t" ~path:(Lazy.force fwb_path)
            ~columns:cols),
        "SELECT COUNT(*), SUM(col1), MIN(col0) FROM t WHERE col0 < 500000000"
      );
      ( "jsonl",
        (fun db ->
          Raw_db.register_jsonl db ~name:"t" ~path:(Lazy.force jsonl_path)
            ~columns:[ ("a", Dtype.Int); ("x", Dtype.Float) ]),
        "SELECT COUNT(*), SUM(x), AVG(x) FROM t WHERE a < 500000000" );
      ( "hep",
        (fun db ->
          Raw_db.register_hep db ~name_prefix:"h" ~path:(Lazy.force hep_path)),
        "SELECT COUNT(*), SUM(pt) FROM h_muons WHERE pt > 10.0" );
    ]
  in
  let run ~profile ~par register query =
    let config = { Config.default with Config.parallelism = par; profile } in
    let db = Raw_db.create ~config () in
    register db;
    Raw_db.query db query
  in
  List.concat_map
    (fun (fmt, register, query) ->
      List.map
        (fun par ->
          Alcotest.test_case
            (Printf.sprintf "%s / par %d: profiled result bit-identical" fmt
               par)
            `Quick
            (fun () ->
              let off = run ~profile:false ~par register query in
              let on = run ~profile:true ~par register query in
              check_chunk "same chunk" off.Executor.chunk on.Executor.chunk;
              (* profiling adds alloc.*/gc.*/bytes.copied.* counters but
                 must not move any pre-existing work counter; drop the
                 wall-clock entries (latency histograms, per-domain
                 seconds) exactly as the par/seq shape test does *)
              let work (r : Executor.report) =
                List.filter
                  (fun (k, _) ->
                    k <> "posmap.segments_merged"
                    && k <> "io.simulated_seconds"
                    && (not (String.starts_with ~prefix:"alloc." k))
                    && (not (String.starts_with ~prefix:"gc." k))
                    && (not (String.starts_with ~prefix:"bytes.copied." k))
                    &&
                    match Raw_obs.Metrics.owner k with
                    | Some m ->
                      Raw_obs.Metrics.kind m <> Raw_obs.Metrics.Histogram
                    | None -> true)
                  r.Executor.counters
              in
              (* counter deltas are computed against each run's prior
                 accumulated float state, so float-valued entries (the
                 simulated compile charge) can differ in the last ulp *)
              Alcotest.(check (list (pair string (float 1e-9))))
                "work counters unmoved" (work off) (work on)))
        [ 1; 4 ])
    cases

(* ------------------------------------------------------------------ *)
(* Deterministic copy sites: par == seq                                *)
(* ------------------------------------------------------------------ *)

(* The per-row copy sites charge exactly once per value regardless of
   morsel fan-out, so a profiled query must report identical byte counts
   at parallelism 1 and 4. (builder.grow is excluded — growth doubling
   depends on per-builder row counts, which are morsel-local — and
   builder.column is deterministic only for null-free data, which all
   three generators below produce.) *)
let deterministic_sites =
  [
    "bytes.copied.csv.field";
    "bytes.copied.csv.value";
    "bytes.copied.jsonl.value";
    "bytes.copied.jsonl.unescape";
    "bytes.copied.hep.particles";
    "bytes.copied.builder.column";
  ]

let site_vector (r : Executor.report) =
  List.map
    (fun k ->
      ( k,
        match List.assoc_opt k r.Executor.counters with
        | Some v -> v
        | None -> 0. ))
    deterministic_sites

let determinism_suite =
  let profiled par = { Config.default with Config.parallelism = par; profile = true } in
  let case ?(expect_bytes = true) name build query =
    Alcotest.test_case (name ^ ": copy bytes par == seq") `Quick (fun () ->
        let run par =
          let db = Raw_db.create ~config:(profiled par) () in
          build db;
          Raw_db.query db query
        in
        let r1 = run 1 and r4 = run 4 in
        Alcotest.(check (list (pair string (float 0.))))
          "identical copy-site bytes" (site_vector r1) (site_vector r4);
        if expect_bytes then
          Alcotest.(check bool)
            "profiling observed at least one copy site" true
            (List.exists (fun (_, v) -> v > 0.) (site_vector r1)))
  in
  let csv_build db =
    let path = write_csv_rows (grid_rows 400 4) in
    Raw_db.register_csv db ~name:"t" ~path ~columns:(int_cols 4) ()
  in
  let jsonl_build db =
    let path = fresh_path ".jsonl" in
    Raw_formats.Jsonl.generate ~path ~n_rows:400
      ~fields:[ ("a", Dtype.Int); ("x", Dtype.Float) ]
      ~missing_probability:0. ~seed:13 ();
    Raw_db.register_jsonl db ~name:"t" ~path
      ~columns:[ ("a", Dtype.Int); ("x", Dtype.Float) ]
  in
  let hep_build db =
    let path = fresh_path ".hep" in
    Raw_formats.Hep.generate ~path ~n_events:150 ~seed:13 ();
    Raw_db.register_hep db ~name_prefix:"h" ~path
  in
  [
    case "csv" csv_build "SELECT SUM(col1) FROM t WHERE col0 < 30000";
    case "jsonl" jsonl_build "SELECT SUM(x) FROM t WHERE a < 500000000";
    (* the HEP particle scan reads fields by index straight off the map
       (zero-copy), so its deterministic vector is all zeros — the
       equality still pins that profiling added no morsel-local copies *)
    case ~expect_bytes:false "hep" hep_build
      "SELECT COUNT(*), SUM(pt) FROM h_muons WHERE pt > 5.0";
  ]
  @ [
      Alcotest.test_case "profiled query bumps only declared keys" `Quick
        (fun () ->
          let db =
            grid_csv_db ~config:{ Config.default with profile = true } ~n:80
              ~m:4 ()
          in
          let before = Raw_storage.Io_stats.snapshot () in
          ignore (Raw_db.query db "SELECT MAX(col1) FROM t WHERE col0 < 4000");
          let undeclared =
            List.filter_map
              (fun (k, v) ->
                let v0 =
                  match List.assoc_opt k before with Some x -> x | None -> 0.
                in
                if v -. v0 <> 0. && Raw_obs.Metrics.owner k = None then Some k
                else None)
              (Raw_storage.Io_stats.snapshot ())
          in
          Alcotest.(check (list string)) "no undeclared keys" [] undeclared);
      Alcotest.test_case "gate off: copy sites stay silent" `Quick (fun () ->
          let site = Prof_gate.site "test.silent" in
          Prof_gate.with_gate false (fun () -> Prof_gate.copy site 4096);
          Alcotest.(check (float 0.))
            "no bytes recorded" 0.
            (Raw_storage.Io_stats.get_float "bytes.copied.test.silent");
          Prof_gate.with_gate true (fun () -> Prof_gate.copy site 4096);
          Alcotest.(check (float 0.))
            "gate up records" 4096.
            (Raw_storage.Io_stats.get_float "bytes.copied.test.silent"));
      Alcotest.test_case "a query smaller than the minor heap counts its words"
        `Quick (fun () ->
          let db =
            grid_csv_db ~config:{ Config.default with profile = true } ~n:80
              ~m:4 ()
          in
          let sql = "SELECT MAX(col1) FROM t WHERE col0 < 4000" in
          ignore (Raw_db.query db sql);
          (* an empty minor heap, so the warm repeat runs without a
             minor collection *)
          Gc.minor ();
          let r = Raw_db.query db sql in
          let get k =
            match List.assoc_opt k r.Executor.counters with
            | Some v -> v
            | None -> 0.
          in
          Alcotest.(check (float 0.))
            "no minor collection during the query" 0.
            (get "gc.minor_collections");
          Alcotest.(check bool)
            "alloc.minor_words > 0" true
            (get "alloc.minor_words" > 0.));
    ]

(* ------------------------------------------------------------------ *)
(* Jsons fuzz: the serialization layer under history + profile export  *)
(* ------------------------------------------------------------------ *)

(* What the writer is allowed to normalize: nan/inf emit as 0, and
   integral floats below 1e15 print without a fraction, so they parse
   back as Int (exactly — they are below 2^53). Everything else must
   round-trip bit-exactly. *)
let rec normalize = function
  | Jsons.Float f ->
    if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
      Jsons.Int 0
    else if Float.is_integer f && Float.abs f < 1e15 then
      Jsons.Int (int_of_float f)
    else Jsons.Float f
  | Jsons.List l -> Jsons.List (List.map normalize l)
  | Jsons.Obj l -> Jsons.Obj (List.map (fun (k, v) -> (k, normalize v)) l)
  | v -> v

let gen_byte_string =
  QCheck2.Gen.(
    string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 12))

let gen_float =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [
            Float.nan;
            Float.infinity;
            Float.neg_infinity;
            -0.;
            0.;
            3.0;
            -7.0;
            1e14;
            1e15;
            1e20;
            -1e15;
            0.1;
            Float.pi;
            4.9e-324;
            1.7976931348623157e308;
            1e-308;
            123456789.123456789;
            1726000000.123456;
          ];
        float;
      ])

let gen_json =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Jsons.Null;
                 map (fun b -> Jsons.Bool b) bool;
                 map (fun i -> Jsons.Int i) int;
                 map (fun f -> Jsons.Float f) gen_float;
                 map (fun s -> Jsons.Str s) gen_byte_string;
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 ( 1,
                   map
                     (fun l -> Jsons.List l)
                     (list_size (int_bound 4) (self (n / 2))) );
                 ( 1,
                   map
                     (fun l -> Jsons.Obj l)
                     (list_size (int_bound 4)
                        (pair gen_byte_string (self (n / 2)))) );
               ]))

let fuzz_suite =
  [
    qtest ~count:500 "to_string/parse round-trips modulo float normalization"
      gen_json
      (fun v -> Jsons.parse (Jsons.to_string v) = Ok (normalize v));
    qtest ~count:500 "adversarial byte strings survive exactly"
      gen_byte_string
      (fun s ->
        Jsons.parse (Jsons.to_string (Jsons.Str s)) = Ok (Jsons.Str s));
    qtest ~count:500 "object keys survive exactly"
      QCheck2.Gen.(pair gen_byte_string gen_byte_string)
      (fun (k, s) ->
        Jsons.parse (Jsons.to_string (Jsons.Obj [ (k, Jsons.Str s) ]))
        = Ok (Jsons.Obj [ (k, Jsons.Str s) ]));
    qtest ~count:500 "float round-trip is exact or the documented clamp"
      gen_float
      (fun f ->
        match Jsons.parse (Jsons.to_string (Jsons.Float f)) with
        | Ok v -> v = normalize (Jsons.Float f)
        | Error _ -> false);
  ]

let suites =
  [
    ("prof.folded", folded_suite);
    ("prof.differential", differential_suite);
    ("prof.determinism", determinism_suite);
    ("obs.jsons_fuzz", fuzz_suite);
  ]
