(* Seed-derived inputs of every workload.

   Everything here is a pure function of the seed: the measured program
   receives only the files written by [generate], and the oracle rebuilds
   the same values from the same generators ([Fwb.row_values], [Hep] and
   the log row function below) without reading the engine's answers. *)

open Raw_vector
open Raw_formats

type sizes = {
  n30 : int;  (** rows of the paper's 30-int table and its shuffled copy *)
  n120 : int;  (** rows of the 120-column int/float table *)
  n_events : int;  (** HEP events *)
  n_log : int;  (** JSONL log rows before the first append *)
  append : int;  (** log rows appended at each served barrier *)
  probe_rows : int;  (** rows of the prefix files the layer probes read *)
  probe_events : int;
}

(* Sized so that a 20 s run holds about 15 one-shot sessions (a first
   query over t30 takes about 0.2 s; t120 tokenizes in similar time) and
   50-60 served epochs, in which the rescan of the 25k-row log is 3-10
   times slower than any other request. *)
let full =
  {
    n30 = 60_000;
    n120 = 18_000;
    n_events = 40_000;
    n_log = 25_000;
    append = 50;
    probe_rows = 20_000;
    probe_events = 5_000;
  }

let tiny =
  {
    n30 = 600;
    n120 = 300;
    n_events = 200;
    n_log = 500;
    append = 20;
    probe_rows = 200;
    probe_events = 50;
  }

(* ---------- relational tables ---------- *)

type table = T30 | T30s | T120

let table_name = function T30 -> "t30" | T30s -> "t30s" | T120 -> "t120"

let dtypes = function
  | T30 | T30s -> Array.make 30 Dtype.Int
  | T120 -> Array.init 120 (fun i -> if i mod 2 = 0 then Dtype.Int else Dtype.Float)

let col_name t i = match t with T30 | T30s -> Printf.sprintf "c%d" i | T120 -> Printf.sprintf "a%d" i
let columns t = Array.to_list (Array.mapi (fun i d -> (col_name t i, d)) (dtypes t))
let n_rows sz = function T30 | T30s -> sz.n30 | T120 -> sz.n120

(* generator seeds: t30s is a permutation of t30, so they share one *)
let gen_seed seed = function T30 | T30s -> (seed * 7) + 1 | T120 -> (seed * 7) + 2
let hep_seed seed = (seed * 7) + 3

(* row order of the shuffled copy: row [i] of t30s is row [perm.(i)] of t30 *)
let permutation ~seed n =
  let st = Random.State.make [| seed; 0x5eed |] in
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- x
  done;
  p

(* Column-major values of a table, as the oracle holds them. *)
type column = Ints of int array | Floats of float array | Vals of Value.t array

let get col i : Value.t =
  match col with Ints a -> Int a.(i) | Floats a -> Float a.(i) | Vals a -> a.(i)

let table_columns sz ~seed t =
  let dts = dtypes t in
  let n = n_rows sz t in
  let cols =
    Array.map
      (function
        | Dtype.Int -> Ints (Array.make n 0)
        | _ -> Floats (Array.make n 0.))
      dts
  in
  let i = ref 0 in
  Seq.iter
    (fun row ->
      Array.iteri
        (fun c v ->
          match (cols.(c), v) with
          | Ints a, Value.Int x -> a.(!i) <- x
          | Floats a, Value.Float x -> a.(!i) <- x
          | _ -> invalid_arg "table_columns")
        row;
      incr i)
    (Fwb.row_values ~path:"" ~n_rows:n ~dtypes:dts ~seed:(gen_seed seed t));
  match t with
  | T30 | T120 -> cols
  | T30s ->
    let p = permutation ~seed n in
    Array.map
      (function
        | Ints a -> Ints (Array.map (fun j -> a.(j)) p)
        | Floats a -> Floats (Array.map (fun j -> a.(j)) p)
        | Vals a -> Vals (Array.map (fun j -> a.(j)) p))
      cols

(* ---------- the JSONL request log ---------- *)

let regions = [| "eu-west"; "eu-north"; "us-east"; "us-west"; "ap-south"; "ap-east"; "sa-east"; "af-south" |]
let statuses = [| 200; 200; 200; 200; 200; 200; 201; 204; 301; 304; 400; 403; 404; 404; 500; 503 |]

type log_row = {
  id : int;
  user : int;
  status : int;
  region : string;
  latency : float option;  (** absent in ~10% of rows *)
  bytes : int option;  (** absent in ~15% of rows *)
}

let log_columns =
  [
    ("id", Dtype.Int);
    ("user", Dtype.Int);
    ("status", Dtype.Int);
    ("region", Dtype.String);
    ("latency", Dtype.Float);
    ("bytes", Dtype.Int);
  ]

(* one independent stream per row, so any row range can be rebuilt alone *)
let log_row ~seed i =
  let st = Random.State.make [| seed; 0x106; i |] in
  let user = Random.State.int st 100_000 in
  let status = statuses.(Random.State.int st (Array.length statuses)) in
  let region = regions.(Random.State.int st (Array.length regions)) in
  let latency =
    if Random.State.float st 1.0 < 0.10 then None
    else
      let x = -40.0 *. log (1.0 -. Random.State.float st 1.0) in
      Some (Float.of_string (Printf.sprintf "%.3f" x))
  in
  let bytes =
    if Random.State.float st 1.0 < 0.15 then None
    else Some (200 + Random.State.int st 60_000)
  in
  { id = i; user; status; region; latency; bytes }

let render_log_row r =
  let b = Buffer.create 112 in
  Printf.bprintf b "{\"id\":%d,\"user\":%d,\"status\":%d,\"region\":\"%s\"" r.id r.user
    r.status r.region;
  Option.iter (fun x -> Printf.bprintf b ",\"latency\":%.3f" x) r.latency;
  Option.iter (fun x -> Printf.bprintf b ",\"bytes\":%d" x) r.bytes;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* the sizes of the probe files: prefixes of the workload files *)
let probe sz = { sz with n30 = sz.probe_rows; n120 = sz.probe_rows; n_events = sz.probe_events; n_log = sz.probe_rows }

(* rows of the log after [epoch] appends *)
let log_rows_at sz epoch = sz.n_log + (epoch * sz.append)

let log_columns_upto ~seed n =
  let rows = Array.init n (log_row ~seed) in
  let opt f = function None -> Value.Null | Some x -> f x in
  [
    ("id", Ints (Array.map (fun r -> r.id) rows));
    ("user", Ints (Array.map (fun r -> r.user) rows));
    ("status", Ints (Array.map (fun r -> r.status) rows));
    ("region", Vals (Array.map (fun r -> Value.String r.region) rows));
    ("latency", Vals (Array.map (fun r -> opt (fun x -> Value.Float x) r.latency) rows));
    ("bytes", Vals (Array.map (fun r -> opt (fun x -> Value.Int x) r.bytes) rows));
  ]

let write_log ~path ~seed ~first ~last ~append =
  let oc =
    if append then open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path
    else open_out_bin path
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for i = first to last - 1 do
        output_string oc (render_log_row (log_row ~seed i))
      done)

(* ---------- files ---------- *)

type dataset = Csv_tables | Fwb_tables | Log | Probe

let path dir name = Filename.concat dir name
let csv_file dir t = path dir (table_name t ^ ".csv")
let fwb_file dir t = path dir (table_name t ^ ".fwb")
let hep_file dir = path dir "h.hep"
let log_file dir = path dir "log.jsonl"

(* the pristine log, copied over the served file before each server start *)
let log_base dir = path dir "log.base.jsonl"

let write_shuffled_csv sz ~seed file =
  let cols = table_columns sz ~seed T30s in
  let rows =
    Seq.init sz.n30 (fun i ->
        Array.to_list (Array.map (fun c -> Csv.render_value (get c i)) cols))
  in
  Csv.write_file ~path:file ~header:None ~rows ()

let write_shuffled_fwb sz ~seed file =
  let cols = table_columns sz ~seed T30s in
  Fwb.write_file ~path:file
    (Fwb.layout (dtypes T30s))
    (Seq.init sz.n30 (fun i -> Array.map (fun c -> get c i) cols))

let generate sz ~seed ~dir = function
  | Csv_tables ->
    List.iter
      (fun t ->
        Csv.generate ~path:(csv_file dir t) ~n_rows:(n_rows sz t) ~dtypes:(dtypes t)
          ~seed:(gen_seed seed t) ())
      [ T30; T120 ];
    write_shuffled_csv sz ~seed (csv_file dir T30s)
  | Fwb_tables ->
    List.iter
      (fun t ->
        Fwb.generate ~path:(fwb_file dir t) ~n_rows:(n_rows sz t) ~dtypes:(dtypes t)
          ~seed:(gen_seed seed t) ())
      [ T30; T120 ];
    write_shuffled_fwb sz ~seed (fwb_file dir T30s);
    Hep.generate ~path:(hep_file dir) ~n_events:sz.n_events ~seed:(hep_seed seed) ()
  | Log -> write_log ~path:(log_base dir) ~seed ~first:0 ~last:sz.n_log ~append:false
  | Probe ->
    (* seed-identical prefixes of the workload files: the generators are
       sequential, so the first rows match the full-size tables exactly *)
    let p = probe sz in
    Csv.generate ~path:(csv_file dir T30) ~n_rows:p.n30 ~dtypes:(dtypes T30)
      ~seed:(gen_seed seed T30) ();
    Fwb.generate ~path:(fwb_file dir T30) ~n_rows:p.n30 ~dtypes:(dtypes T30)
      ~seed:(gen_seed seed T30) ();
    Hep.generate ~path:(hep_file dir) ~n_events:p.n_events ~seed:(hep_seed seed) ();
    write_log ~path:(log_base dir) ~seed ~first:0 ~last:p.n_log ~append:false;
    (* a one-row table: the executor's fixed cost is timed over it *)
    Csv.generate ~path:(path dir "one.csv") ~n_rows:1 ~dtypes:[| Dtype.Int |] ~seed ()
