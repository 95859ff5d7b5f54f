(* Clock, statistics, process memory and the metric line. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* The machine's speed drifts by up to 2x over seconds on a shared host
   (measured on a 2-vCPU Intel Xeon VM): a fixed integer loop ran at
   0.45-0.93 ns per iteration within one minute, CPU time moving with
   wall time and no steal recorded, and the engine slowed at times when
   that loop did not. So engine time is reported at a reference speed:
   scaled by [nominal / t], where [t] is the time of [reference ()], a
   fixed tokenize-and-hash workload owned by the benchmark, measured
   around the interval with no other work in flight (for served requests
   only the engine's share is scaled; see [Served.ms]). In prototypes this
   cut the run-to-run spread (IQR over median) of first-query time from
   0.22 to 0.08 and of session time from 0.10 to 0.05. [reference]
   allocates nothing while timed, so it neither triggers nor pays for the
   collector's work on the program's heap. *)
let nominal = 0.006

let reference =
  let n_vals = 100_000 and table_bits = 18 in
  let data =
    lazy
      (let b = Buffer.create (n_vals * 11) in
       let st = Random.State.make [| 42 |] in
       for i = 1 to n_vals do
         Buffer.add_string b (string_of_int (Random.State.int st 1_000_000_000));
         Buffer.add_char b (if i mod 10 = 0 then '\n' else ',')
       done;
       (Buffer.to_bytes b, Array.make n_vals 0, Array.make (1 lsl table_bits) (-1)))
  in
  fun () ->
    let buf, vals, table = Lazy.force data in
    let t0 = now () in
    let n = ref 0 and acc = ref 0 in
    for i = 0 to Bytes.length buf - 1 do
      let c = Bytes.unsafe_get buf i in
      if c >= '0' && c <= '9' then acc := (!acc * 10) + (Char.code c - 48)
      else begin
        vals.(!n) <- !acc;
        incr n;
        acc := 0
      end
    done;
    Array.fill table 0 (Array.length table) (-1);
    let mask = (1 lsl table_bits) - 1 in
    let slot v =
      let h = ref ((v * 0x9E3779B1) land mask) in
      while table.(!h) >= 0 && table.(!h) <> v do h := (!h + 1) land mask done;
      !h
    in
    Array.iter (fun v -> table.(slot v) <- v) vals;
    let hits = ref 0 in
    Array.iter (fun v -> if table.(slot v) = v then incr hits) vals;
    ignore (Sys.opaque_identity !hits);
    now () -. t0

let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let pos = q *. float (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5

(* multiply a time measured between these reference timings by this *)
let speed_factor refs = nominal /. median refs

(* Median over repeated runs of [f] within [budget] seconds (at least
   [min_reps]); [f] returns (seconds, work units), the result is the
   median nanoseconds per unit. *)
let ns_per_unit ?(min_reps = 3) ~budget f =
  let t_end = now () +. budget in
  let rec go acc k =
    if k >= min_reps && now () > t_end then acc
    else
      let s, units = f () in
      go ((s *. 1e9 /. float (max 1 units)) :: acc) (k + 1)
  in
  median (go [] 0)

(* VmHWM of a process, in MB: the peak resident set of that process only *)
let peak_rss_mb pid =
  let path = match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec find () =
          match input_line ic with
          | exception End_of_file -> nan
          | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float kb /. 1024.)
          | _ -> find ()
        in
        find ())

(* Read every byte once, so the OS page cache holds the file before any
   timing starts. *)
let warm_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let buf = Bytes.create 65536 in
      while input ic buf 0 65536 > 0 do () done)

module J = Raw_obs.Jsons

(* The run's result line: counts and metrics as {"value", "unit"} pairs.
   A metric that could not be measured fails the run instead of printing
   (the JSON writer would turn a NaN into 0). *)
let emit ~attempted ~failed metrics =
  List.iter (fun (name, _, v) -> if not (Float.is_finite v) then failwith ("no value for " ^ name)) metrics;
  let m = List.map (fun (name, unit, v) -> (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ])) metrics in
  print_endline
    (J.to_string (J.Obj [ ("attempted", J.Int attempted); ("failed", J.Int failed); ("metrics", J.Obj m) ]))

(* Answers go to a file, one JSON object per line, for the oracle process. *)
let write_answer oc fields =
  output_string oc (J.to_string (J.Obj fields));
  output_char oc '\n'
