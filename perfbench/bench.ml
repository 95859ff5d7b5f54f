(* The benchmark's executable, in four subcommands:

     bench.exe gen    --dataset csv|fwb|log|probe --seed N --dir D
     bench.exe run    --workload W --seed N --seconds S --trace 0|1
                      --data D --probe P --answers F --rawq EXE
     bench.exe oracle --workload W --seed N --data D --probe P --answers F
     bench.exe script --workload W --seed N --session K

   [run] prints one JSON line {attempted, failed, metrics}; [oracle]
   prints one JSON line {checked, wrong, errors, samples}; [script] prints
   a session's queries with their first-touch classes. perfbench/run.py
   builds, generates, runs and checks, in separate processes, so that the
   oracle's arrays never count towards the measured process's memory. *)

open Pb
module J = Raw_obs.Jsons

let sz = Data.full

let arg name =
  let rec find = function
    | k :: v :: _ when k = "--" ^ name -> v
    | _ :: tl -> find tl
    | [] -> failwith ("missing --" ^ name)
  in
  find (List.tl (Array.to_list Sys.argv))

let int_arg name = int_of_string (arg name)

let source_of = function
  | "csv-explore" -> Some Script.Csv_files
  | "binary-explore" -> Some Script.Fwb_files
  | "served-refresh" -> None
  | w -> failwith ("unknown workload " ^ w)

let gen () =
  let ds =
    match arg "dataset" with
    | "csv" -> Data.Csv_tables
    | "fwb" -> Fwb_tables
    | "log" -> Log
    | "probe" -> Probe
    | d -> failwith ("unknown dataset " ^ d)
  in
  Data.generate sz ~seed:(int_arg "seed") ~dir:(arg "dir") ds

let statements ~seed = function
  | Some source -> List.map Script.to_sql (Script.session ~seed ~source ~index:0)
  | None ->
    List.map Script.to_sql
      (Script.dashboards ~seed
      @ List.init 6 (fun index -> Script.adhoc ~seed ~session:0 ~epoch:0 ~index))

let run () =
  let workload = arg "workload" and seed = int_arg "seed" in
  let seconds = float (int_arg "seconds") and dir = arg "data" and probe = arg "probe" in
  let rawq = arg "rawq" in
  let source = source_of workload in
  let answers = open_out_bin (arg "answers") in
  let data_files =
    match source with
    | Some s -> Oneshot.files s dir
    | None -> [ Data.log_base dir ]
  in
  List.iter Util.warm_file data_files;
  let attempted, failed, metrics =
    match (arg "trace", source) with
    | "0", Some source ->
      let sessions, m = Oneshot.run ~source ~dir ~seed ~seconds ~answers in
      (Oneshot.attempted sessions, Oneshot.failed sessions, m)
    | "0", None ->
      let p, m = Served.run ~rawq ~sz ~seed ~dir ~seconds ~answers in
      (Served.attempted p, Served.failed p, m)
    | _ ->
      (* traced: the workload's own sessions or phases, the isolated layer
         probes, and for the one-shot workloads a short served probe *)
      let probe_answers = open_out_bin (arg "answers" ^ ".probe") in
      let own_att, own_failed, own =
        match source with
        | Some source ->
          let all, traced, untraced, counts =
            Oneshot.run_traced ~source ~dir ~seed ~budget:(0.4 *. seconds) ~answers
          in
          let served_phases, served_layers =
            Served.run_traced ~rawq ~sz:(Data.probe sz) ~seed ~dir:probe ~epochs:3 ~answers:probe_answers
          in
          ( Oneshot.attempted all + List.fold_left (fun a p -> a + Served.attempted p) 0 served_phases,
            Oneshot.failed all + List.fold_left (fun a p -> a + Served.failed p) 0 served_phases,
            Oneshot.layer_counts ~get:(Oneshot.lookup counts) ~get_prefix:(Oneshot.lookup_prefix counts)
            @ List.filter (fun (n, _, _) -> not (String.starts_with ~prefix:"trace." n)) served_layers
            @ Oneshot.overhead ~traced ~untraced )
        | None ->
          let phases, layers = Served.run_traced ~rawq ~sz ~seed ~dir ~epochs:6 ~answers in
          let counts = (List.nth phases 1).Served.engine in
          ( List.fold_left (fun a p -> a + Served.attempted p) 0 phases,
            List.fold_left (fun a p -> a + Served.failed p) 0 phases,
            Oneshot.layer_counts ~get:(Served.engine_counter counts) ~get_prefix:(Served.engine_prefix counts)
            @ layers )
      in
      close_out probe_answers;
      let budget = 0.25 *. seconds in
      let db =
        match source with
        | Some s -> Oneshot.make_db s dir
        | None ->
          let db = Raw_core.Raw_db.create () in
          Raw_core.Raw_db.register_jsonl db ~name:"log" ~path:(Data.log_base dir) ~columns:Data.log_columns;
          db
      in
      let layers =
        Layers.csv ~budget:(budget *. 0.3) (Data.csv_file probe Data.T30)
        @ Layers.fwb ~budget:(budget *. 0.1) (Data.fwb_file probe Data.T30)
        @ Layers.hep ~budget:(budget *. 0.1) (Data.hep_file probe)
        @ Layers.jsonl ~budget:(budget *. 0.1) (Data.log_base probe)
        @ Layers.engine ~budget:(budget *. 0.25) (Data.fwb_file probe Data.T30)
        @ Layers.sql ~budget:(budget *. 0.15) ~db ~statements:(statements ~seed source)
            ~one:(Filename.concat probe "one.csv")
      in
      (own_att, own_failed, own @ layers)
  in
  close_out answers;
  List.iter (fun (n, u, v) -> Printf.eprintf "  %-36s %14.4f %s\n" n v u) metrics;
  Util.emit ~attempted ~failed metrics

(* ---------- the oracle ---------- *)

type verdict = { mutable checked : int; mutable wrong : int; mutable errors : int; mutable samples : string list }

let sample v what why = if List.length v.samples < 5 then v.samples <- (what ^ ": " ^ why) :: v.samples

let read_answers path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l -> match J.parse l with Ok j -> j | Error e -> failwith ("bad answer line: " ^ e))

let field j k = Option.bind (J.member k j) J.to_int_opt

let check_line v ~expect j =
  v.checked <- v.checked + 1;
  match J.member "error" j with
  | Some e ->
    v.errors <- v.errors + 1;
    sample v "error" (J.to_string e)
  | None -> (
    let q, expected, what = expect j in
    match Oracle.check q ~expected ~got:(Oracle.rows_of_json j) with
    | None -> ()
    | Some why ->
      v.wrong <- v.wrong + 1;
      sample v what why)

let check_served v ~sz ~seed lines =
  let max_epoch = List.fold_left (fun a j -> max a (Option.value ~default:0 (field j "e"))) 0 lines in
  let env = Oracle.log_env sz ~seed ~max_epoch in
  let memo = Hashtbl.create 256 in
  List.iter
    (check_line v ~expect:(fun j ->
         let e = Option.get (field j "e") and c = Option.get (field j "c") in
         let req = match field j "d" with Some i -> Script.Dashboard i | None -> Adhoc (Option.get (field j "a")) in
         let q = Script.request_query ~seed ~session:c ~epoch:e req in
         let key = (e, Script.to_sql q) in
         let expected =
           match Hashtbl.find_opt memo key with
           | Some x -> x
           | None ->
             let x = Oracle.eval (env e) q in
             Hashtbl.replace memo key x;
             x
         in
         (q, expected, Printf.sprintf "epoch %d: %s" e (Script.to_sql q))))
    lines

let oracle () =
  let workload = arg "workload" and seed = int_arg "seed" in
  let dir = arg "data" and path = arg "answers" in
  let v = { checked = 0; wrong = 0; errors = 0; samples = [] } in
  let lines = read_answers path in
  (match source_of workload with
   | Some source ->
     let tables, env = Oracle.relational_env sz ~seed in
     if source = Fwb_files then Oracle.add_hep tables (Data.hep_file dir);
     let scripts = Hashtbl.create 16 in
     List.iter
       (check_line v ~expect:(fun j ->
            let s = Option.get (field j "s") and qi = Option.get (field j "q") in
            let qs =
              match Hashtbl.find_opt scripts s with
              | Some qs -> qs
              | None ->
                let qs = Array.of_list (Script.session ~seed ~source ~index:s) in
                Hashtbl.replace scripts s qs;
                qs
            in
            let q = qs.(qi) in
            (q, Oracle.eval env q, Printf.sprintf "session %d query %d: %s" s qi (Script.to_sql q))))
       lines
   | None -> check_served v ~sz ~seed lines);
  check_served v ~sz:(Data.probe sz) ~seed (read_answers (path ^ ".probe"));
  print_endline
    (J.to_string
       (J.Obj
          [
            ("checked", J.Int v.checked);
            ("wrong", J.Int v.wrong);
            ("errors", J.Int v.errors);
            ("samples", J.List (List.rev_map (fun s -> J.Str s) v.samples));
          ]))

(* print one session's script with its first-touch classes *)
let script () =
  let seed = int_arg "seed" and index = int_arg "session" in
  match source_of (arg "workload") with
  | Some source ->
    let qs = Script.session ~seed ~source ~index in
    List.iter2 (fun q c -> Printf.printf "%-5s %s\n" (Script.cls_name c) (Script.to_sql q)) qs (Script.classify qs)
  | None ->
    List.iter (fun q -> print_endline ("prime " ^ Script.to_sql q)) (Script.dashboards ~seed);
    List.iteri
      (fun r reqs ->
        List.iter
          (fun req -> Printf.printf "round%d %s\n" r (Script.to_sql (Script.request_query ~seed ~session:index ~epoch:0 req)))
          reqs)
      (Script.rounds ~seed ~session:index ~epoch:0)

let () =
  match Sys.argv with
  | [||] | [| _ |] -> prerr_endline "usage: bench.exe gen|run|oracle|script ..."; exit 2
  | _ -> (
    try
      match Sys.argv.(1) with
      | "gen" -> gen ()
      | "run" -> run ()
      | "oracle" -> oracle ()
      | "script" -> script ()
      | c -> failwith ("unknown command " ^ c)
    with Failure msg ->
      prerr_endline ("bench.exe: " ^ msg);
      exit 2)
