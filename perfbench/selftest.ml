(* The benchmark's own check: on tiny generated inputs the engine's
   answers to every scripted query pass the oracle, and corrupted answers
   do not. Run with [dune test perfbench]. *)

open Pb
open Raw_vector

let seed = 5
let sz = Data.tiny
let dir = "selftest-data"
let failures = ref 0

let expect what cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL: %s\n" what
  end

let engine source =
  let db = Raw_core.Raw_db.create () in
  List.iter
    (fun t ->
      let name = Data.table_name t and columns = Data.columns t in
      match source with
      | Script.Csv_files -> Raw_core.Raw_db.register_csv db ~name ~path:(Data.csv_file dir t) ~columns ()
      | Fwb_files -> Raw_core.Raw_db.register_fwb db ~name ~path:(Data.fwb_file dir t) ~columns)
    [ Data.T30; T30s; T120 ];
  if source = Fwb_files then Raw_core.Raw_db.register_hep db ~name_prefix:"h" ~path:(Data.hep_file dir);
  db

let answer db q =
  let r = Raw_core.Raw_db.query db (Script.to_sql q) in
  List.init (Chunk.n_rows r.chunk) (Chunk.row r.chunk)

(* the same corruptions a wrong engine could produce *)
let corruptions rows =
  let bump : Value.t -> Value.t option = function
    | Int n -> Some (Int (n + 1))
    | Float f -> Some (Float ((f *. (1. +. 1e-6)) +. 1e-6))
    | String s -> Some (String (s ^ "x"))
    | _ -> None
  in
  let first_value f = function
    | (v :: vs) :: rs -> Option.map (fun v -> (v :: vs) :: rs) (f v)
    | _ -> None
  in
  List.filter_map Fun.id
    [
      first_value bump rows;
      first_value (function Value.Null -> None | Int 0 -> None | _ -> Some Value.Null) rows;
      (match rows with [] -> None | _ :: tl -> Some tl);
      Some (rows @ rows);
    ]

let check_session source =
  let db = engine source in
  let tables, env = Oracle.relational_env sz ~seed in
  if source = Fwb_files then Oracle.add_hep tables (Data.hep_file dir);
  let qs = Script.session ~seed ~source ~index:0 in
  List.iteri
    (fun i q ->
      let expected = Oracle.eval env q and got = answer db q in
      (match Oracle.check q ~expected ~got with
       | None -> ()
       | Some why -> expect (Printf.sprintf "query %d %s: %s" i (Script.to_sql q) why) false);
      List.iter
        (fun bad -> expect (Printf.sprintf "corrupted answer to query %d accepted" i) (Oracle.check q ~expected ~got:bad <> None))
        (corruptions got))
    qs;
  List.length qs

let () =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.iter (Data.generate sz ~seed ~dir) [ Data.Csv_tables; Fwb_tables; Log ];
  let n = check_session Csv_files + check_session Fwb_files in
  (* the query classes are fixed by the script, not by the data *)
  let classes s = List.map Script.cls_name (Script.classify (Script.session ~seed:s ~source:Csv_files ~index:0)) in
  expect "class composition differs between seeds" (List.sort compare (classes 1) = List.sort compare (classes 2));
  (* floats within a relative 1e-9 match, ints must match exactly *)
  expect "float tolerance" (Oracle.value_ok (Float 1e9) (Float (1e9 *. (1. +. 1e-12))));
  expect "int exactness" (not (Oracle.value_ok (Int 7) (Float 7.)));
  (* served answers: the log after two appends, with SQL NULL semantics *)
  let env = Oracle.log_env sz ~seed ~max_epoch:2 in
  let c = Script.log_col in
  let count where = Oracle.eval (env 2) { Script.from = "log"; join = None; where; select = Aggs [ Count_star ] } in
  let lt = Script.Cmp (Lt, c "bytes", I 30_000) and ge = Script.Cmp (Ge, c "bytes", I 30_000) in
  expect "NOT keeps unknown rows out" (count (Some (Not lt)) = count (Some ge));
  expect "log grows by the appends" (count None = [ [ Int (sz.n_log + (2 * sz.append)) ] ]);
  if !failures > 0 then exit 1;
  Printf.printf "selftest: %d queries agree with the oracle; every corruption rejected\n" n
