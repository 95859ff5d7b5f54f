(* SQL semantics regressions: GROUP BY over an empty input, NOT over
   NULL (three-valued logic), across formats and the serving tier, join
   keys of different numeric types, ORDER BY a column outside the select
   list, exact integer SUM, float comparisons and arithmetic over NULL and
   zero divisors. *)

open Raw_vector
open Raw_core
open Test_util
module Jsons = Raw_obs.Jsons

(* The same 4-row table (a, b) in each format. *)
let rows = [ (1, 100); (2, 600); (3, 300); (4, 200) ]

let db_of fmt =
  let db = Raw_db.create () in
  let columns = [ ("a", Dtype.Int); ("b", Dtype.Int) ] in
  (match fmt with
   | `Csv ->
     let path = write_csv_rows (List.map (fun (a, b) -> [ a; b ]) rows) in
     Raw_db.register_csv db ~name:"t" ~path ~columns ()
   | `Fwb ->
     let path = fresh_path ".fwb" in
     Raw_formats.Fwb.write_file ~path
       (Raw_formats.Fwb.layout [| Dtype.Int; Dtype.Int |])
       (List.to_seq (List.map (fun (a, b) -> [| Value.Int a; Value.Int b |]) rows));
     Raw_db.register_fwb db ~name:"t" ~path ~columns
   | `Jsonl ->
     let path = fresh_path ".jsonl" in
     Out_channel.with_open_text path (fun oc ->
         List.iter (fun (a, b) -> Printf.fprintf oc "{\"a\": %d, \"b\": %d}\n" a b) rows);
     Raw_db.register_jsonl db ~name:"t" ~path ~columns);
  db

let formats = [ ("csv", `Csv); ("fwb", `Fwb); ("jsonl", `Jsonl) ]
let empty_group_by = "SELECT b, COUNT(*) FROM t WHERE a > 99 GROUP BY b"

let one_shot_empty_group_by (name, fmt) =
  Alcotest.test_case (name ^ ": GROUP BY over no rows, one-shot") `Quick
    (fun () ->
      let c = Raw_db.sql (db_of fmt) empty_group_by in
      Alcotest.(check int) "rows" 0 (Chunk.n_rows c);
      Alcotest.(check int) "key and aggregate columns" 2 (Chunk.n_cols c);
      (* the grouped query still answers once rows qualify *)
      let c = Raw_db.sql (db_of fmt) "SELECT b, COUNT(*) FROM t WHERE a > 3 GROUP BY b" in
      Alcotest.(check (list (list value_testable))) "one group"
        [ [ Value.Int 200; Value.Int 1 ] ] (rows_of_chunk c))

let served_empty_group_by (name, fmt) =
  Alcotest.test_case (name ^ ": GROUP BY over no rows, served") `Slow (fun () ->
      let socket_path = fresh_path ".sock" in
      let db = db_of fmt in
      let server =
        Thread.create (fun () -> Server.serve ~batch_window:0.0 ~socket_path db) ()
      in
      let c = Test_server.connect_when_ready socket_path in
      Fun.protect
        ~finally:(fun () ->
          ignore (Server.Client.shutdown c);
          Server.Client.close c;
          Thread.join server)
        (fun () ->
          (* twice: computed, then from the result cache *)
          for _ = 1 to 2 do
            match Server.Client.query c empty_group_by with
            | Error e -> Alcotest.failf "query: %s" (Server.Client.err_to_string e)
            | Ok j ->
              Alcotest.(check bool) "ok" true (Jsons.member "ok" j = Some (Jsons.Bool true));
              Alcotest.(check (list (list int))) "no rows" [] (Test_server.int_rows j);
              (match Jsons.member "columns" j with
               | Some (Jsons.List cols) ->
                 Alcotest.(check int) "two columns" 2 (List.length cols)
               | _ -> Alcotest.failf "no columns in %s" (Jsons.to_string j))
          done))

(* ---------------- NOT over NULL ---------------- *)

(* Predicates over the nullable column [b] (and the never-null [a]), each
   with a naive three-valued model: [None] = NULL. *)
let ( &&& ) x y =
  match x, y with
  | Some false, _ | _, Some false -> Some false
  | Some true, Some true -> Some true
  | _ -> None

let ( ||| ) x y =
  match x, y with
  | Some true, _ | _, Some true -> Some true
  | Some false, Some false -> Some false
  | _ -> None

let on_b f b = Option.map f b

(* [(sql, over b alone, model)] *)
let predicates =
  [ ("b < 500", true, fun _ b -> on_b (fun b -> b < 500) b);
    ("b >= 250", true, fun _ b -> on_b (fun b -> b >= 250) b);
    ("b = 300", true, fun _ b -> on_b (fun b -> b = 300) b);
    ("NOT (b < 300)", true, fun _ b -> on_b (fun b -> not (b < 300)) b);
    ("b + 1 > 301", true, fun _ b -> on_b (fun b -> b + 1 > 301) b);
    ("b < 500 AND b > 150", true, fun _ b -> on_b (fun b -> b < 500 && b > 150) b);
    ("b < 500 AND a > 1", false, fun a b -> on_b (fun b -> b < 500) b &&& Some (a > 1));
    ("b > 150 OR a = 2", false, fun a b -> on_b (fun b -> b > 150) b ||| Some (a = 2)) ]

(* For every predicate p, WHERE p keeps the rows where p is TRUE and
   WHERE NOT p those where it is FALSE — never the NULL ones. Over [b]
   alone that means COUNT WHERE p + COUNT WHERE NOT p = COUNT(b). *)
let three_valued db cells =
  let count sql =
    match Raw_db.scalar db sql with
    | Value.Int n -> n
    | v -> Alcotest.failf "%s: %s" sql (Value.to_string v)
  in
  let non_null = count "SELECT COUNT(b) FROM t" in
  non_null = List.length (List.filter (fun (_, b) -> b <> None) cells)
  && List.for_all
       (fun (p, b_only, model) ->
         let want v = List.length (List.filter (fun (a, b) -> model a b = Some v) cells) in
         let yes = count (Printf.sprintf "SELECT COUNT(*) FROM t WHERE %s" p) in
         let no = count (Printf.sprintf "SELECT COUNT(*) FROM t WHERE NOT (%s)" p) in
         yes = want true && no = want false
         && ((not b_only) || yes + no = non_null))
       predicates

let cells_gen =
  QCheck2.Gen.(list_size (int_range 1 40) (pair (int_range 0 5) (option (int_range 0 600))))

let prop_not_csv =
  qtest "NOT over NULL: p and NOT p partition the non-NULL rows (CSV, Null_fill)"
    ~count:30 cells_gen (fun cells ->
      let path = fresh_path ".csv" in
      Raw_formats.Csv.write_file ~path ~header:None
        ~rows:
          (List.to_seq
             (List.map
                (fun (a, b) ->
                  [ string_of_int a; Option.fold ~none:"bad" ~some:string_of_int b ])
                cells))
        ();
      let config = { Config.default with Config.on_error = Raw_storage.Scan_errors.Null_fill } in
      let db = Raw_db.create ~config () in
      Raw_db.register_csv db ~name:"t" ~path
        ~columns:[ ("a", Dtype.Int); ("b", Dtype.Int) ] ();
      three_valued db cells)

let prop_not_jsonl =
  qtest "NOT over NULL: p and NOT p partition the non-NULL rows (JSONL, missing)"
    ~count:30 cells_gen (fun cells ->
      let path = fresh_path ".jsonl" in
      Out_channel.with_open_text path (fun oc ->
          List.iter
            (fun (a, b) ->
              match b with
              | Some b -> Printf.fprintf oc "{\"a\": %d, \"b\": %d}\n" a b
              | None -> Printf.fprintf oc "{\"a\": %d}\n" a)
            cells);
      let db = Raw_db.create () in
      Raw_db.register_jsonl db ~name:"t" ~path
        ~columns:[ ("a", Dtype.Int); ("b", Dtype.Int) ];
      three_valued db cells)

let not_repro =
  Alcotest.test_case "NOT (b < 500) skips the NULL row" `Quick (fun () ->
      let path = fresh_path ".csv" in
      Out_channel.with_open_text path (fun oc ->
          output_string oc "1,100\n2,600\n3,x\n4,200\n");
      let config = { Config.default with Config.on_error = Raw_storage.Scan_errors.Null_fill } in
      let db = Raw_db.create ~config () in
      Raw_db.register_csv db ~name:"t" ~path
        ~columns:[ ("a", Dtype.Int); ("b", Dtype.Int) ] ();
      check_value "count" (Value.Int 1)
        (Raw_db.scalar db "SELECT COUNT(*) FROM t WHERE NOT (b < 500)");
      Alcotest.(check (list (list value_testable))) "NOT keeps NULL as NULL"
        [ [ Value.Int 1; Value.Bool false ]; [ Value.Int 2; Value.Bool true ];
          [ Value.Int 3; Value.Null ]; [ Value.Int 4; Value.Bool false ] ]
        (rows_of_chunk (Raw_db.sql db "SELECT a, NOT (b < 500) FROM t")))

(* An Int key joins a Float key the way WHERE compares them: numerically,
   whichever side builds. *)
let mixed_join_keys =
  Alcotest.test_case "Int key joins Float key numerically" `Quick (fun () ->
      let path_a = fresh_path ".csv" and path_b = fresh_path ".csv" in
      Out_channel.with_open_text path_a (fun oc ->
          output_string oc "1,one\n2,two\n3,three\n");
      Out_channel.with_open_text path_b (fun oc ->
          output_string oc "1.0,b1\n2.5,b2\n3.0,b3\n");
      let db = Raw_db.create () in
      Raw_db.register_csv db ~name:"a" ~path:path_a
        ~columns:[ ("k", Dtype.Int); ("s", Dtype.String) ] ();
      Raw_db.register_csv db ~name:"b" ~path:path_b
        ~columns:[ ("k", Dtype.Float); ("t", Dtype.String) ] ();
      let want =
        [ [ Value.String "one"; Value.String "b1" ];
          [ Value.String "three"; Value.String "b3" ] ]
      in
      List.iter
        (fun sql ->
          Alcotest.(check (list (list value_testable))) sql want
            (rows_of_chunk (Raw_db.sql db sql)))
        [ "SELECT a.s, b.t FROM a JOIN b ON a.k = b.k";
          "SELECT a.s, b.t FROM b JOIN a ON b.k = a.k" ];
      check_value "WHERE compares numerically too" (Value.Int 1)
        (Raw_db.scalar db "SELECT COUNT(*) FROM a WHERE k = 1.0"))

(* ORDER BY a column the select list does not name: the scan must read
   it for the sort below the projection. *)
let order_by_unselected (name, fmt) =
  Alcotest.test_case (name ^ ": ORDER BY a column outside the select list")
    `Quick (fun () ->
      let db = db_of fmt in
      let path = write_csv_rows [ [ 1; 10 ]; [ 2; 20 ]; [ 3; 30 ]; [ 4; 40 ] ] in
      Raw_db.register_csv db ~name:"u" ~path
        ~columns:[ ("k", Dtype.Int); ("c", Dtype.Int) ] ();
      List.iter
        (fun (sql, want) ->
          let chunk = Raw_db.sql db sql in
          Alcotest.(check (list (list value_testable))) sql
            (List.map (fun v -> [ Value.Int v ]) want)
            (List.init (Chunk.n_rows chunk) (Chunk.row chunk)))
        [
          ("SELECT b FROM t ORDER BY a", [ 100; 600; 300; 200 ]);
          ("SELECT b FROM t ORDER BY a DESC LIMIT 2", [ 200; 300 ]);
          ("SELECT c FROM t JOIN u ON t.a = u.k ORDER BY b", [ 10; 40; 30; 20 ]);
        ])

(* ---------------- exact integer SUM ---------------- *)

(* [rows] as a table [t (a, b)] in one format *)
let db_of_rows fmt rows =
  let db = Raw_db.create () in
  let columns = [ ("a", Dtype.Int); ("b", Dtype.Int) ] in
  (match fmt with
   | `Csv ->
     let path = fresh_path ".csv" in
     Out_channel.with_open_text path (fun oc ->
         List.iter (fun (a, b) -> Printf.fprintf oc "%d,%d\n" a b) rows);
     Raw_db.register_csv db ~name:"t" ~path ~columns ()
   | `Fwb ->
     let path = fresh_path ".fwb" in
     Raw_formats.Fwb.write_file ~path
       (Raw_formats.Fwb.layout [| Dtype.Int; Dtype.Int |])
       (List.to_seq (List.map (fun (a, b) -> [| Value.Int a; Value.Int b |]) rows));
     Raw_db.register_fwb db ~name:"t" ~path ~columns
   | `Jsonl ->
     let path = fresh_path ".jsonl" in
     Out_channel.with_open_text path (fun oc ->
         List.iter (fun (a, b) -> Printf.fprintf oc "{\"a\": %d, \"b\": %d}\n" a b) rows);
     Raw_db.register_jsonl db ~name:"t" ~path ~columns);
  db

(* 2^53 + 1 is the first Int a float cannot hold *)
let above_2_53 = 9007199254740993

let exact_sum (name, fmt) =
  Alcotest.test_case (name ^ ": SUM over Int is exact, overflow fails") `Quick
    (fun () ->
      let db =
        db_of_rows fmt
          [ (1, above_2_53); (2, 1); (2, max_int); (3, max_int);
            (4, max_int); (4, 1); (4, -1); (5, min_int); (5, -1); (5, 1) ]
      in
      let rows sql = rows_of_chunk (Raw_db.sql db sql) in
      Alcotest.(check (list (list value_testable))) "scalar"
        [ [ Value.Int (above_2_53 + 1) ] ]
        (rows "SELECT SUM(b) FROM t WHERE a < 3 AND b < 9007199254740994");
      Alcotest.(check (list (list value_testable))) "one-row group keeps the low bit"
        [ [ Value.Int 1; Value.Int above_2_53 ] ]
        (rows "SELECT a, SUM(b) FROM t WHERE a = 1 GROUP BY a");
      Alcotest.(check (list (list value_testable))) "max_int alone"
        [ [ Value.Int 3; Value.Int max_int ] ]
        (rows "SELECT a, SUM(b) FROM t WHERE a = 3 GROUP BY a");
      (* the running sum leaves the range and comes back *)
      Alcotest.(check (list (list value_testable))) "passing max_int on the way"
        [ [ Value.Int max_int ] ]
        (rows "SELECT SUM(b) FROM t WHERE a = 4");
      Alcotest.(check (list (list value_testable))) "passing min_int on the way, grouped"
        [ [ Value.Int 4; Value.Int max_int ]; [ Value.Int 5; Value.Int min_int ] ]
        (rows "SELECT a, SUM(b) FROM t WHERE a > 3 GROUP BY a");
      let overflows sql =
        match Raw_db.sql db sql with
        | _ -> Alcotest.failf "%s: answered instead of failing" sql
        | exception Raw_vector.Kernels.Overflow _ -> ()
      in
      overflows "SELECT SUM(b) FROM t WHERE a > 1";
      overflows "SELECT a, SUM(b) FROM t GROUP BY a")

(* ---------------- comparisons over NaN, inf and NULL ---------------- *)

(* x over rows a = 1, 2, ...: each format holds the special values it can
   store. CSV holds them all (a bad float is NULL under Null_fill); FWB has
   no NULL, and JSON no literal for NaN. *)
let special_cells = function
  | `Csv -> [ Some nan; Some 0.5; Some 2.0; Some infinity; Some neg_infinity; None; Some 1.0 ]
  | `Fwb -> [ Some nan; Some 0.5; Some 2.0; Some infinity; Some neg_infinity; Some 1.0 ]
  | `Jsonl -> [ Some 0.5; Some 2.0; Some infinity; Some neg_infinity; None; Some 1.0 ]

let special_db fmt cells =
  let config = { Config.default with Config.on_error = Raw_storage.Scan_errors.Null_fill } in
  let db = Raw_db.create ~config () in
  let columns = [ ("a", Dtype.Int); ("x", Dtype.Float) ] in
  let rows = List.mapi (fun i x -> (i + 1, x)) cells in
  let write ext render =
    let path = fresh_path ext in
    Out_channel.with_open_text path (fun oc ->
        List.iter (fun (a, x) -> output_string oc (render a x)) rows);
    path
  in
  (match fmt with
   | `Csv ->
     let path =
       write ".csv" (fun a x ->
           Printf.sprintf "%d,%s\n" a (Option.fold ~none:"x" ~some:(Printf.sprintf "%.17g") x))
     in
     Raw_db.register_csv db ~name:"t" ~path ~columns ()
   | `Fwb ->
     let path = fresh_path ".fwb" in
     Raw_formats.Fwb.write_file ~path
       (Raw_formats.Fwb.layout [| Dtype.Int; Dtype.Float |])
       (List.to_seq
          (List.map (fun (a, x) -> [| Value.Int a; Value.Float (Option.get x) |]) rows));
     Raw_db.register_fwb db ~name:"t" ~path ~columns
   | `Jsonl ->
     let json = function
       | None -> "null"
       | Some x when x = infinity -> "1e999"
       | Some x when x = neg_infinity -> "-1e999"
       | Some x -> Printf.sprintf "%.17g" x
     in
     let path = write ".jsonl" (fun a x -> Printf.sprintf "{\"a\": %d, \"x\": %s}\n" a (json x)) in
     Raw_db.register_jsonl db ~name:"t" ~path ~columns);
  db

(* A comparison answers alike projected, in WHERE over a column and in
   WHERE over an expression, and NOT agrees with each: floats compare as
   IEEE does (NaN is unordered, so only <> holds for it), NULL is NULL. *)
let float_comparisons (name, fmt) =
  Alcotest.test_case (name ^ ": comparisons agree on NaN, inf and NULL") `Quick
    (fun () ->
      let cells = special_cells fmt in
      let db = special_db fmt cells in
      let rows sql = rows_of_chunk (Raw_db.sql db sql) in
      let ids sql =
        List.map (function [ Value.Int a ] -> a | _ -> Alcotest.failf "%s: shape" sql) (rows sql)
      in
      let each_cmp (rhs_sql, rhs) (sym, (ieee : float -> float -> bool)) =
          let truth = List.map (Option.map (fun x -> ieee x rhs)) cells in
          let where v =
            List.concat (List.mapi (fun i t -> if t = Some v then [ i + 1 ] else []) truth)
          in
          let projected neg =
            List.mapi
              (fun i t ->
                [ Value.Int (i + 1);
                  Option.fold ~none:Value.Null ~some:(fun b -> Value.Bool (b <> neg)) t ])
              truth
          in
          let check_rows form want =
            let sql = Printf.sprintf "SELECT a, %s FROM t ORDER BY a" form in
            Alcotest.(check (list (list value_testable))) sql want (rows sql)
          in
          let check_where form want =
            let sql = Printf.sprintf "SELECT a FROM t WHERE %s ORDER BY a" form in
            Alcotest.(check (list int)) sql want (ids sql)
          in
          let cmp = Printf.sprintf "x %s %s" sym rhs_sql
          and arith = Printf.sprintf "(x + 0.0) %s %s" sym rhs_sql in
          check_rows cmp (projected false);
          check_rows ("NOT (" ^ cmp ^ ")") (projected true);
          check_where cmp (where true);
          check_where arith (where true);
          check_where ("NOT (" ^ cmp ^ ")") (where false);
          check_where ("NOT (" ^ arith ^ ")") (where false)
      in
      (* against 1.0, and against a NaN operand, which JSONL rows cannot hold *)
      List.iter
        (fun rhs ->
          List.iter (each_cmp rhs)
            [ ("<", ( < )); ("<=", ( <= )); (">", ( > )); (">=", ( >= )); ("=", ( = ));
              ("<>", ( <> )) ])
        [ ("1.0", 1.0); ("(0.0 / 0.0)", nan) ];
      (* the case first reported: NaN is not below 1.0 *)
      if fmt = `Csv then
        Alcotest.(check (list int)) "x < 1.0" [ 2; 5 ]
          (ids "SELECT a FROM t WHERE (x + 0.0) < 1.0 ORDER BY a"))

(* ---------------- arithmetic over NULL and zero divisors ---------------- *)

(* b over rows a = 1, 3, 5, min_int, 7; a NULL b is a bad CSV cell under
   Null_fill, a missing JSONL key, and absent from FWB, which has no NULL *)
let divisor_db fmt =
  let config = { Config.default with Config.on_error = Raw_storage.Scan_errors.Null_fill } in
  let db = Raw_db.create ~config () in
  let columns = [ ("a", Dtype.Int); ("b", Dtype.Int) ] in
  let rows =
    List.filter
      (fun (_, b) -> fmt <> `Fwb || b <> None)
      [ (1, Some 2); (3, None); (5, Some 5); (min_int, Some (-1)); (7, Some (-2)) ]
  in
  let write ext render =
    let path = fresh_path ext in
    Out_channel.with_open_text path (fun oc ->
        List.iter (fun (a, b) -> output_string oc (render a b)) rows);
    path
  in
  (match fmt with
   | `Csv ->
     let path =
       write ".csv" (fun a b ->
           Printf.sprintf "%d,%s\n" a (Option.fold ~none:"x" ~some:string_of_int b))
     in
     Raw_db.register_csv db ~name:"t" ~path ~columns ()
   | `Fwb ->
     let path = fresh_path ".fwb" in
     Raw_formats.Fwb.write_file ~path
       (Raw_formats.Fwb.layout [| Dtype.Int; Dtype.Int |])
       (List.to_seq
          (List.map (fun (a, b) -> [| Value.Int a; Value.Int (Option.get b) |]) rows));
     Raw_db.register_fwb db ~name:"t" ~path ~columns
   | `Jsonl ->
     let path =
       write ".jsonl" (fun a -> function
         | None -> Printf.sprintf "{\"a\": %d}\n" a
         | Some b -> Printf.sprintf "{\"a\": %d, \"b\": %d}\n" a b)
     in
     Raw_db.register_jsonl db ~name:"t" ~path ~columns);
  (db, fmt <> `Fwb)

(* A NULL divisor makes the row NULL and never divides; an integer
   division or modulo by a zero fails the query as a data error; Int
   arithmetic wraps as OCaml's does *)
let null_divisors (name, fmt) =
  Alcotest.test_case (name ^ ": arithmetic over NULL and zero divisors") `Quick
    (fun () ->
      let db, has_null = divisor_db fmt in
      let rows sql = rows_of_chunk (Raw_db.sql db sql) in
      (* [want] holds [expr] on each row, in file order *)
      let check expr want =
        let sql = Printf.sprintf "SELECT a, %s FROM t" expr in
        let want =
          List.combine [ 1; 3; 5; min_int; 7 ] want
          |> List.filter (fun (a, _) -> has_null || a <> 3)
          |> List.map (fun (a, v) -> [ Value.Int a; v ])
          |> List.sort compare
        in
        Alcotest.(check (list (list value_testable))) sql want (rows sql)
      in
      let i n = Value.Int n and f x = Value.Float x and null = Value.Null in
      check "a / b" [ i 0; null; i 1; i min_int; i (-3) ];
      check "a % b" [ i 1; null; i 0; i 0; i 1 ];
      check "a * b - 1" [ i 1; null; i 24; i (min_int - 1); i (-15) ];
      check "b / 0.0" [ f infinity; null; f infinity; f neg_infinity; f neg_infinity ];
      Alcotest.(check (list (list value_testable))) "WHERE a / b > 0" [ [ i 5 ] ]
        (rows "SELECT a FROM t WHERE a / b > 0");
      List.iter
        (fun sql ->
          match Raw_db.sql db sql with
          | _ -> Alcotest.failf "%s: answered instead of failing" sql
          | exception Kernels.Zero_divisor _ -> ())
        [ "SELECT a / (b - 2) FROM t"; "SELECT a % (b - 5) FROM t";
          "SELECT a FROM t WHERE a / (b + 1) > 0"; "SELECT a % 0 FROM t" ])

let suites =
  [
    ("semantics.float_compare", List.map float_comparisons formats);
    ("semantics.sum", List.map exact_sum formats);
    ("semantics.arith", List.map null_divisors formats);
    ("semantics.order_by", List.map order_by_unselected formats);
    ("semantics.join_keys", [ mixed_join_keys ]);
    ( "semantics.group_by_empty",
      List.map one_shot_empty_group_by formats @ List.map served_empty_group_by formats );
    ("semantics.three_valued", [ not_repro; prop_not_csv; prop_not_jsonl ]);
  ]
