open Raw_vector
open Raw_storage

let template_key ?(extra = []) fmt ~phase ~table ~needed ~policy =
  let attrs =
    extra
    @ [ ("needed", String.concat "," (List.map string_of_int needed));
        ("err", Scan_errors.policy_to_string policy) ]
  in
  String.concat "|" (fmt :: phase :: table :: List.map (fun (k, v) -> k ^ "=" ^ v) attrs)

type reader = (int -> int -> unit) * (unit -> Column.t)

let ints n get =
  let a = Array.make n 0 in
  ((fun k r -> a.(k) <- get r), fun () -> Column.of_int_array a)

let floats n get =
  let a = Array.make n 0. in
  ((fun k r -> a.(k) <- get r), fun () -> Column.of_float_array a)

let bools n get =
  let a = Array.make n false in
  ((fun k r -> a.(k) <- get r), fun () -> Column.of_bool_array a)

let values n dt get =
  let b = Builder.create ~capacity:(max n 1) dt in
  ((fun _ r -> Builder.add_value b (get r)), fun () -> Builder.to_column b)

(* inline land-mask checks keep the loops tight: with an inactive token
   [live] is false and the check folds to one dead branch *)
let columns ?ids ?(lo = 0) n readers =
  let cancel = Cancel.current () in
  let live = Cancel.active cancel in
  let row k = match ids with Some ids -> ids.(k) | None -> lo + k in
  let column (read, finish) =
    Cancel.check cancel;
    for k = 0 to n - 1 do
      if live && k land 0xFFF = 0xFFF then Cancel.check cancel;
      read k (row k)
    done;
    finish ()
  in
  let cols = List.map column readers in
  if live then Raw_obs.Metrics.add Raw_obs.Metrics.scan_rows_scanned n;
  Array.of_list cols
