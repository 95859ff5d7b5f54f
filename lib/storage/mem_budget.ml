type item = { bytes : int; drop : unit -> unit }

type consumer = { name : string; priority : int; items : unit -> item list }

type t = {
  capacity : int;
  mutex : Mutex.t;
  mutable consumers : consumer list; (* ascending priority *)
}

let create ~capacity_bytes =
  if capacity_bytes <= 0 then
    raise
      (Resource_error.Invalid_config
         (Printf.sprintf "memory budget must be positive (got %d bytes)"
            capacity_bytes));
  { capacity = capacity_bytes; mutex = Mutex.create (); consumers = [] }

let capacity t = t.capacity

let register t ~name ~priority ~items =
  Mutex.protect t.mutex (fun () ->
      let others = List.filter (fun c -> c.name <> name) t.consumers in
      t.consumers <-
        List.stable_sort
          (fun a b -> Stdlib.compare a.priority b.priority)
          ({ name; priority; items } :: others))

let used_locked t =
  List.fold_left
    (fun acc c -> List.fold_left (fun acc i -> acc + i.bytes) acc (c.items ()))
    0 t.consumers

let used t = Mutex.protect t.mutex (fun () -> used_locked t)

(* Drop [c]'s items, coldest first, while [need] bytes are still wanted;
   returns what is still wanted afterwards. *)
let evict c need =
  let rec go need freed = function
    | i :: rest when need > 0 ->
      i.drop ();
      Io_stats.incr "gov.evictions";
      Io_stats.incr ("gov.evictions." ^ c.name);
      go (need - i.bytes) (freed + i.bytes) rest
    | _ ->
      if freed > 0 then Io_stats.add "gov.evicted_bytes" freed;
      need
  in
  go need 0 (c.items ())

let reserve t ~bytes =
  bytes <= 0
  ||
  Mutex.protect t.mutex (fun () ->
      let need =
        List.fold_left
          (fun need c -> if need > 0 then evict c need else need)
          (used_locked t + bytes - t.capacity)
          t.consumers
      in
      need <= 0
      ||
      (Io_stats.incr "gov.reservation_failures";
       false))
