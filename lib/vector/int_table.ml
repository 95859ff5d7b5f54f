(* Slot [s] is the pair [slots.(2s)] = key, [slots.(2s+1)] = value, the
   value -1 while the slot is empty, whatever its key word holds. The table
   doubles before it is half full, so probe runs stay short. *)
type t = {
  mutable shift : int;
  mutable mask : int;
  mutable slots : int array;
  mutable size : int;
}

let make bits =
  let cap = 1 lsl bits in
  { shift = 63 - bits; mask = cap - 1; slots = Array.make (2 * cap) (-1); size = 0 }

let create n =
  let bits = ref 4 in
  while 1 lsl !bits < 2 * n do incr bits done;
  make !bits

(* Fibonacci hashing: the top bits of [k * golden] spread keys that differ
   only in their high bits (multiples of a large power of two) *)
let slot_of t k = (k * 0x1E3779B97F4A7C15) lsr t.shift

let rec find_slot t k s =
  let v = Array.unsafe_get t.slots ((2 * s) + 1) in
  if v < 0 || Array.unsafe_get t.slots (2 * s) = k then s
  else find_slot t k ((s + 1) land t.mask)

let find t k = Array.unsafe_get t.slots ((2 * find_slot t k (slot_of t k)) + 1)

let store t k v =
  let s = find_slot t k (slot_of t k) in
  if Array.unsafe_get t.slots ((2 * s) + 1) < 0 then t.size <- t.size + 1;
  Array.unsafe_set t.slots (2 * s) k;
  Array.unsafe_set t.slots ((2 * s) + 1) v

let grow t =
  let old = t.slots in
  let bigger = make (64 - t.shift) in
  t.shift <- bigger.shift;
  t.mask <- bigger.mask;
  t.slots <- bigger.slots;
  t.size <- 0;
  for s = 0 to (Array.length old / 2) - 1 do
    let v = old.((2 * s) + 1) in
    if v >= 0 then store t old.(2 * s) v
  done

let replace t k v =
  if v < 0 then invalid_arg "Int_table.replace: negative value";
  if 2 * (t.size + 1) > t.mask + 1 then grow t;
  store t k v
