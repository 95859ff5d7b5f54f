type t = int array

let of_array_unchecked a = a

let of_array a =
  let n = Array.length a in
  for i = 1 to n - 1 do
    if a.(i - 1) >= a.(i) then
      invalid_arg "Sel.of_array: indices must be strictly ascending"
  done;
  a

let range start len =
  let a = Array.make len start in
  for i = 1 to len - 1 do
    Array.unsafe_set a i (start + i)
  done;
  a

let all n = range 0 n
let empty = [||]
let length = Array.length
let get (t : t) i = t.(i)
let to_array (t : t) = t
let iter f (t : t) = Array.iter f t

let compose outer inner = Array.map (fun k -> inner.(k)) outer

let of_bool_mask mask =
  let n = Array.length mask in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if mask.(i) then incr count
  done;
  let out = Array.make !count 0 in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if mask.(i) then begin
      out.(!j) <- i;
      incr j
    end
  done;
  out

let complement (t : t) n =
  let mask = Array.make n true in
  Array.iter (fun i -> mask.(i) <- false) t;
  of_bool_mask mask

let equal (a : t) (b : t) = a = b

let pp ppf (t : t) =
  Format.fprintf ppf "@[<h>sel[%a]@]"
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.fprintf f ";@ ")
       Format.pp_print_int)
    (Array.to_list t)
