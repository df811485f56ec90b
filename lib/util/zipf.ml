(* Gray et al.'s "Quickly generating billion-record synthetic databases"
   bounded Zipfian generator, as re-used by YCSB's ZipfianGenerator. *)

type t = {
  items : int;
  theta : float;
  alpha : float;
  zetan : float;
  eta : float;
  zeta2 : float;
}

let zeta n theta =
  let acc = ref 0.0 in
  for i = 1 to n do
    acc := !acc +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !acc

let create ?(theta = 0.99) items =
  assert (items > 0);
  assert (theta > 0.0 && theta < 1.0);
  let zetan = zeta items theta in
  let zeta2 = zeta 2 theta in
  let alpha = 1.0 /. (1.0 -. theta) in
  let eta =
    (1.0 -. Float.pow (2.0 /. float_of_int items) (1.0 -. theta))
    /. (1.0 -. (zeta2 /. zetan))
  in
  { items; theta; alpha; zetan; eta; zeta2 }

let draw t rng =
  let u = Rng.float rng in
  let uz = u *. t.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. Float.pow 0.5 t.theta then 1
  else
    let rank =
      float_of_int t.items
      *. Float.pow ((t.eta *. u) -. t.eta +. 1.0) t.alpha
    in
    let rank = int_of_float rank in
    if rank >= t.items then t.items - 1 else rank

(* FNV-1a 64-bit, used by YCSB to scramble ranks over the item space. *)
let fnv_hash64 v =
  let prime = 0x100000001B3L in
  let h = ref 0xCBF29CE484222325L in
  let v = ref (Int64.of_int v) in
  for _ = 0 to 7 do
    let octet = Int64.logand !v 0xffL in
    h := Int64.mul (Int64.logxor !h octet) prime;
    v := Int64.shift_right_logical !v 8
  done;
  Int64.to_int (Int64.shift_right_logical !h 1) land max_int

let draw_scrambled t rng = fnv_hash64 (draw t rng) mod t.items

let uniform n rng = Rng.int rng n
