(* SplitMix64 (Steele, Lea & Flood, OOPSLA'14). One 64-bit word of state;
   [next] is the standard finalizer over a Weyl sequence. The word lives
   unboxed in an 8-byte [Bytes.t]: a mutable [int64] field would box
   every update, and a draw would allocate. *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t = of_state (next t)

let copy = Bytes.copy

let int t bound =
  assert (bound > 0);
  (* Rejection-free for benchmark use: modulo bias is negligible for the
     bounds we draw (<< 2^62). *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let float t =
  (* 53 random mantissa bits. *)
  let bits = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int bits *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (next t) 1L = 1L

let bytes t n =
  let b = Bytes.create n in
  let i = ref 0 in
  while !i < n do
    let v = next t in
    let k = min 8 (n - !i) in
    for j = 0 to k - 1 do
      Bytes.unsafe_set b (!i + j)
        (Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical v (8 * j)) land 0xff))
    done;
    i := !i + k
  done;
  b

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
