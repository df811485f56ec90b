(* Log-linear bucketing: values below 2^sub_bits are exact; above that, each
   power-of-two range is split into 2^sub_bits equal sub-buckets, giving a
   bounded relative error of 2^-sub_bits. Same scheme as HdrHistogram. *)

type t = {
  sub_bits : int;
  counts : int array;
  mutable total : int;
  mutable min_v : int;
  mutable max_v : int;
  mutable sum_mid : float;
}

let n_halves = 57 (* enough half-ranges to cover 62-bit values (sub_bits >= 5) *)

let create ?(sub_bits = 6) () =
  assert (sub_bits >= 5 && sub_bits <= 12);
  {
    sub_bits;
    counts = Array.make ((n_halves + 1) * (1 lsl sub_bits)) 0;
    total = 0;
    min_v = max_int;
    max_v = 0;
    sum_mid = 0.0;
  }

(* Index of the bucket containing [v]. *)
let index t v =
  let sub = t.sub_bits in
  if v < 1 lsl sub then v
  else
    let msb = 62 - Base_bits.clz v in
    let half = msb - sub + 1 in
    let sub_idx = (v lsr (half - 1)) land ((1 lsl sub) - 1) in
    (half * (1 lsl sub)) + sub_idx

(* Upper bound (inclusive) of bucket [i]. *)
let bucket_high t i =
  let sub = t.sub_bits in
  if i < 1 lsl sub then i
  else
    let half = i lsr sub in
    let sub_idx = i land ((1 lsl sub) - 1) in
    ((((1 lsl sub) + sub_idx + 1) lsl (half - 1)) - 1)

let record_n t v n =
  let v = if v < 0 then 0 else v in
  let i = index t v in
  t.counts.(i) <- t.counts.(i) + n;
  t.total <- t.total + n;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v;
  t.sum_mid <- t.sum_mid +. (float_of_int n *. float_of_int v)

let record t v = record_n t v 1

let count t = t.total

let min_value t = if t.total = 0 then 0 else t.min_v

let max_value t = t.max_v

let mean t = if t.total = 0 then 0.0 else t.sum_mid /. float_of_int t.total

let percentile t p =
  if t.total = 0 then 0
  else begin
    let needed =
      let x = ceil (p /. 100.0 *. float_of_int t.total) in
      let x = int_of_float x in
      if x < 1 then 1 else if x > t.total then t.total else x
    in
    let acc = ref 0 in
    let result = ref t.max_v in
    (try
       for i = 0 to Array.length t.counts - 1 do
         acc := !acc + t.counts.(i);
         if !acc >= needed then begin
           result := bucket_high t i;
           raise Exit
         end
       done
     with Exit -> ());
    (* Never report beyond the true max: the top bucket is coarse. *)
    if !result > t.max_v then t.max_v else !result
  end

let merge_into ~dst src =
  assert (dst.sub_bits = src.sub_bits);
  Array.iteri (fun i c -> if c <> 0 then dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.total <- dst.total + src.total;
  if src.total > 0 then begin
    if src.min_v < dst.min_v then dst.min_v <- src.min_v;
    if src.max_v > dst.max_v then dst.max_v <- src.max_v
  end;
  dst.sum_mid <- dst.sum_mid +. src.sum_mid

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0;
  t.min_v <- max_int;
  t.max_v <- 0;
  t.sum_mid <- 0.0

let sub_bits t = t.sub_bits

let buckets t =
  let acc = ref [] in
  for i = Array.length t.counts - 1 downto 0 do
    if t.counts.(i) <> 0 then acc := (bucket_high t i, t.counts.(i)) :: !acc
  done;
  !acc

let percentile_labels =
  [ ("p50", 50.0); ("p99", 99.0); ("p999", 99.9); ("p9999", 99.99) ]
