(* Exact latency samples. The simulator's latencies are integers, and many
   ops cost exactly the same number of virtual nanoseconds, so a bucketed
   histogram would report the same bucket bound on every seed. Keeping
   every sample and sorting once gives exact order statistics. *)

type t = { mutable a : int array; mutable n : int; mutable sorted : bool }

let create () = { a = Array.make 4096 0; n = 0; sorted = true }

let add t v =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- v;
  t.n <- t.n + 1;
  t.sorted <- false

let count t = t.n

let append ~dst src =
  for i = 0 to src.n - 1 do
    add dst src.a.(i)
  done

let sort t =
  if not t.sorted then begin
    let b = Array.sub t.a 0 t.n in
    Array.sort Int.compare b;
    t.a <- b;
    t.sorted <- true
  end

(* Nearest-rank percentile, [p] in [0, 100]; 0 when empty. *)
let percentile t p =
  if t.n = 0 then 0
  else begin
    sort t;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n)) in
    t.a.(max 0 (min (t.n - 1) (rank - 1)))
  end

let mean t =
  if t.n = 0 then 0.0
  else begin
    let s = ref 0.0 in
    for i = 0 to t.n - 1 do
      s := !s +. float_of_int t.a.(i)
    done;
    !s /. float_of_int t.n
  end

(* Mean of the slowest [100 - p] percent of the samples (at least one):
   the tail mean above the [p] percentile. Unlike the percentile itself
   it never lands exactly on one of the atoms a deterministic simulator
   produces, and it averages over every sample in the tail. *)
let tail_mean t p =
  if t.n = 0 then 0.0
  else begin
    sort t;
    let share = (100.0 -. p) /. 100.0 in
    let k = max 1 (int_of_float (Float.round (share *. float_of_int t.n))) in
    let s = ref 0.0 in
    for i = t.n - k to t.n - 1 do
      s := !s +. float_of_int t.a.(i)
    done;
    !s /. float_of_int k
  end

(* Microseconds at percentile [p]. *)
let us t p = float_of_int (percentile t p) /. 1e3

(* Samples strictly above the [p] percentile; a percentile means little
   with fewer than ten beyond it. *)
let beyond t p =
  if t.n = 0 then 0
  else begin
    let v = percentile t p in
    let c = ref 0 in
    for i = 0 to t.n - 1 do
      if t.a.(i) > v then incr c
    done;
    !c
  end
