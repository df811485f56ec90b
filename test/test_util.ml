(* Unit and property tests for dstore_util: Rng, Zipf, Histogram, Pqueue,
   Checksum, Base_bits, Tablefmt. *)

open Dstore_util

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

(* --- Rng -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" false (Rng.next a = Rng.next b)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  Alcotest.(check bool) "split stream differs" false (Rng.next a = Rng.next b)

let test_rng_copy_replays () =
  let a = Rng.create 9 in
  ignore (Rng.next a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy replays" (Rng.next a) (Rng.next b)

let test_rng_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let r = Rng.create 4 in
  for _ = 1 to 1_000 do
    let v = Rng.int_in r (-5) 5 in
    Alcotest.(check bool) "in closed range" true (v >= -5 && v <= 5)
  done

let test_rng_float_range () =
  let r = Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Rng.float r in
    Alcotest.(check bool) "[0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_uniformity () =
  (* Chi-squared-ish sanity: 10 bins, 100k draws, each bin within 10%. *)
  let r = Rng.create 6 in
  let bins = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Rng.int r 10 in
    bins.(b) <- bins.(b) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bin within 10% of expectation" true
        (abs (c - (n / 10)) < n / 100))
    bins

let test_rng_bytes_len () =
  let r = Rng.create 8 in
  List.iter
    (fun n -> check Alcotest.int "length" n (Bytes.length (Rng.bytes r n)))
    [ 0; 1; 7; 8; 9; 4096 ]

let test_rng_shuffle_permutation () =
  let r = Rng.create 11 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 100 Fun.id) sorted

(* The first 1 000 draws of every kind, interleaved, for one seed. The
   pinned digests below were captured from the boxed-state generator:
   any change of representation must replay the same streams. *)
let rng_stream_digest seed =
  let r = Rng.create seed in
  let b = Buffer.create 65536 in
  for i = 0 to 999 do
    Buffer.add_string b (string_of_int (Rng.int r (1 + (i * 7919))));
    Buffer.add_char b ' ';
    Buffer.add_string b (Int64.to_string (Int64.bits_of_float (Rng.float r)));
    Buffer.add_char b (if Rng.bool r then '1' else '0');
    Buffer.add_bytes b (Rng.bytes r (i mod 17));
    Buffer.add_string b (Int64.to_string (Rng.next (Rng.split r)));
    Buffer.add_char b '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_rng_stream_pinned () =
  check Alcotest.string "seed 0" "848714ab71fce147e65abb57b0d030fe" (rng_stream_digest 0);
  check Alcotest.string "seed 42" "1b4980172c46a18355476223128f0ab4"
    (rng_stream_digest 42)

(* Every simulated op draws from an Rng: a draw must not allocate. *)
let test_rng_int_alloc_free () =
  let r = Rng.create 42 in
  let acc = ref 0 in
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    acc := !acc + Rng.int r 1000
  done;
  let per_draw = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per Rng.int <= 0.5 (sum %d)" per_draw !acc)
    true (per_draw <= 0.5)

(* --- Zipf ------------------------------------------------------------- *)

let test_zipf_range () =
  let z = Zipf.create 1000 in
  let r = Rng.create 13 in
  for _ = 1 to 10_000 do
    let v = Zipf.draw z r in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 1000)
  done

let test_zipf_skew () =
  (* With theta = 0.99 the most popular item should receive far more than
     1/n of the requests, and low ranks should dominate. *)
  let n = 1000 in
  let z = Zipf.create n in
  let r = Rng.create 17 in
  let counts = Array.make n 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    let v = Zipf.draw z r in
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check bool) "rank 0 is hot" true (counts.(0) > draws / 50);
  let top10 = Array.fold_left ( + ) 0 (Array.sub counts 0 10) in
  Alcotest.(check bool) "top-10 ranks exceed 20% of draws" true
    (top10 > draws / 5);
  Alcotest.(check bool) "rank 0 beats rank 500" true (counts.(0) > counts.(500))

let test_zipf_scrambled_range () =
  let z = Zipf.create 1000 in
  let r = Rng.create 19 in
  for _ = 1 to 10_000 do
    let v = Zipf.draw_scrambled z r in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 1000)
  done

let test_zipf_scrambled_spreads () =
  (* Scrambling must not leave the hottest keys adjacent. *)
  let n = 1000 in
  let z = Zipf.create n in
  let r = Rng.create 23 in
  let counts = Array.make n 0 in
  for _ = 1 to 100_000 do
    let v = Zipf.draw_scrambled z r in
    counts.(v) <- counts.(v) + 1
  done;
  let hottest = ref 0 in
  Array.iteri (fun i c -> if c > counts.(!hottest) then hottest := i) counts;
  let second = ref (if !hottest = 0 then 1 else 0) in
  Array.iteri
    (fun i c -> if i <> !hottest && c > counts.(!second) then second := i)
    counts;
  Alcotest.(check bool) "two hottest keys not adjacent" true
    (abs (!hottest - !second) > 1)

let test_zipf_uniform () =
  let r = Rng.create 29 in
  for _ = 1 to 1_000 do
    let v = Zipf.uniform 42 r in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 42)
  done

(* --- Histogram --------------------------------------------------------- *)

let test_hist_empty () =
  let h = Histogram.create () in
  check Alcotest.int "count" 0 (Histogram.count h);
  check Alcotest.int "p99" 0 (Histogram.percentile h 99.0);
  check Alcotest.int "min" 0 (Histogram.min_value h);
  check Alcotest.int "max" 0 (Histogram.max_value h)

let test_hist_single () =
  let h = Histogram.create () in
  Histogram.record h 777;
  check Alcotest.int "count" 1 (Histogram.count h);
  check Alcotest.int "min" 777 (Histogram.min_value h);
  check Alcotest.int "max" 777 (Histogram.max_value h);
  let p50 = Histogram.percentile h 50.0 in
  Alcotest.(check bool) "p50 within 2%" true (abs (p50 - 777) <= 16)

let test_hist_exact_low_values () =
  (* Values below 2^sub_bits are bucketed exactly. *)
  let h = Histogram.create () in
  for v = 0 to 63 do
    Histogram.record h v
  done;
  check Alcotest.int "p100 max" 63 (Histogram.percentile h 100.0);
  check Alcotest.int "p50" 31 (Histogram.percentile h 50.0)

let test_hist_percentile_monotone () =
  let h = Histogram.create () in
  let r = Rng.create 31 in
  for _ = 1 to 10_000 do
    Histogram.record h (Rng.int r 1_000_000)
  done;
  let prev = ref 0 in
  List.iter
    (fun p ->
      let v = Histogram.percentile h p in
      Alcotest.(check bool) "monotone" true (v >= !prev);
      prev := v)
    [ 1.0; 10.0; 50.0; 90.0; 99.0; 99.9; 99.99; 100.0 ]

let test_hist_relative_error () =
  (* Every percentile of a known uniform population within 2x sub-bucket
     error. *)
  let h = Histogram.create () in
  for v = 1 to 100_000 do
    Histogram.record h v
  done;
  List.iter
    (fun p ->
      let expected = int_of_float (p /. 100.0 *. 100_000.0) in
      let got = Histogram.percentile h p in
      let err = abs (got - expected) in
      Alcotest.(check bool)
        (Printf.sprintf "p%.2f err %d" p err)
        true
        (float_of_int err /. float_of_int expected < 0.04))
    [ 50.0; 90.0; 99.0; 99.9 ]

let test_hist_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  for v = 1 to 1000 do
    Histogram.record a v
  done;
  for v = 1001 to 2000 do
    Histogram.record b v
  done;
  Histogram.merge_into ~dst:a b;
  check Alcotest.int "count" 2000 (Histogram.count a);
  check Alcotest.int "max" 2000 (Histogram.max_value a);
  check Alcotest.int "min" 1 (Histogram.min_value a);
  let p50 = Histogram.percentile a 50.0 in
  Alcotest.(check bool) "p50 near 1000" true (abs (p50 - 1000) < 40)

let test_hist_mean () =
  let h = Histogram.create () in
  Histogram.record h 100;
  Histogram.record h 300;
  Alcotest.(check (float 1.0)) "mean" 200.0 (Histogram.mean h)

let test_hist_reset () =
  let h = Histogram.create () in
  Histogram.record h 5;
  Histogram.reset h;
  check Alcotest.int "count" 0 (Histogram.count h);
  check Alcotest.int "max" 0 (Histogram.max_value h)

let test_hist_record_n () =
  let h = Histogram.create () in
  Histogram.record_n h 10 500;
  check Alcotest.int "count" 500 (Histogram.count h);
  check Alcotest.int "p50 exact (low value)" 10 (Histogram.percentile h 50.0)

let test_hist_huge_values () =
  let h = Histogram.create () in
  Histogram.record h (1 lsl 50);
  Histogram.record h ((1 lsl 50) + 12345);
  check Alcotest.int "count" 2 (Histogram.count h);
  Alcotest.(check bool) "p100 <= max" true
    (Histogram.percentile h 100.0 <= Histogram.max_value h);
  Alcotest.(check bool) "p100 close to max" true
    (float_of_int (Histogram.max_value h - Histogram.percentile h 100.0)
     /. float_of_int (Histogram.max_value h)
    < 0.02)

let prop_hist_percentile_bounds =
  QCheck.Test.make ~name:"histogram percentile within [min,max]" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 200) (int_bound 1_000_000))
    (fun vs ->
      QCheck.assume (vs <> []);
      let h = Histogram.create () in
      List.iter (Histogram.record h) vs;
      List.for_all
        (fun p ->
          let v = Histogram.percentile h p in
          v >= 0 && v <= Histogram.max_value h)
        [ 0.1; 50.0; 99.0; 100.0 ])

(* --- Pqueue ------------------------------------------------------------ *)

(* Drain [q], returning each element's primary key and value in take
   order. *)
let drain_pqueue q =
  let rec go acc =
    if Pqueue.is_empty q then List.rev acc
    else
      let p = Pqueue.min_key q in
      go ((p, Pqueue.take q) :: acc)
  in
  go []

let test_pqueue_order () =
  let q = Pqueue.create ~filler:"" in
  Pqueue.push q 5 0 "e";
  Pqueue.push q 1 0 "a";
  Pqueue.push q 3 0 "c";
  Pqueue.push q 1 1 "b";
  Pqueue.push q 4 0 "d";
  check Alcotest.(list (pair int string)) "sorted by (p, s)"
    [ (1, "a"); (1, "b"); (3, "c"); (4, "d"); (5, "e") ]
    (drain_pqueue q)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create ~filler:(-1) in
  for i = 0 to 99 do
    Pqueue.push q 7 i i
  done;
  for i = 0 to 99 do
    check Alcotest.int "key" 7 (Pqueue.min_key q);
    check Alcotest.int "fifo among ties" i (Pqueue.take q)
  done;
  Alcotest.(check bool) "drained" true (Pqueue.is_empty q)

let test_pqueue_empty () =
  let q = Pqueue.create ~filler:0 in
  Alcotest.(check bool) "is_empty" true (Pqueue.is_empty q);
  Alcotest.check_raises "min_key"
    (Invalid_argument "Pqueue.min_key: empty queue") (fun () ->
      ignore (Pqueue.min_key q));
  Alcotest.check_raises "take" (Invalid_argument "Pqueue.take: empty queue")
    (fun () -> ignore (Pqueue.take q));
  Pqueue.push q 3 0 30;
  check Alcotest.int "one" 30 (Pqueue.take q);
  Alcotest.(check bool) "empty again" true (Pqueue.is_empty q)

(* A taken value, and every value of a drained queue, must not stay
   reachable through the queue's vacated slots: the scheduler queues
   process continuations, and a crash test's abandoned incarnation must
   become garbage. *)
let test_pqueue_releases_taken () =
  let q = Pqueue.create ~filler:(ref 0) in
  let w = Weak.create 100 in
  for i = 0 to 99 do
    let v = ref i in
    Weak.set w i (Some v);
    Pqueue.push q (i mod 7) i v
  done;
  let first = Pqueue.take q in
  check Alcotest.int "minimum" 0 !first;
  let live () =
    Gc.full_major ();
    List.length (List.filter (fun i -> Weak.check w i) (List.init 100 Fun.id))
  in
  check Alcotest.int "taken value collectable" 99 (live ());
  while not (Pqueue.is_empty q) do
    ignore (Pqueue.take q)
  done;
  check Alcotest.int "drained queue holds nothing" 0 (live ())

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue drains in key order" ~count:300
    QCheck.(list (pair small_int small_int))
    (fun pairs ->
      let q = Pqueue.create ~filler:(-1) in
      List.iteri (fun i (p, _) -> Pqueue.push q p i i) pairs;
      (* Values are the tiebreaks, so the drain yields full keys. *)
      let keys = drain_pqueue q in
      let rec sorted = function
        | (p1, s1) :: ((p2, s2) :: _ as rest) ->
            (p1 < p2 || (p1 = p2 && s1 < s2)) && sorted rest
        | _ -> true
      in
      sorted keys && List.length keys = List.length pairs)

(* --- Checksum ----------------------------------------------------------- *)

let test_crc_known_vector () =
  (* CRC-32C("123456789") = 0xE3069283, the standard check value. *)
  check Alcotest.int "check value" 0xE3069283 (Checksum.crc32c_string "123456789")

let test_crc_empty () = check Alcotest.int "empty" 0 (Checksum.crc32c_string "")

let test_crc_detects_flip () =
  let b = Bytes.of_string "hello world, this is a log record payload" in
  let c1 = Checksum.crc32c b ~pos:0 ~len:(Bytes.length b) in
  Bytes.set b 10 'X';
  let c2 = Checksum.crc32c b ~pos:0 ~len:(Bytes.length b) in
  Alcotest.(check bool) "differs" true (c1 <> c2)

let prop_crc_subrange =
  QCheck.Test.make ~name:"crc over subrange = crc over copy" ~count:200
    QCheck.(pair (string_of_size Gen.(int_range 1 200)) small_int)
    (fun (s, k) ->
      QCheck.assume (String.length s > 1);
      let pos = k mod String.length s in
      let len = String.length s - pos in
      let b = Bytes.of_string s in
      Checksum.crc32c b ~pos ~len
      = Checksum.crc32c_string (String.sub s pos len))

(* --- Base_bits ----------------------------------------------------------- *)

let test_bits_clz () =
  check Alcotest.int "clz 1" 62 (Base_bits.clz 1);
  check Alcotest.int "clz 2" 61 (Base_bits.clz 2);
  check Alcotest.int "clz max_int" 1 (Base_bits.clz max_int);
  check Alcotest.int "msb 1" 0 (Base_bits.msb 1);
  check Alcotest.int "msb 100000" 16 (Base_bits.msb 100000);
  check Alcotest.int "msb max_int" 61 (Base_bits.msb max_int)

let test_bits_pow2 () =
  check Alcotest.int "ceil 1" 1 (Base_bits.ceil_pow2 1);
  check Alcotest.int "ceil 3" 4 (Base_bits.ceil_pow2 3);
  check Alcotest.int "ceil 4" 4 (Base_bits.ceil_pow2 4);
  check Alcotest.int "ceil 1000" 1024 (Base_bits.ceil_pow2 1000);
  check Alcotest.int "log2_ceil 1" 0 (Base_bits.log2_ceil 1);
  check Alcotest.int "log2_ceil 17" 5 (Base_bits.log2_ceil 17)

let test_bits_popcount_ctz () =
  check Alcotest.int "popcount 0" 0 (Base_bits.popcount 0);
  check Alcotest.int "popcount 0xFF" 8 (Base_bits.popcount 0xFF);
  check Alcotest.int "ctz 8" 3 (Base_bits.ctz 8);
  check Alcotest.int "ctz 1" 0 (Base_bits.ctz 1)

let prop_bits_pow2 =
  QCheck.Test.make ~name:"ceil_pow2 is smallest power of two >= n" ~count:500
    QCheck.(int_range 1 (1 lsl 40))
    (fun n ->
      let p = Base_bits.ceil_pow2 n in
      Base_bits.is_pow2 p && p >= n && (p = 1 || p / 2 < n))

(* --- Tablefmt ------------------------------------------------------------ *)

let test_tablefmt_smoke () =
  let t = Tablefmt.create [ "name"; "value" ] in
  Tablefmt.row t [ "alpha"; "1" ];
  Tablefmt.sep t;
  Tablefmt.row t [ "beta"; "22" ];
  let buf = Filename.temp_file "tbl" ".txt" in
  let oc = open_out buf in
  Tablefmt.print ~oc t;
  close_out oc;
  let ic = open_in buf in
  let line1 = input_line ic in
  close_in ic;
  Sys.remove buf;
  Alcotest.(check bool) "renders a border" true (String.length line1 > 0 && line1.[0] = '+')

let test_tablefmt_units () =
  check Alcotest.string "ns" "500 ns" (Tablefmt.ns 500.0);
  check Alcotest.string "us" "1.50 us" (Tablefmt.ns 1500.0);
  check Alcotest.string "ms" "2.00 ms" (Tablefmt.ns 2.0e6);
  check Alcotest.string "bytes" "1.0 KB" (Tablefmt.bytes 1024);
  check Alcotest.string "commas" "1,234,567" (Tablefmt.commas 1234567)

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng copy replays", `Quick, test_rng_copy_replays);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng int_in bounds", `Quick, test_rng_int_in);
    ("rng float range", `Quick, test_rng_float_range);
    ("rng uniformity", `Quick, test_rng_uniformity);
    ("rng bytes length", `Quick, test_rng_bytes_len);
    ("rng shuffle permutation", `Quick, test_rng_shuffle_permutation);
    ("rng streams pinned", `Quick, test_rng_stream_pinned);
    ("rng int allocation-free", `Quick, test_rng_int_alloc_free);
    ("zipf range", `Quick, test_zipf_range);
    ("zipf skew", `Quick, test_zipf_skew);
    ("zipf scrambled range", `Quick, test_zipf_scrambled_range);
    ("zipf scrambled spreads", `Quick, test_zipf_scrambled_spreads);
    ("zipf uniform", `Quick, test_zipf_uniform);
    ("hist empty", `Quick, test_hist_empty);
    ("hist single", `Quick, test_hist_single);
    ("hist exact low values", `Quick, test_hist_exact_low_values);
    ("hist percentile monotone", `Quick, test_hist_percentile_monotone);
    ("hist relative error", `Quick, test_hist_relative_error);
    ("hist merge", `Quick, test_hist_merge);
    ("hist mean", `Quick, test_hist_mean);
    ("hist reset", `Quick, test_hist_reset);
    ("hist record_n", `Quick, test_hist_record_n);
    ("hist huge values", `Quick, test_hist_huge_values);
    qtest prop_hist_percentile_bounds;
    ("pqueue order", `Quick, test_pqueue_order);
    ("pqueue fifo ties", `Quick, test_pqueue_fifo_ties);
    ("pqueue empty", `Quick, test_pqueue_empty);
    ("pqueue releases taken values", `Quick, test_pqueue_releases_taken);
    qtest prop_pqueue_sorted;
    ("crc known vector", `Quick, test_crc_known_vector);
    ("crc empty", `Quick, test_crc_empty);
    ("crc detects flip", `Quick, test_crc_detects_flip);
    qtest prop_crc_subrange;
    ("bits clz", `Quick, test_bits_clz);
    ("bits pow2", `Quick, test_bits_pow2);
    ("bits popcount ctz", `Quick, test_bits_popcount_ctz);
    qtest prop_bits_pow2;
    ("tablefmt smoke", `Quick, test_tablefmt_smoke);
    ("tablefmt units", `Quick, test_tablefmt_units);
  ]
