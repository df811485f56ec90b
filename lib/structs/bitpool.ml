open Dstore_memory
open Dstore_util

(* Layout at [off]: hint u64 | allocated-count u64 | ceil(count/32) bitmap
   words (u32). Bit set = allocated. 32-bit words keep all bit arithmetic
   inside OCaml's 63-bit native int; the maintained count makes capacity
   checks O(1). *)

type t = { mem : Mem.t; off : int; count : int; words : int }

let bits_per_word = 32

let words_for count = (count + bits_per_word - 1) / bits_per_word

let bytes_needed count = 16 + (4 * words_for count)

let make space ~off ~count =
  { mem = Space.mem space; off; count; words = words_for count }

let word_off t i = t.off + 16 + (4 * i)

let format space ~off ~count =
  assert (count > 0);
  let t = make space ~off ~count in
  t.mem.Mem.set_u64 off 0;
  t.mem.Mem.set_u64 (off + 8) 0;
  t.mem.Mem.fill (off + 16) (4 * t.words) 0;
  (* Mark the padding bits of the last word allocated so scans skip them. *)
  for id = count to (t.words * bits_per_word) - 1 do
    let wo = word_off t (id / bits_per_word) in
    t.mem.Mem.set_u32 wo (t.mem.Mem.get_u32 wo lor (1 lsl (id mod bits_per_word)))
  done;
  t

let attach space ~off ~count = make space ~off ~count

let count t = t.count

let hint t = t.mem.Mem.get_u64 t.off

let set_hint t v = t.mem.Mem.set_u64 t.off v

let allocated t = t.mem.Mem.get_u64 (t.off + 8)

let bump_allocated t d = t.mem.Mem.set_u64 (t.off + 8) (allocated t + d)

let is_allocated t id =
  assert (id >= 0 && id < t.count);
  let w = t.mem.Mem.get_u32 (word_off t (id / bits_per_word)) in
  w land (1 lsl (id mod bits_per_word)) <> 0

let set_bit t id =
  let wo = word_off t (id / bits_per_word) in
  t.mem.Mem.set_u32 wo (t.mem.Mem.get_u32 wo lor (1 lsl (id mod bits_per_word)))

let clear_bit t id =
  let wo = word_off t (id / bits_per_word) in
  t.mem.Mem.set_u32 wo (t.mem.Mem.get_u32 wo land lnot (1 lsl (id mod bits_per_word)))

(* First free id in word [w_idx] at or above bit [lo_bit], or -1. *)
let probe t w_idx lo_bit =
  let w = t.mem.Mem.get_u32 (word_off t w_idx) in
  let free_mask = lnot w land 0xFFFFFFFF land lnot ((1 lsl lo_bit) - 1) in
  if free_mask <> 0 then (w_idx * bits_per_word) + Base_bits.ctz free_mask
  else -1

(* First free id at or after [from], scanning circularly, or -1. *)
let scan_from t from =
  let start_word = from / bits_per_word in
  let rec go step =
    if step > t.words then -1
    else
      let w_idx = (start_word + step) mod t.words in
      let lo = if step = 0 then from mod bits_per_word else 0 in
      let id = probe t w_idx lo in
      if id >= 0 && id < t.count then id else go (step + 1)
  in
  go 0

let alloc t =
  let id = scan_from t (hint t mod t.count) in
  if id >= 0 then begin
    set_bit t id;
    bump_allocated t 1;
    set_hint t ((id + 1) mod t.count)
  end;
  id

let alloc_run t n =
  assert (n > 0);
  if t.count - allocated t < n then None
  else begin
    let ids = Array.make n 0 in
    for i = 0 to n - 1 do
      let id = alloc t in
      assert (id >= 0) (* capacity was checked above *);
      ids.(i) <- id
    done;
    (* Coalesce adjacent ids into extents, preserving order. *)
    let extents = ref [] in
    let start = ref ids.(0) and len = ref 1 in
    for i = 1 to n - 1 do
      if ids.(i) = !start + !len then incr len
      else begin
        extents := (!start, !len) :: !extents;
        start := ids.(i);
        len := 1
      end
    done;
    extents := (!start, !len) :: !extents;
    Some (List.rev !extents)
  end

let set_allocated t id =
  assert (id >= 0 && id < t.count);
  assert (not (is_allocated t id));
  set_bit t id;
  bump_allocated t 1;
  set_hint t ((id + 1) mod t.count)

let free t id =
  assert (id >= 0 && id < t.count);
  assert (is_allocated t id);
  clear_bit t id;
  bump_allocated t (-1)
