(* Byte-budgeted CLOCK object cache. Strictly volatile: nothing here
   ever reaches a persistence domain, so crash recovery can ignore it
   entirely (a recovered store starts cold).

   Buffers are rounded up to power-of-two capacities and recycled
   through per-size-class free pools on eviction/invalidation, so a
   steady-state fill/evict loop performs no allocation. *)

type stats = {
  budget : int;
  bytes : int;
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  fills : int;
  recycled : int;
}

type entry = {
  key : string;
  mutable buf : Bytes.t; (* capacity = Bytes.length buf >= len *)
  mutable len : int;
  mutable referenced : bool; (* CLOCK second-chance bit *)
  mutable live : bool; (* false once evicted/invalidated *)
}

type t = {
  budget : int;
  tbl : (string, entry) Hashtbl.t;
  mutable ring : entry array; (* clock ring; may hold dead entries *)
  mutable ring_len : int;
  mutable hand : int;
  mutable bytes : int; (* sum of live buffer capacities *)
  mutable n_live : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable fills : int;
  mutable recycled : int;
  pools : Bytes.t list array; (* free buffers by log2 size class *)
}

let n_classes = 31

let dummy_entry =
  { key = ""; buf = Bytes.empty; len = 0; referenced = false; live = false }

let create ~budget =
  {
    budget = max 0 budget;
    tbl = Hashtbl.create 1024;
    ring = Array.make 64 dummy_entry;
    ring_len = 0;
    hand = 0;
    bytes = 0;
    n_live = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
    fills = 0;
    recycled = 0;
    pools = Array.make n_classes [];
  }

let budget t = t.budget

(* Smallest power of two >= n (min 16): the buffer capacity class. *)
let size_class n =
  let n = max 16 n in
  let rec go c = if 1 lsl c >= n then c else go (c + 1) in
  go 4

let take_buf t len =
  let c = size_class len in
  match t.pools.(c) with
  | b :: rest ->
      t.pools.(c) <- rest;
      t.recycled <- t.recycled + 1;
      b
  | [] -> Bytes.create (1 lsl c)

let recycle_buf t b =
  let cap = Bytes.length b in
  if cap >= 16 then begin
    let c = size_class cap in
    if 1 lsl c = cap then t.pools.(c) <- b :: t.pools.(c)
  end

(* Drop a live entry: table, byte accounting, buffer back to the pool.
   The ring slot is left in place (marked dead) and compacted lazily
   when the clock hand reaches it. *)
let kill t e =
  if e.live then begin
    e.live <- false;
    t.bytes <- t.bytes - Bytes.length e.buf;
    t.n_live <- t.n_live - 1;
    Hashtbl.remove t.tbl e.key;
    recycle_buf t e.buf;
    e.buf <- Bytes.empty;
    e.len <- 0
  end

(* Remove the ring slot at the hand by swapping in the last slot; the
   hand is not advanced so the swapped-in entry is examined next. *)
let compact_at_hand t =
  t.ring_len <- t.ring_len - 1;
  if t.ring_len > 0 then t.ring.(t.hand) <- t.ring.(t.ring_len);
  t.ring.(t.ring_len) <- dummy_entry;
  if t.hand >= t.ring_len then t.hand <- 0

(* One clock step: compact a dead slot, give a referenced entry its
   second chance, or evict an unreferenced victim. *)
let clock_step t =
  let e = t.ring.(t.hand) in
  if not e.live then compact_at_hand t
  else if e.referenced then begin
    e.referenced <- false;
    t.hand <- (t.hand + 1) mod t.ring_len
  end
  else begin
    kill t e;
    t.evictions <- t.evictions + 1;
    compact_at_hand t
  end

let evict_to_fit t need =
  while t.bytes + need > t.budget && t.ring_len > 0 do
    clock_step t
  done

let ring_append t e =
  if t.ring_len = Array.length t.ring then begin
    let bigger = Array.make (2 * Array.length t.ring) dummy_entry in
    Array.blit t.ring 0 bigger 0 t.ring_len;
    t.ring <- bigger
  end;
  t.ring.(t.ring_len) <- e;
  t.ring_len <- t.ring_len + 1

let borrow t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e when e.live ->
      e.referenced <- true;
      t.hits <- t.hits + 1;
      Some (e.buf, e.len)
  | _ ->
      t.misses <- t.misses + 1;
      None

let put t key src ~pos ~len =
  if len >= 0 then begin
    match Hashtbl.find_opt t.tbl key with
    | Some e when e.live && Bytes.length e.buf >= len ->
        (* Replace in place, reusing the buffer when it still fits. *)
        Bytes.blit src pos e.buf 0 len;
        e.len <- len;
        e.referenced <- true
    | existing ->
        (* Grown replace or fresh insert. Detach any stale entry FIRST
           ([kill] removes it from the table, subtracts its capacity and
           recycles its buffer exactly once) so [evict_to_fit] below can
           never select it and recycle/subtract a second time. *)
        (match existing with Some e when e.live -> kill t e | _ -> ());
        let c = size_class len in
        if c < n_classes && 1 lsl c <= t.budget then begin
          let cap = 1 lsl c in
          evict_to_fit t cap;
          let buf = take_buf t len in
          Bytes.blit src pos buf 0 len;
          let e = { key; buf; len; referenced = true; live = true } in
          Hashtbl.replace t.tbl key e;
          ring_append t e;
          t.bytes <- t.bytes + Bytes.length buf;
          t.n_live <- t.n_live + 1;
          t.fills <- t.fills + 1
        end
  end

let invalidate t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e when e.live ->
      kill t e;
      t.invalidations <- t.invalidations + 1
  | _ -> ()

let clear t =
  for i = 0 to t.ring_len - 1 do
    let e = t.ring.(i) in
    if e.live then kill t e;
    t.ring.(i) <- dummy_entry
  done;
  t.ring_len <- 0;
  t.hand <- 0

let entries t = t.n_live
let bytes t = t.bytes
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

let stats t : stats =
  {
    budget = t.budget;
    bytes = t.bytes;
    entries = t.n_live;
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    invalidations = t.invalidations;
    fills = t.fills;
    recycled = t.recycled;
  }
