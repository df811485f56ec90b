(* DRAM object cache: unit tests for the CLOCK cache itself, plus
   store-level coherence, the zero-copy view, the single-lookup
   versioned read, and the cached-vs-uncached equivalence property. *)

open Dstore_platform
open Dstore_pmem
open Dstore_ssd
open Dstore_core
open Dstore_util
module Cache = Dstore_cache.Cache

let check = Alcotest.check

(* --- pure cache unit tests -------------------------------------------------- *)

let v n c = Bytes.make n c

let put c key b = Cache.put c key b ~pos:0 ~len:(Bytes.length b)

let get c key =
  match Cache.borrow c key with
  | Some (buf, len) -> Some (Bytes.sub buf 0 len)
  | None -> None

let test_basic () =
  let c = Cache.create ~budget:4096 in
  put c "a" (v 100 'a');
  put c "b" (v 200 'b');
  check (Alcotest.option Alcotest.bytes) "a" (Some (v 100 'a')) (get c "a");
  check (Alcotest.option Alcotest.bytes) "b" (Some (v 200 'b')) (get c "b");
  check (Alcotest.option Alcotest.bytes) "absent" None (get c "nope");
  check Alcotest.int "entries" 2 (Cache.entries c);
  (* Capacities are rounded to powers of two: 128 + 256. *)
  check Alcotest.int "bytes" (128 + 256) (Cache.bytes c);
  check Alcotest.int "hits" 2 (Cache.hits c);
  check Alcotest.int "misses" 1 (Cache.misses c);
  put c "a" (v 50 'A');
  check (Alcotest.option Alcotest.bytes) "replaced" (Some (v 50 'A')) (get c "a");
  check Alcotest.int "replace reuses buffer" (128 + 256) (Cache.bytes c)

let test_budget_and_eviction () =
  let c = Cache.create ~budget:4096 in
  (* Each entry rounds to a 1024-byte buffer: at most 4 fit. *)
  for i = 0 to 9 do
    put c (string_of_int i) (v 1000 (Char.chr (Char.code '0' + i)))
  done;
  check Alcotest.bool "budget respected" true (Cache.bytes c <= 4096);
  check Alcotest.int "entries capped" 4 (Cache.entries c);
  check Alcotest.int "evictions" 6 (Cache.evictions c);
  (* The last insert must be resident (it was just filled). *)
  check Alcotest.bool "latest resident" true (get c "9" <> None);
  (* An object larger than the whole budget is refused, not cached. *)
  put c "huge" (v 8192 'h');
  check (Alcotest.option Alcotest.bytes) "oversized refused" None (get c "huge");
  check Alcotest.bool "budget still respected" true (Cache.bytes c <= 4096)

(* Discriminating second-chance pair: run the same insert sequence twice;
   in one run key "2" is touched after the first eviction pass cleared
   its bit. The touch re-arms the bit, so the clock skips "2" when its
   turn as victim comes — in the control run (no touch) the same pass
   evicts it. Everything else is identical, so residency of "2" at the
   end isolates exactly the second-chance mechanism. *)
let test_clock_second_chance () =
  let run ~touch =
    let c = Cache.create ~budget:4096 in
    (* 4 slots of the 1024-byte class. *)
    for i = 0 to 4 do
      put c (string_of_int i) (v 1000 'x')
    done;
    (* The insert of "4" swept the ring, clearing every bit. *)
    if touch then ignore (get c "2");
    for i = 5 to 7 do
      put c (string_of_int i) (v 1000 'x')
    done;
    get c "2" <> None
  in
  check Alcotest.bool "touched entry survives" true (run ~touch:true);
  check Alcotest.bool "untouched control evicted" false (run ~touch:false)

(* Regression: growing an entry under eviction pressure must detach the
   entry being replaced before the clock sweep runs. The old code
   recycled the stale buffer while the entry was still in the ring, so
   the sweep could evict it and recycle the same buffer a second time —
   two pool slots aliasing one [Bytes] (later fills then share a buffer)
   and its capacity subtracted twice from the byte accounting. *)
let test_grow_replace_under_pressure () =
  let c = Cache.create ~budget:4096 in
  (* Fill the budget exactly: four entries of the 1024-byte class. *)
  List.iter (fun k -> put c k (v 1000 k.[0])) [ "a"; "b"; "c"; "d" ];
  check Alcotest.int "full" 4096 (Cache.bytes c);
  (* Grow "a" into the 2048 class: the insert must evict others, never
     the half-replaced "a" itself. *)
  put c "a" (v 2000 'A');
  check (Alcotest.option Alcotest.bytes) "grown value" (Some (v 2000 'A'))
    (get c "a");
  check Alcotest.bool "budget respected" true (Cache.bytes c <= 4096);
  (* Two fresh same-class fills must land in distinct buffers: under the
     double-recycle bug the free pool held the same buffer twice. *)
  put c "x" (v 1000 'x');
  put c "y" (v 1000 'y');
  (match (Cache.borrow c "x", Cache.borrow c "y") with
  | Some (bx, _), Some (by, _) ->
      check Alcotest.bool "distinct buffers" true (bx != by)
  | _ -> Alcotest.fail "x/y not resident");
  check (Alcotest.option Alcotest.bytes) "x intact" (Some (v 1000 'x')) (get c "x");
  check (Alcotest.option Alcotest.bytes) "y intact" (Some (v 1000 'y')) (get c "y")

let test_invalidate_and_clear () =
  let c = Cache.create ~budget:4096 in
  put c "a" (v 100 'a');
  put c "b" (v 100 'b');
  Cache.invalidate c "a";
  check (Alcotest.option Alcotest.bytes) "invalidated" None (get c "a");
  check Alcotest.int "entries after invalidate" 1 (Cache.entries c);
  (* Re-inserting after invalidation recycles the freed buffer. *)
  put c "a2" (v 100 'c');
  check Alcotest.bool "buffer recycled" true ((Cache.stats c).Cache.recycled >= 1);
  Cache.clear c;
  check Alcotest.int "cleared" 0 (Cache.entries c);
  check Alcotest.int "cleared bytes" 0 (Cache.bytes c);
  put c "a" (v 100 'a');
  check Alcotest.bool "usable after clear" true (get c "a" <> None)

(* --- store-level fixtures --------------------------------------------------- *)

let cache_cfg =
  {
    Config.default with
    log_slots = 512;
    space_bytes = 4 * 1024 * 1024;
    meta_entries = 1024;
    ssd_blocks = 4096;
    checkpoint_workers = 2;
    cache_bytes = 256 * 1024;
  }

type fixture = {
  sim : Sim.t;
  p : Platform.t;
  pm : Pmem.t;
  ssd : Ssd.t;
  cfg : Config.t;
}

let fixture ?(cfg = cache_cfg) () =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let pm =
    Pmem.create p
      { Pmem.default_config with size = Dipper.layout_bytes cfg; crash_model = true }
  in
  let ssd = Ssd.create p { Ssd.default_config with pages = cfg.Config.ssd_blocks } in
  { sim; p; pm; ssd; cfg }

let with_store ?cfg f =
  let fx = fixture ?cfg () in
  let result = ref None in
  Sim.spawn fx.sim "test" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      result := Some (f fx st ctx);
      Dstore.ds_finalize ctx;
      Dstore.stop st);
  Sim.run fx.sim;
  Option.get !result

let bs = Bytes.of_string

(* --- store-level cache behavior --------------------------------------------- *)

let test_store_hit_counters () =
  with_store (fun _fx st ctx ->
      Dstore.oput ctx "k" (bs "hello");
      (* Write-through: the put itself populated the cache. *)
      check (Alcotest.option Alcotest.bytes) "read" (Some (bs "hello"))
        (Dstore.oget ctx "k");
      let s = Option.get (Dstore.cache_stats st) in
      check Alcotest.bool "first read hits write-through" true (s.Cache.hits >= 1);
      Dstore.cache_clear st;
      check (Alcotest.option Alcotest.bytes) "read after clear" (Some (bs "hello"))
        (Dstore.oget ctx "k");
      let s2 = Option.get (Dstore.cache_stats st) in
      check Alcotest.bool "clear forces a miss" true (s2.Cache.misses > s.Cache.misses);
      (* The miss refilled the cache. *)
      check (Alcotest.option Alcotest.bytes) "read again" (Some (bs "hello"))
        (Dstore.oget ctx "k");
      let s3 = Option.get (Dstore.cache_stats st) in
      check Alcotest.bool "refill hit" true (s3.Cache.hits > s2.Cache.hits))

let test_store_coherence () =
  with_store (fun _fx st ctx ->
      Dstore.oput ctx "k" (bs "v1");
      check (Alcotest.option Alcotest.bytes) "v1" (Some (bs "v1"))
        (Dstore.oget ctx "k");
      Dstore.oput ctx "k" (bs "v2-longer");
      check (Alcotest.option Alcotest.bytes) "overwrite visible" (Some (bs "v2-longer"))
        (Dstore.oget ctx "k");
      ignore (Dstore.odelete ctx "k");
      check (Alcotest.option Alcotest.bytes) "delete visible" None (Dstore.oget ctx "k");
      (* Batch and txn write paths maintain the cache too. *)
      ignore (Dstore.obatch ctx [ Dstore.Bput ("k", bs "v3") ]);
      check (Alcotest.option Alcotest.bytes) "batch visible" (Some (bs "v3"))
        (Dstore.oget ctx "k");
      (match
         Dstore.txn_commit_writes ctx ~reads:[]
           ~writes:[ Dstore.Bput ("k", bs "v4") ]
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "txn commit: %s" e);
      check (Alcotest.option Alcotest.bytes) "txn visible" (Some (bs "v4"))
        (Dstore.oget ctx "k");
      ignore st)

let test_stale_fault_diverges () =
  (* The Stale_cache_read mutation must actually produce a stale read —
     otherwise the checker's detection gate proves nothing. *)
  with_store
    ~cfg:{ cache_cfg with fault = Config.Stale_cache_read }
    (fun _fx _st ctx ->
      Dstore.oput ctx "k" (bs "old");
      (* Fill via a read miss (write-through is disabled by the fault). *)
      check (Alcotest.option Alcotest.bytes) "fill" (Some (bs "old"))
        (Dstore.oget ctx "k");
      Dstore.oput ctx "k" (bs "new");
      check (Alcotest.option Alcotest.bytes) "stale read served" (Some (bs "old"))
        (Dstore.oget ctx "k"))

let test_oget_view () =
  with_store (fun _fx st ctx ->
      let scratch = Bytes.create 65536 in
      Dstore.oput ctx "k" (bs "payload");
      (match Dstore.oget_view ctx "k" scratch with
      | Some (buf, len) ->
          check Alcotest.bytes "view bytes" (bs "payload") (Bytes.sub buf 0 len);
          (* Write-through put the value in cache, so the view borrows the
             cache's buffer, not the scratch. *)
          check Alcotest.bool "borrowed, not scratch" true (buf != scratch)
      | None -> Alcotest.fail "view: absent");
      Dstore.cache_clear st;
      (match Dstore.oget_view ctx "k" scratch with
      | Some (buf, len) ->
          check Alcotest.bytes "miss view bytes" (bs "payload") (Bytes.sub buf 0 len);
          check Alcotest.bool "miss fills via scratch" true (buf == scratch)
      | None -> Alcotest.fail "view after clear: absent");
      check (Alcotest.option (Alcotest.pair Alcotest.bytes Alcotest.int))
        "absent" None
        (Dstore.oget_view ctx "missing" scratch))

let test_oget_versioned () =
  with_store (fun _fx _st ctx ->
      let v0, r0 = Dstore.oget_versioned ctx "k" in
      check (Alcotest.option Alcotest.bytes) "absent value" None r0;
      check Alcotest.int "absent version matches key_version" v0
        (Dstore.key_version ctx "k");
      Dstore.oput ctx "k" (bs "v1");
      let v1, r1 = Dstore.oget_versioned ctx "k" in
      check (Alcotest.option Alcotest.bytes) "value" (Some (bs "v1")) r1;
      check Alcotest.int "version matches key_version" v1
        (Dstore.key_version ctx "k");
      Dstore.oput ctx "k" (bs "v2");
      let v2, r2 = Dstore.oget_versioned ctx "k" in
      check (Alcotest.option Alcotest.bytes) "value 2" (Some (bs "v2")) r2;
      check Alcotest.bool "version advanced" true (v2 > v1))

(* Virtual-cost pin for the single-lookup rewrite: a versioned read must
   not cost more than a plain [oget] plus the frontend-lock round it
   already shares — concretely, on a quiescent store the two differ only
   by the version probe's O(1) table read, not by a second index pass. *)
let test_oget_versioned_single_lookup () =
  let dt_get, dt_versioned =
    with_store (fun fx _st ctx ->
        Dstore.oput ctx "k" (bs "value");
        let t0 = Sim.now fx.sim in
        ignore (Dstore.oget ctx "k");
        let t1 = Sim.now fx.sim in
        ignore (Dstore.oget_versioned ctx "k");
        let t2 = Sim.now fx.sim in
        (t1 - t0, t2 - t1))
  in
  check Alcotest.int "versioned read costs one lookup" dt_get dt_versioned

(* --- cached vs uncached equivalence (qcheck) --------------------------------- *)

(* Run one generated scenario on a cached store and an uncached store:
   every read and the final state must be byte-identical — the cache must
   be semantically invisible. A crash/recover cycle is included: the
   recovered cached store starts cold but must still agree. *)
let scenario_digest ~cache_bytes ~seed =
  let cfg = { cache_cfg with cache_bytes } in
  let fx = fixture ~cfg () in
  let out = Buffer.create 4096 in
  let run st =
    let ctx = Dstore.ds_init st in
    let rng = Rng.create seed in
    let keys = [| "a"; "b"; "c"; "d"; "e" |] in
    for _ = 1 to 120 do
      let key = keys.(Rng.int rng (Array.length keys)) in
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 ->
          Dstore.oput ctx key (Rng.bytes rng (1 + Rng.int rng 2048))
      | 4 -> ignore (Dstore.odelete ctx key)
      | 5 ->
          ignore
            (Dstore.obatch ctx
               [ Dstore.Bput (key, Rng.bytes rng 64); Dstore.Bdelete "b" ])
      | _ -> (
          match Dstore.oget ctx key with
          | None -> Buffer.add_string out (key ^ ":absent;")
          | Some v ->
              Buffer.add_string out key;
              Buffer.add_char out ':';
              Buffer.add_string out (Digest.to_hex (Digest.bytes v));
              Buffer.add_char out ';')
    done;
    Dstore.ds_finalize ctx
  in
  Sim.spawn fx.sim "phase1" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd cfg in
      run st;
      Dstore.stop st);
  Sim.run fx.sim;
  (* Power-fail (drop all unpersisted lines), recover, run again: the
     cache is volatile, so the cached run recovers cold — and must still
     produce identical bytes. *)
  Pmem.crash fx.pm Pmem.Drop_all;
  Sim.spawn fx.sim "phase2" (fun () ->
      let st = Dstore.recover fx.p fx.pm fx.ssd cfg in
      Buffer.add_string out "|recovered|";
      run st;
      Dstore.iter_names st (fun n -> Buffer.add_string out (n ^ ","));
      Dstore.stop st);
  Sim.run fx.sim;
  Buffer.contents out

let test_cached_uncached_equiv =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"cached store is semantically invisible" ~count:15
       QCheck.(int_range 0 100_000)
       (fun seed ->
         Seed_report.attempt ~test:"cache.equiv" ~seed
           ~repro:"test_cache.ml scenario_digest" @@ fun () ->
         let cached = scenario_digest ~cache_bytes:(48 * 1024) ~seed in
         let uncached = scenario_digest ~cache_bytes:0 ~seed in
         String.equal cached uncached))

(* The partition invariant must keep holding with the new Cache_fill
   segment in play: for every span, segments + blames = duration. *)
let test_partition_invariant () =
  with_store (fun _fx st ctx ->
      for i = 0 to 40 do
        Dstore.oput ctx (Printf.sprintf "k%d" (i mod 7)) (bs (String.make 512 'x'))
      done;
      for i = 0 to 40 do
        ignore (Dstore.oget ctx (Printf.sprintf "k%d" (i mod 7)))
      done;
      let module Span = Dstore_obs.Span in
      let rc = (Dstore.obs st).Dstore_obs.Obs.spans in
      check Alcotest.bool "spans recorded" true (Span.finished rc > 0);
      check Alcotest.bool "partition invariant" true
        (List.for_all
           (fun s ->
             Span.segments_total s + Span.blame_total s = Span.duration s)
           (Span.spans rc)))

let suite =
  [
    Alcotest.test_case "cache: basic put/get/counters" `Quick test_basic;
    Alcotest.test_case "cache: budget and CLOCK eviction" `Quick
      test_budget_and_eviction;
    Alcotest.test_case "cache: second chance" `Quick test_clock_second_chance;
    Alcotest.test_case "cache: grow-replace under eviction pressure" `Quick
      test_grow_replace_under_pressure;
    Alcotest.test_case "cache: invalidate, recycle, clear" `Quick
      test_invalidate_and_clear;
    Alcotest.test_case "store: hit/miss counters and clear" `Quick
      test_store_hit_counters;
    Alcotest.test_case "store: write paths keep cache coherent" `Quick
      test_store_coherence;
    Alcotest.test_case "store: stale-cache-read fault actually diverges" `Quick
      test_stale_fault_diverges;
    Alcotest.test_case "store: oget_view zero-copy borrow" `Quick test_oget_view;
    Alcotest.test_case "store: oget_versioned semantics" `Quick
      test_oget_versioned;
    Alcotest.test_case "store: oget_versioned is single-lookup" `Quick
      test_oget_versioned_single_lookup;
    test_cached_uncached_equiv;
    Alcotest.test_case "obs: partition invariant with cache segments" `Quick
      test_partition_invariant;
  ]
