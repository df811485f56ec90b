(* Integration tests for DStore over DIPPER: the Table 2 API, the write
   pipeline, checkpoints, concurrency control, and crash recovery. The
   crash-recovery property tests are the heart of the reproduction: after
   any crash (including mid-checkpoint, with adversarial cache-line loss),
   every acknowledged operation must be observable and the store must be
   observationally equivalent to a sequential model. *)

open Dstore_platform
open Dstore_pmem
open Dstore_ssd
open Dstore_core
open Dstore_util

let check = Alcotest.check

let small_cfg =
  {
    Config.default with
    log_slots = 512;
    space_bytes = 4 * 1024 * 1024;
    meta_entries = 1024;
    ssd_blocks = 4096;
    checkpoint_workers = 2;
  }

type fixture = {
  sim : Sim.t;
  p : Platform.t;
  pm : Pmem.t;
  ssd : Ssd.t;
  cfg : Config.t;
}

let fixture ?(cfg = small_cfg) ?(crash_model = true) () =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let pm =
    Pmem.create p
      { Pmem.default_config with size = Dipper.layout_bytes cfg; crash_model }
  in
  let ssd = Ssd.create p { Ssd.default_config with pages = cfg.Config.ssd_blocks } in
  { sim; p; pm; ssd; cfg }

(* Run [f store ctx] in a fresh store inside a sim process. *)
let with_store ?cfg ?crash_model f =
  let fx = fixture ?cfg ?crash_model () in
  let result = ref None in
  Sim.spawn fx.sim "test" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      result := Some (f fx st ctx);
      Dstore.ds_finalize ctx;
      Dstore.stop st);
  Sim.run fx.sim;
  Option.get !result

let value_of_string s = Bytes.of_string s

(* Wait inside a with_store test body (which runs in process context). *)
let t_sleep fx ns = Sim.wait fx.sim ns

let big_value seed size =
  let r = Rng.create seed in
  Rng.bytes r size

(* --- basic API ----------------------------------------------------------- *)

let test_put_get () =
  with_store (fun _ _ ctx ->
      Dstore.oput ctx "hello" (value_of_string "world");
      match Dstore.oget ctx "hello" with
      | Some v -> check Alcotest.string "value" "world" (Bytes.to_string v)
      | None -> Alcotest.fail "missing")

let test_get_missing () =
  with_store (fun _ _ ctx ->
      Alcotest.(check bool) "none" true (Dstore.oget ctx "ghost" = None);
      check Alcotest.int "oget_into -1" (-1)
        (Dstore.oget_into ctx "ghost" (Bytes.create 16)))

(* A read into a buffer shorter than the object raises Invalid_argument
   only after leaving the key's reader window: the next put of the key
   completes instead of waiting forever for a reader that is gone. *)
let test_short_buffer_frees_key () =
  let run name ~cache_bytes read =
    let fx = fixture ~cfg:{ small_cfg with Config.cache_bytes } () in
    let raised = ref false and hits = ref 0 and put_done = ref false in
    Sim.spawn fx.sim "test" (fun () ->
        let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
        let ctx = Dstore.ds_init st in
        Dstore.oput ctx "k" (Bytes.make 100 'a');
        ignore (Dstore.oget ctx "k");
        let hits_of () =
          match Dstore.cache_stats st with
          | Some s -> s.Dstore_cache.Cache.hits
          | None -> 0
        in
        let before = hits_of () in
        (try ignore (read ctx "k" (Bytes.create 10))
         with Invalid_argument _ -> raised := true);
        hits := hits_of () - before;
        Dstore.oput ctx "k" (Bytes.make 100 'b');
        put_done := true);
    Sim.run_until fx.sim 50_000_000;
    check Alcotest.bool (name ^ ": raises Invalid_argument") true !raised;
    check Alcotest.int (name ^ ": cache hits") (if cache_bytes > 0 then 1 else 0)
      !hits;
    check Alcotest.bool (name ^ ": next put completes") true !put_done
  in
  run "oget_into hit" ~cache_bytes:(1 lsl 20) Dstore.oget_into;
  run "oget_into miss" ~cache_bytes:0 Dstore.oget_into;
  run "oget_view miss" ~cache_bytes:0 (fun ctx k b ->
      Option.fold ~none:(-1) ~some:snd (Dstore.oget_view ctx k b))

let test_put_overwrite () =
  with_store (fun _ st ctx ->
      Dstore.oput ctx "k" (value_of_string "v1");
      Dstore.oput ctx "k" (value_of_string "second-version");
      (match Dstore.oget ctx "k" with
      | Some v -> check Alcotest.string "latest" "second-version" (Bytes.to_string v)
      | None -> Alcotest.fail "missing");
      check Alcotest.int "one object" 1 (Dstore.object_count st))

let test_put_4k_roundtrip () =
  with_store (fun _ _ ctx ->
      let v = big_value 1 4096 in
      Dstore.oput ctx "user1" v;
      match Dstore.oget ctx "user1" with
      | Some got -> check Alcotest.bytes "4KB integrity" v got
      | None -> Alcotest.fail "missing")

let test_put_multiblock () =
  with_store (fun _ _ ctx ->
      let v = big_value 2 (16 * 1024) in
      Dstore.oput ctx "big" v;
      match Dstore.oget ctx "big" with
      | Some got -> check Alcotest.bytes "16KB integrity" v got
      | None -> Alcotest.fail "missing")

let test_put_odd_size () =
  with_store (fun _ _ ctx ->
      let v = big_value 3 5000 in
      Dstore.oput ctx "odd" v;
      match Dstore.oget ctx "odd" with
      | Some got ->
          check Alcotest.int "size preserved" 5000 (Bytes.length got);
          check Alcotest.bytes "integrity" v got
      | None -> Alcotest.fail "missing")

let test_empty_value () =
  with_store (fun _ _ ctx ->
      Dstore.oput ctx "empty" Bytes.empty;
      match Dstore.oget ctx "empty" with
      | Some v -> check Alcotest.int "zero bytes" 0 (Bytes.length v)
      | None -> Alcotest.fail "missing")

let test_delete () =
  with_store (fun _ st ctx ->
      Dstore.oput ctx "d" (value_of_string "x");
      Alcotest.(check bool) "deleted" true (Dstore.odelete ctx "d");
      Alcotest.(check bool) "gone" false (Dstore.oexists ctx "d");
      Alcotest.(check bool) "double delete" false (Dstore.odelete ctx "d");
      check Alcotest.int "count" 0 (Dstore.object_count st))

let test_delete_frees_blocks () =
  with_store (fun _ st ctx ->
      let before = (Dstore.footprint st).Dstore.ssd in
      Dstore.oput ctx "tmp" (big_value 4 8192);
      Alcotest.(check bool) "blocks allocated" true
        ((Dstore.footprint st).Dstore.ssd > before);
      ignore (Dstore.odelete ctx "tmp");
      check Alcotest.int "blocks released" before (Dstore.footprint st).Dstore.ssd)

let test_overwrite_releases_old_blocks () =
  with_store (fun _ st ctx ->
      Dstore.oput ctx "k" (big_value 5 8192);
      let after_first = (Dstore.footprint st).Dstore.ssd in
      for i = 0 to 9 do
        Dstore.oput ctx "k" (big_value i 8192)
      done;
      check Alcotest.int "footprint stable under overwrites" after_first
        (Dstore.footprint st).Dstore.ssd)

let test_many_objects () =
  with_store (fun _ st ctx ->
      for i = 0 to 499 do
        Dstore.oput ctx (Printf.sprintf "obj%04d" i) (value_of_string (string_of_int i))
      done;
      check Alcotest.int "count" 500 (Dstore.object_count st);
      for i = 0 to 499 do
        match Dstore.oget ctx (Printf.sprintf "obj%04d" i) with
        | Some v -> check Alcotest.string "value" (string_of_int i) (Bytes.to_string v)
        | None -> Alcotest.failf "obj%04d missing" i
      done)

let test_olist_prefix () =
  with_store (fun _ _ ctx ->
      List.iter
        (fun k -> Dstore.oput ctx k (value_of_string "x"))
        [ "dir/a"; "dir/b"; "dir2/c"; "zzz" ];
      Alcotest.(check (list string)) "prefix" [ "dir/a"; "dir/b" ]
        (Dstore.olist ctx ~prefix:"dir/");
      Alcotest.(check (list string)) "all" [ "dir/a"; "dir/b"; "dir2/c"; "zzz" ]
        (Dstore.olist ctx ~prefix:"");
      Alcotest.(check (list string)) "none" [] (Dstore.olist ctx ~prefix:"nope"))

let test_iter_names_sorted () =
  with_store (fun _ st ctx ->
      List.iter
        (fun k -> Dstore.oput ctx k (value_of_string k))
        [ "zeta"; "alpha"; "mu" ];
      let names = ref [] in
      Dstore.iter_names st (fun n -> names := n :: !names);
      check Alcotest.(list string) "sorted" [ "alpha"; "mu"; "zeta" ]
        (List.rev !names))

(* --- filesystem API -------------------------------------------------------- *)

let test_open_write_read () =
  with_store (fun _ _ ctx ->
      let o = Dstore.oopen ctx "file" Dstore.Rdwr in
      let payload = value_of_string "file contents here" in
      check Alcotest.int "written"
        (Bytes.length payload)
        (Dstore.owrite o payload ~size:(Bytes.length payload) ~off:0);
      check Alcotest.int "size" (Bytes.length payload) (Dstore.osize o);
      let buf = Bytes.create 64 in
      let n = Dstore.oread o buf ~size:64 ~off:0 in
      check Alcotest.int "read bytes" (Bytes.length payload) n;
      check Alcotest.string "content" "file contents here"
        (Bytes.sub_string buf 0 n);
      Dstore.oclose o)

let test_open_no_create () =
  with_store (fun _ _ ctx ->
      Alcotest.check_raises "not found" (Dstore.Object_not_found "nofile")
        (fun () -> ignore (Dstore.oopen ctx "nofile" ~create:false Dstore.Rd)))

let test_owrite_extend () =
  with_store (fun _ _ ctx ->
      let o = Dstore.oopen ctx "grow" Dstore.Rdwr in
      ignore (Dstore.owrite o (value_of_string "aaaa") ~size:4 ~off:0);
      ignore (Dstore.owrite o (value_of_string "bbbb") ~size:4 ~off:6000);
      check Alcotest.int "extended size" 6004 (Dstore.osize o);
      let buf = Bytes.create 4 in
      ignore (Dstore.oread o buf ~size:4 ~off:6000);
      check Alcotest.string "tail" "bbbb" (Bytes.to_string buf);
      ignore (Dstore.oread o buf ~size:4 ~off:0;);
      check Alcotest.string "head intact" "aaaa" (Bytes.to_string buf);
      Dstore.oclose o)

let test_owrite_inplace_no_log () =
  with_store (fun _ st ctx ->
      let o = Dstore.oopen ctx "ip" Dstore.Rdwr in
      ignore (Dstore.owrite o (big_value 6 4096) ~size:4096 ~off:0);
      let appended = (Dipper.stats (Dstore.engine st)).Dipper.records_appended in
      (* An in-place overwrite logs a NOOP for conflict serialization but
         no metadata; the record count still rises by one per op. The
         metadata-free property is observable through the op type: size
         and extents must be unchanged afterwards. *)
      ignore (Dstore.owrite o (big_value 7 4096) ~size:4096 ~off:0);
      check Alcotest.int "size unchanged" 4096 (Dstore.osize o);
      Alcotest.(check bool) "a record per op" true
        ((Dipper.stats (Dstore.engine st)).Dipper.records_appended = appended + 1);
      Dstore.oclose o)

let test_oread_past_end () =
  with_store (fun _ _ ctx ->
      let o = Dstore.oopen ctx "short" Dstore.Rdwr in
      ignore (Dstore.owrite o (value_of_string "xy") ~size:2 ~off:0);
      let buf = Bytes.create 8 in
      check Alcotest.int "clamped" 2 (Dstore.oread o buf ~size:8 ~off:0);
      check Alcotest.int "past end" 0 (Dstore.oread o buf ~size:8 ~off:10);
      Dstore.oclose o)

let test_oclose_rejects_use () =
  with_store (fun _ _ ctx ->
      let o = Dstore.oopen ctx "c" Dstore.Rdwr in
      Dstore.oclose o;
      Alcotest.check_raises "closed"
        (Invalid_argument "DStore: operation on closed object") (fun () ->
          ignore (Dstore.osize o)))

let test_olock_ounlock () =
  with_store (fun _ _ ctx ->
      Dstore.olock ctx "dir";
      Dstore.ounlock ctx "dir";
      Alcotest.check_raises "double unlock"
        (Invalid_argument "DStore.ounlock: \"dir\" is not locked") (fun () ->
          Dstore.ounlock ctx "dir"))

let test_olock_blocks_writer () =
  let fx = fixture () in
  let order = ref [] in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx1 = Dstore.ds_init st in
      Dstore.olock ctx1 "obj";
      Sim.spawn fx.sim "writer" (fun () ->
          let ctx2 = Dstore.ds_init st in
          Dstore.oput ctx2 "obj" (value_of_string "w");
          order := ("write-done", Sim.now fx.sim) :: !order);
      Sim.wait fx.sim 100_000;
      order := ("unlock", Sim.now fx.sim) :: !order;
      Dstore.ounlock ctx1 "obj";
      Sim.wait fx.sim 100_000;
      Dstore.stop st);
  Sim.run fx.sim;
  match List.rev !order with
  | [ ("unlock", t1); ("write-done", t2) ] ->
      Alcotest.(check bool) "writer blocked until unlock" true (t2 > t1)
  | other ->
      Alcotest.failf "unexpected order: %s"
        (String.concat "," (List.map fst other))

(* --- checkpoints ----------------------------------------------------------- *)

let test_checkpoint_now () =
  with_store (fun _ st ctx ->
      for i = 0 to 49 do
        Dstore.oput ctx (Printf.sprintf "k%d" i) (value_of_string "v")
      done;
      Dstore.checkpoint_now st;
      let s = Dipper.stats (Dstore.engine st) in
      Alcotest.(check bool) "a checkpoint ran" true (s.Dipper.checkpoints >= 1);
      Alcotest.(check bool) "records replayed" true (s.Dipper.records_replayed >= 50);
      (* Store still fully functional. *)
      Dstore.oput ctx "after" (value_of_string "ckpt");
      Alcotest.(check bool) "works after" true (Dstore.oexists ctx "after"))

let test_checkpoint_automatic () =
  (* A small log must trigger checkpoints by itself under write load. *)
  let cfg = { small_cfg with log_slots = 64 } in
  with_store ~cfg (fun _ st ctx ->
      for i = 0 to 199 do
        Dstore.oput ctx (Printf.sprintf "k%d" (i mod 20)) (value_of_string "v")
      done;
      let s = Dipper.stats (Dstore.engine st) in
      Alcotest.(check bool) "checkpoints happened" true (s.Dipper.checkpoints >= 2);
      for i = 0 to 19 do
        Alcotest.(check bool) "data intact" true
          (Dstore.oexists ctx (Printf.sprintf "k%d" i))
      done)

let test_no_checkpoint_mode_log_full () =
  let cfg = { small_cfg with checkpoint = Config.No_checkpoint; log_slots = 8 } in
  with_store ~cfg (fun _ _ ctx ->
      Alcotest.(check bool) "raises Log_full" true
        (match
           for i = 0 to 99 do
             Dstore.oput ctx (Printf.sprintf "k%d" i) (value_of_string "v")
           done
         with
        | () -> false
        | exception Dipper.Log_full -> true))

let test_checkpoint_cow_mode () =
  let cfg = { small_cfg with checkpoint = Config.Cow; log_slots = 64 } in
  with_store ~cfg (fun _ st ctx ->
      for i = 0 to 199 do
        Dstore.oput ctx (Printf.sprintf "k%d" (i mod 20)) (big_value i 512)
      done;
      let s = Dipper.stats (Dstore.engine st) in
      Alcotest.(check bool) "cow checkpoints ran" true (s.Dipper.checkpoints >= 1);
      for i = 0 to 19 do
        Alcotest.(check bool) "data intact" true
          (Dstore.oexists ctx (Printf.sprintf "k%d" i))
      done)

(* Under the default Delta clone mode, the first checkpoint of a process
   has no dirty epoch to consume and falls back to a full clone; the
   second consumes the first's replay dirt and copies a fraction of the
   used prefix, skipping the rest. *)
let test_delta_clone_first_full_then_delta () =
  with_store (fun _ st ctx ->
      for i = 0 to 49 do
        Dstore.oput ctx (Printf.sprintf "k%d" i) (big_value i 256)
      done;
      Dstore.checkpoint_now st;
      let s = Dipper.stats (Dstore.engine st) in
      Alcotest.(check int) "first clone is full" 1 s.Dipper.ckpt_full_clones;
      Alcotest.(check int) "no delta clone yet" 0 s.Dipper.ckpt_delta_clones;
      let full_bytes = s.Dipper.ckpt_bytes_cloned in
      Alcotest.(check bool) "full clone copied the used prefix" true
        (full_bytes > 0);
      for i = 0 to 9 do
        Dstore.oput ctx (Printf.sprintf "k%d" i) (big_value (1000 + i) 256)
      done;
      Dstore.checkpoint_now st;
      let s = Dipper.stats (Dstore.engine st) in
      Alcotest.(check int) "second clone is delta" 1 s.Dipper.ckpt_delta_clones;
      let delta_bytes = s.Dipper.ckpt_bytes_cloned - full_bytes in
      Alcotest.(check bool) "delta copied less than the full clone" true
        (delta_bytes < full_bytes);
      Alcotest.(check bool) "skipped bytes accounted" true
        (s.Dipper.ckpt_bytes_skipped > 0);
      Alcotest.(check bool) "phase timers populated" true
        (s.Dipper.ckpt_clone_ns > 0
        && s.Dipper.ckpt_persist_ns > 0
        && s.Dipper.ckpt_publish_ns > 0);
      Alcotest.(check bool) "phases within total" true
        (s.Dipper.ckpt_archive_ns + s.Dipper.ckpt_clone_ns
         + s.Dipper.ckpt_replay_ns + s.Dipper.ckpt_persist_ns
         + s.Dipper.ckpt_publish_ns
        <= s.Dipper.ckpt_total_ns);
      for i = 0 to 49 do
        Alcotest.(check bool) "data intact" true
          (Dstore.oexists ctx (Printf.sprintf "k%d" i))
      done)

(* The Full ablation setting never clones incrementally. *)
let test_full_clone_ablation_mode () =
  let cfg = { small_cfg with ckpt_clone = Config.Full } in
  with_store ~cfg (fun _ st ctx ->
      for i = 0 to 49 do
        Dstore.oput ctx (Printf.sprintf "k%d" i) (value_of_string "v")
      done;
      Dstore.checkpoint_now st;
      Dstore.oput ctx "more" (value_of_string "data");
      Dstore.checkpoint_now st;
      let s = Dipper.stats (Dstore.engine st) in
      Alcotest.(check int) "both clones full" 2 s.Dipper.ckpt_full_clones;
      Alcotest.(check int) "no delta clones" 0 s.Dipper.ckpt_delta_clones;
      Alcotest.(check int) "nothing skipped" 0 s.Dipper.ckpt_bytes_skipped)

let test_physical_logging_mode () =
  let cfg =
    { small_cfg with logging = Config.Physical; oe = false; log_slots = 2048 }
  in
  with_store ~cfg (fun _ st ctx ->
      for i = 0 to 49 do
        Dstore.oput ctx (Printf.sprintf "k%d" i) (value_of_string "phys")
      done;
      Dstore.checkpoint_now st;
      for i = 0 to 49 do
        Alcotest.(check bool) "intact" true
          (Dstore.oexists ctx (Printf.sprintf "k%d" i))
      done)

(* --- concurrency ------------------------------------------------------------ *)

let test_concurrent_distinct_keys () =
  let fx = fixture () in
  let done_count = ref 0 in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      for c = 0 to 9 do
        Sim.spawn fx.sim "client" (fun () ->
            let ctx = Dstore.ds_init st in
            for i = 0 to 19 do
              Dstore.oput ctx (Printf.sprintf "c%d-k%d" c i) (value_of_string "v")
            done;
            incr done_count)
      done;
      Sim.wait fx.sim Platform.ns_per_s;
      check Alcotest.int "all clients finished" 10 !done_count;
      check Alcotest.int "all objects" 200 (Dstore.object_count st);
      Dstore.stop st);
  Sim.run fx.sim

let test_concurrent_same_key_serialized () =
  let fx = fixture () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let finished = ref [] in
      for c = 0 to 4 do
        Sim.spawn fx.sim "client" (fun () ->
            let ctx = Dstore.ds_init st in
            Dstore.oput ctx "hot" (value_of_string (Printf.sprintf "w%d" c));
            finished := c :: !finished)
      done;
      Sim.wait fx.sim Platform.ns_per_s;
      check Alcotest.int "all done" 5 (List.length !finished);
      let ctx = Dstore.ds_init st in
      (match Dstore.oget ctx "hot" with
      | Some v ->
          (* The surviving value is the last writer to commit. *)
          let winner = List.hd !finished in
          check Alcotest.string "last committer wins"
            (Printf.sprintf "w%d" winner)
            (Bytes.to_string v)
      | None -> Alcotest.fail "missing");
      let s = Dipper.stats (Dstore.engine st) in
      Alcotest.(check bool) "conflicts detected" true (s.Dipper.conflict_waits > 0);
      Dstore.stop st);
  Sim.run fx.sim

let test_readers_exclude_writer () =
  let fx = fixture () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      Dstore.oput ctx "shared" (big_value 10 4096);
      let read_results = ref [] in
      for _ = 0 to 7 do
        Sim.spawn fx.sim "reader" (fun () ->
            let rctx = Dstore.ds_init st in
            match Dstore.oget rctx "shared" with
            | Some v -> read_results := Bytes.length v :: !read_results
            | None -> read_results := -1 :: !read_results)
      done;
      Sim.spawn fx.sim "writer" (fun () ->
          let wctx = Dstore.ds_init st in
          Dstore.oput wctx "shared" (big_value 11 8192));
      Sim.wait fx.sim Platform.ns_per_s;
      check Alcotest.int "all reads completed" 8 (List.length !read_results);
      List.iter
        (fun n ->
          Alcotest.(check bool) "read saw a complete version" true
            (n = 4096 || n = 8192))
        !read_results;
      Dstore.stop st);
  Sim.run fx.sim

(* Keep a put of "huge" in flight — appended, not committed — across a
   forced checkpoint: a miss-path read of the 64-block object (~640 us on
   the SSD) starts first, so the writer, whose one-page payload is staged
   before its append, then sits in [wait_readers] until the read drains.
   The checkpoint lands inside that window. *)
let race_inflight_put_with_checkpoint fx st =
  Dstore.oput (Dstore.ds_init st) "huge" (big_value 1 (64 * 4096));
  Sim.spawn fx.sim "slow-reader" (fun () ->
      ignore (Dstore.oget (Dstore.ds_init st) "huge"));
  Sim.spawn fx.sim "writer" (fun () ->
      Sim.wait fx.sim 10_000;
      Dstore.oput (Dstore.ds_init st) "huge" (big_value 2 4096));
  Sim.spawn fx.sim "ckpt" (fun () ->
      Sim.wait fx.sim 100_000;
      (* the writer is in wait_readers *)
      Dstore.checkpoint_now st);
  Sim.wait fx.sim Platform.ns_per_s;
  let s = Dipper.stats (Dstore.engine st) in
  Alcotest.(check bool) "a record was moved" true (s.Dipper.records_moved >= 1)

let test_swap_moves_inflight_records () =
  (* A record uncommitted at the moment of a log swap must be re-homed to
     the new active log and still commit correctly (§3.5's "moving any
     uncommitted log records"). *)
  let fx = fixture () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      for i = 0 to 19 do
        Dstore.oput ctx (Printf.sprintf "w%d" i) (value_of_string "x")
      done;
      race_inflight_put_with_checkpoint fx st;
      (match Dstore.oget ctx "huge" with
      | Some v -> check Alcotest.bytes "huge rewritten" (big_value 2 4096) v
      | None -> Alcotest.fail "huge lost");
      Dstore.stop st);
  Sim.run fx.sim

let test_moved_record_survives_crash () =
  (* Same scenario, but crash after the commit: the re-homed record must
     be found by recovery. *)
  let fx = fixture () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      for i = 0 to 9 do
        Dstore.oput ctx (Printf.sprintf "w%d" i) (value_of_string "x")
      done;
      race_inflight_put_with_checkpoint fx st;
      Dstore.stop st);
  Sim.run fx.sim;
  Pmem.crash fx.pm Pmem.Drop_all;
  Sim.clear_pending fx.sim;
  Sim.spawn fx.sim "recovery" (fun () ->
      let st = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      (match Dstore.oget ctx "huge" with
      | Some v ->
          check Alcotest.bytes "moved+committed record recovered"
            (big_value 2 4096) v
      | None -> Alcotest.fail "huge lost after crash");
      Dstore.stop st);
  Sim.run fx.sim

let test_olock_holder_passthrough () =
  (* The olock holder can read and write the locked object (DESIGN.md
     deviation 7); another context still blocks. *)
  with_store (fun fx st ctx ->
      Dstore.oput ctx "obj" (value_of_string "v0");
      Dstore.olock ctx "obj";
      (* Holder operates freely under its own lock. *)
      Alcotest.(check bool) "holder reads" true (Dstore.oexists ctx "obj");
      Dstore.oput ctx "obj" (value_of_string "v1");
      (match Dstore.oget ctx "obj" with
      | Some v -> check Alcotest.string "holder wrote" "v1" (Bytes.to_string v)
      | None -> Alcotest.fail "missing");
      (* A second context's write waits for the unlock. *)
      let blocked_done = ref (-1) in
      Sim.spawn fx.sim "other" (fun () ->
          let ctx2 = Dstore.ds_init st in
          Dstore.oput ctx2 "obj" (value_of_string "v2");
          blocked_done := Sim.now fx.sim);
      t_sleep fx 200_000;
      let unlocked_at = Sim.now fx.sim in
      Dstore.ounlock ctx "obj";
      t_sleep fx Platform.ns_per_s;
      Alcotest.(check bool) "other waited for unlock" true
        (!blocked_done >= unlocked_at))

let test_cow_faults_counted () =
  let cfg = { small_cfg with checkpoint = Config.Cow; log_slots = 64 } in
  with_store ~cfg (fun _ st ctx ->
      for i = 0 to 199 do
        Dstore.oput ctx (Printf.sprintf "k%d" (i mod 40)) (value_of_string "v")
      done;
      let s = Dipper.stats (Dstore.engine st) in
      Alcotest.(check bool) "cow checkpoints ran" true (s.Dipper.checkpoints >= 1))

let test_physical_mode_crash_recovery () =
  let cfg =
    { small_cfg with logging = Config.Physical; oe = false; log_slots = 4096 }
  in
  let fx = fixture ~cfg () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      for i = 0 to 59 do
        Dstore.oput ctx (Printf.sprintf "p%d" i) (value_of_string (string_of_int i))
      done);
  Sim.run fx.sim;
  Pmem.crash fx.pm (Pmem.Random (Rng.create 7));
  Sim.clear_pending fx.sim;
  Sim.spawn fx.sim "recovery" (fun () ->
      let st = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      for i = 0 to 59 do
        match Dstore.oget ctx (Printf.sprintf "p%d" i) with
        | Some v -> check Alcotest.string "physical redo" (string_of_int i) (Bytes.to_string v)
        | None -> Alcotest.failf "p%d lost (physical logging)" i
      done;
      Dstore.stop st);
  Sim.run fx.sim

(* Deletes and batches under physical logging: puts take the redo-image
   path, deletes the logical one, and a batch runs op by op without
   re-entering [odelete] — each delete books one [op.delete] sample. A
   checkpoint and a recovery both replay the mixed log, whose physical
   images carry pool bytes, so every acked op survives the crash. *)
let test_physical_mode_deletes_and_batches () =
  let cfg =
    { small_cfg with logging = Config.Physical; oe = false; log_slots = 4096 }
  in
  let fx = fixture ~cfg () in
  let key i = Printf.sprintf "p%d" i in
  let expect = Hashtbl.create 16 in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      for i = 0 to 11 do
        Dstore.oput ctx (key i) (value_of_string (string_of_int i));
        Hashtbl.replace expect (key i) (string_of_int i)
      done;
      check Alcotest.bool "odelete hit" true (Dstore.odelete ctx (key 0));
      check Alcotest.bool "odelete miss" false (Dstore.odelete ctx "ghost");
      (* The checkpoint replays physical puts and a logical delete. *)
      Dstore.checkpoint_now st;
      Dstore.oput_batch ctx [ (key 1, value_of_string "b1"); (key 20, value_of_string "b20") ];
      check (Alcotest.list Alcotest.bool) "odelete_batch" [ true; true; false ]
        (Dstore.odelete_batch ctx [ key 2; key 3; "ghost" ]);
      check (Alcotest.list Alcotest.bool) "mixed obatch" [ true; true ]
        (Dstore.obatch ctx [ Dstore.Bdelete (key 4); Dstore.Bput (key 5, value_of_string "b5") ]);
      List.iter (fun i -> Hashtbl.remove expect (key i)) [ 0; 2; 3; 4 ];
      List.iter (fun (k, v) -> Hashtbl.replace expect k v)
        [ (key 1, "b1"); (key 20, "b20"); (key 5, "b5") ];
      let m = (Dstore.obs st).Dstore_obs.Obs.metrics in
      check Alcotest.int "one op.delete sample per delete" 6
        (Histogram.count
           (Dstore_obs.Metrics.histo_data (Dstore_obs.Metrics.histogram m "op.delete"))));
  Sim.run fx.sim;
  Pmem.crash fx.pm (Pmem.Random (Rng.create 11));
  Sim.clear_pending fx.sim;
  Sim.spawn fx.sim "recovery" (fun () ->
      let st = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      List.iter
        (fun k ->
          check
            (Alcotest.option Alcotest.string)
            k (Hashtbl.find_opt expect k)
            (Option.map Bytes.to_string (Dstore.oget ctx k)))
        ("ghost" :: key 20 :: List.init 12 key);
      Dstore.stop st);
  Sim.run fx.sim

(* --- recovery ----------------------------------------------------------------- *)

(* Clean-shutdown recovery: stop (no final checkpoint), recover, compare. *)
let test_recover_clean () =
  let fx = fixture () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      for i = 0 to 99 do
        Dstore.oput ctx (Printf.sprintf "k%03d" i) (big_value i 1024)
      done;
      ignore (Dstore.odelete ctx "k050");
      Dstore.stop st;
      let st2 = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      let ctx2 = Dstore.ds_init st2 in
      check Alcotest.int "count" 99 (Dstore.object_count st2);
      for i = 0 to 99 do
        let key = Printf.sprintf "k%03d" i in
        if i = 50 then
          Alcotest.(check bool) "deleted stays deleted" false (Dstore.oexists ctx2 key)
        else
          match Dstore.oget ctx2 key with
          | Some v -> check Alcotest.bytes key (big_value i 1024) v
          | None -> Alcotest.failf "%s missing after recovery" key
      done;
      Dstore.stop st2);
  Sim.run fx.sim

let test_recover_after_checkpoint () =
  let fx = fixture () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      for i = 0 to 49 do
        Dstore.oput ctx (Printf.sprintf "pre%d" i) (value_of_string "1")
      done;
      Dstore.checkpoint_now st;
      for i = 0 to 49 do
        Dstore.oput ctx (Printf.sprintf "post%d" i) (value_of_string "2")
      done;
      Dstore.stop st;
      let st2 = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      let ctx2 = Dstore.ds_init st2 in
      check Alcotest.int "both halves" 100 (Dstore.object_count st2);
      Alcotest.(check bool) "pre-checkpoint" true (Dstore.oexists ctx2 "pre7");
      Alcotest.(check bool) "post-checkpoint" true (Dstore.oexists ctx2 "post7");
      Dstore.stop st2);
  Sim.run fx.sim

let test_recover_crash_drop_all () =
  (* Hard crash losing every unflushed line: every completed put must
     survive. *)
  let fx = fixture () in
  let acked = ref [] in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      for i = 0 to 79 do
        Dstore.oput ctx (Printf.sprintf "k%d" i) (value_of_string (string_of_int i));
        acked := i :: !acked
      done);
  Sim.run fx.sim;
  Pmem.crash fx.pm Pmem.Drop_all;
  Sim.clear_pending fx.sim;
  Sim.spawn fx.sim "recovery" (fun () ->
      let st = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      List.iter
        (fun i ->
          match Dstore.oget ctx (Printf.sprintf "k%d" i) with
          | Some v -> check Alcotest.string "value" (string_of_int i) (Bytes.to_string v)
          | None -> Alcotest.failf "acked k%d lost" i)
        !acked;
      Dstore.stop st);
  Sim.run fx.sim

let test_recover_crash_mid_checkpoint () =
  (* Stop the simulation mid-checkpoint (the paper's worst failure point),
     crash, and verify the redo path reconstructs everything acked. *)
  let cfg = { small_cfg with log_slots = 128 } in
  let fx = fixture ~cfg () in
  let acked = ref [] in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      (* Small log: checkpoints trigger repeatedly under this loop. *)
      for i = 0 to 299 do
        let key = Printf.sprintf "k%d" (i mod 60) in
        Dstore.oput ctx key (value_of_string (Printf.sprintf "v%d" i));
        acked := (key, Printf.sprintf "v%d" i) :: !acked
      done);
  (* Run just far enough that a checkpoint is in flight with high
     probability, then pull the plug. *)
  Sim.run_until fx.sim 2_000_000;
  Pmem.crash fx.pm (Pmem.Random (Rng.create 42));
  Sim.clear_pending fx.sim;
  (* Model: the last acked value per key. *)
  let module M = Map.Make (String) in
  let model =
    List.fold_left
      (fun m (k, v) -> if M.mem k m then m else M.add k v m)
      M.empty !acked
  in
  Sim.spawn fx.sim "recovery" (fun () ->
      let st = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      M.iter
        (fun k v ->
          match Dstore.oget ctx k with
          | Some got -> check Alcotest.string k v (Bytes.to_string got)
          | None -> Alcotest.failf "acked %s lost" k)
        model;
      Dstore.stop st);
  Sim.run fx.sim

let test_owrite_crash_consistency () =
  (* Grow an object via owrite, crash, and verify the committed extension
     (size + new extents + data) survives. *)
  let fx = fixture () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      let o = Dstore.oopen ctx "grown" Dstore.Rdwr in
      ignore (Dstore.owrite o (Bytes.make 4096 'A') ~size:4096 ~off:0);
      ignore (Dstore.owrite o (Bytes.make 4096 'B') ~size:4096 ~off:8192);
      Dstore.oclose o);
  Sim.run fx.sim;
  Pmem.crash fx.pm Pmem.Drop_all;
  Sim.clear_pending fx.sim;
  Sim.spawn fx.sim "recovery" (fun () ->
      let st = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      let o = Dstore.oopen ctx "grown" ~create:false Dstore.Rd in
      check Alcotest.int "size recovered" 12288 (Dstore.osize o);
      let buf = Bytes.create 4096 in
      ignore (Dstore.oread o buf ~size:4096 ~off:8192);
      check Alcotest.bytes "tail data" (Bytes.make 4096 'B') buf;
      ignore (Dstore.oread o buf ~size:4096 ~off:0);
      check Alcotest.bytes "head data" (Bytes.make 4096 'A') buf;
      Dstore.oclose o;
      Dstore.stop st);
  Sim.run fx.sim

let test_recover_uninitialized_fails () =
  let fx = fixture () in
  Sim.spawn fx.sim "t" (fun () ->
      Alcotest.(check bool) "not initialized" false (Dstore.is_initialized fx.pm);
      Alcotest.check_raises "recover fails"
        (Invalid_argument "Root.attach: no initialized root object") (fun () ->
          ignore (Dstore.recover fx.p fx.pm fx.ssd fx.cfg)));
  Sim.run fx.sim

let test_double_recovery_idempotent () =
  let fx = fixture () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      for i = 0 to 29 do
        Dstore.oput ctx (Printf.sprintf "k%d" i) (value_of_string "v")
      done;
      Dstore.stop st;
      (* Recover twice in a row (§3.6: idempotent recovery). *)
      let st1 = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      Dstore.stop st1;
      let st2 = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      check Alcotest.int "count stable" 30 (Dstore.object_count st2);
      let ctx2 = Dstore.ds_init st2 in
      Alcotest.(check bool) "readable" true (Dstore.oexists ctx2 "k7");
      (* And still writable. *)
      Dstore.oput ctx2 "new" (value_of_string "post-recovery");
      Dstore.stop st2);
  Sim.run fx.sim

(* The flagship property: random workload, crash at a random instant with
   adversarial line loss, recover, and require observational equivalence
   with the acked-operation model. *)
let prop_crash_recovery_observational_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"crash anywhere: acked ops survive recovery"
       ~count:25
       QCheck.(pair (int_range 0 1_000_000) (int_range 100_000 30_000_000))
       (fun (seed, crash_at) ->
         Seed_report.attempt ~test:"crash-recovery observational equivalence"
           ~seed
           ~repro:
             (Printf.sprintf
                "dune exec test/test_main.exe -- test dstore  # seed %d \
                 crash_at %d"
                seed crash_at)
         @@ fun () ->
         let cfg = { small_cfg with log_slots = 96 } in
         let fx = fixture ~cfg () in
         let module M = Map.Make (String) in
         let r = Rng.create seed in
         (* Model: last acked value per key, plus the in-flight operation
            of each client (which may or may not have committed when the
            plug is pulled). *)
         let acked : string option M.t ref = ref M.empty in
         let pending : (int, string * string option) Hashtbl.t =
           Hashtbl.create 8
         in
         let store = ref None in
         Sim.spawn fx.sim "setup" (fun () ->
             store := Some (Dstore.create fx.p fx.pm fx.ssd fx.cfg));
         Sim.run fx.sim;
         let st = Option.get !store in
         for c = 0 to 3 do
           let cr = Rng.split r in
           Sim.spawn fx.sim (Printf.sprintf "client%d" c) (fun () ->
               let ctx = Dstore.ds_init st in
               for i = 0 to 199 do
                 let key = Printf.sprintf "key%d" (Rng.int cr 24) in
                 if Rng.int cr 5 = 0 then begin
                   Hashtbl.replace pending c (key, None);
                   ignore (Dstore.odelete ctx key);
                   Hashtbl.remove pending c;
                   acked := M.add key None !acked
                 end
                 else begin
                   let v = Printf.sprintf "c%d-i%d" c i in
                   Hashtbl.replace pending c (key, Some v);
                   Dstore.oput ctx key (Bytes.of_string v);
                   Hashtbl.remove pending c;
                   acked := M.add key (Some v) !acked
                 end
               done)
         done;
         Sim.run_until fx.sim crash_at;
         Pmem.crash fx.pm (Pmem.Random (Rng.split r));
         Sim.clear_pending fx.sim;
         let in_flight_for key =
           Hashtbl.fold
             (fun _ (k, v) acc -> if k = key then v :: acc else acc)
             pending []
         in
         let ok = ref true in
         Sim.spawn fx.sim "recovery" (fun () ->
             let st2 = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
             let ctx = Dstore.ds_init st2 in
             let keys = List.init 24 (fun i -> Printf.sprintf "key%d" i) in
             List.iter
               (fun key ->
                 let got = Option.map Bytes.to_string (Dstore.oget ctx key) in
                 let last_acked =
                   match M.find_opt key !acked with Some v -> v | None -> None
                 in
                 let acceptable = last_acked :: in_flight_for key in
                 if not (List.mem got acceptable) then ok := false)
               keys;
             Dstore.stop st2);
         Sim.run fx.sim;
         !ok))

(* --- group commit (obatch) ----------------------------------------------- *)

let test_obatch_basic () =
  with_store (fun _ st ctx ->
      Dstore.oput ctx "pre" (value_of_string "old");
      let results =
        Dstore.obatch ctx
          [
            Dstore.Bput ("a", value_of_string "va");
            Dstore.Bput ("pre", value_of_string "new");
            Dstore.Bdelete "ghost";
            Dstore.Bput ("b", big_value 7 9000);
          ]
      in
      Alcotest.(check (list bool))
        "puts true, absent delete false" [ true; true; false; true ] results;
      (match Dstore.oget ctx "a" with
      | Some v -> check Alcotest.string "a" "va" (Bytes.to_string v)
      | None -> Alcotest.fail "a missing");
      (match Dstore.oget ctx "pre" with
      | Some v -> check Alcotest.string "pre overwritten" "new" (Bytes.to_string v)
      | None -> Alcotest.fail "pre missing");
      (match Dstore.oget ctx "b" with
      | Some v -> check Alcotest.bytes "b multiblock" (big_value 7 9000) v
      | None -> Alcotest.fail "b missing");
      let s = Dipper.stats (Dstore.engine st) in
      Alcotest.(check bool) "batches counted" true (s.Dipper.batches_committed >= 1);
      check Alcotest.int "records counted" 4 s.Dipper.batch_records;
      (* A delete of an existing key through the batch path. *)
      let r2 = Dstore.odelete_batch ctx [ "a"; "nope" ] in
      Alcotest.(check (list bool)) "delete results" [ true; false ] r2;
      Alcotest.(check bool) "a gone" false (Dstore.oexists ctx "a"))

let test_obatch_duplicate_keys () =
  (* Repeated keys split into ordered sub-batches, so the last effect per
     key wins — same observable result as issuing the ops one by one. *)
  with_store (fun _ _ ctx ->
      let results =
        Dstore.obatch ctx
          [
            Dstore.Bput ("dup", value_of_string "first");
            Dstore.Bput ("other", value_of_string "x");
            Dstore.Bput ("dup", value_of_string "second");
            Dstore.Bdelete "other";
            Dstore.Bput ("dup", value_of_string "third");
          ]
      in
      Alcotest.(check (list bool))
        "per-op results" [ true; true; true; true; true ] results;
      (match Dstore.oget ctx "dup" with
      | Some v -> check Alcotest.string "last write wins" "third" (Bytes.to_string v)
      | None -> Alcotest.fail "dup missing");
      Alcotest.(check bool) "other deleted" false (Dstore.oexists ctx "other"))

let test_obatch_locked_key () =
  (* A batch touching a key this context holds an advisory lock on must
     not deadlock against the caller's own lock ticket. *)
  with_store (fun _ _ ctx ->
      Dstore.olock ctx "mine";
      Dstore.oput_batch ctx
        [ ("mine", value_of_string "locked-write"); ("free", value_of_string "f") ];
      Dstore.ounlock ctx "mine";
      match Dstore.oget ctx "mine" with
      | Some v -> check Alcotest.string "locked key written" "locked-write" (Bytes.to_string v)
      | None -> Alcotest.fail "mine missing")

let fence_count_for ~batched n =
  with_store (fun fx _ ctx ->
      let st = Pmem.stats fx.pm in
      let f0 = st.Pmem.fence_calls in
      let v = big_value 9 64 in
      (if batched then
         Dstore.oput_batch ctx
           (List.init n (fun i -> (Printf.sprintf "k%d" i, v)))
       else
         for i = 0 to n - 1 do
           Dstore.oput ctx (Printf.sprintf "k%d" i) v
         done);
      st.Pmem.fence_calls - f0)

let test_obatch_fence_amortization () =
  (* 8 unbatched single-slot puts: 2 fences each (append + commit) = 16.
     One batch of 8: 2 append fences + 1 commit fence = 3. Anything the
     structures add is identical on both sides, so the 4x bound holds with
     slack. *)
  let unbatched = fence_count_for ~batched:false 8 in
  let batched = fence_count_for ~batched:true 8 in
  Alcotest.(check bool)
    (Printf.sprintf "batched fences %d <= 1/4 of unbatched %d" batched unbatched)
    true
    (batched * 4 <= unbatched)

let test_obatch_crash_all_committed () =
  (* Drop-all crash after an acknowledged batch: every member survives. *)
  let fx = fixture () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      Dstore.oput ctx "victim" (value_of_string "old");
      Dstore.oput_batch ctx
        (List.init 6 (fun i ->
             (Printf.sprintf "g%d" i, value_of_string (string_of_int i))));
      ignore (Dstore.odelete_batch ctx [ "victim" ]));
  Sim.run fx.sim;
  Pmem.crash fx.pm Pmem.Drop_all;
  Sim.clear_pending fx.sim;
  Sim.spawn fx.sim "recovery" (fun () ->
      let st = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      for i = 0 to 5 do
        match Dstore.oget ctx (Printf.sprintf "g%d" i) with
        | Some v -> check Alcotest.string "batch member" (string_of_int i) (Bytes.to_string v)
        | None -> Alcotest.failf "acked batch member g%d lost" i
      done;
      Alcotest.(check bool) "batched delete durable" false
        (Dstore.oexists ctx "victim");
      Dstore.stop st);
  Sim.run fx.sim

(* --- staged write pipeline ----------------------------------------------- *)

(* Staged allocation is all or nothing: [reject] must raise, leave both
   allocators exactly as it found them, and leave the store usable —
   [after] (a put on another key, by default) completes. *)
let check_rejected ?after st ctx reject =
  let i = Dstore.internals st in
  let blocks () = Dstore_structs.Bitpool.allocated i.Dstore.i_blockpool in
  let metas () = Dstore_structs.Bitpool.allocated i.Dstore.i_metapool in
  let b0 = blocks () and m0 = metas () in
  (match reject () with
  | () -> Alcotest.fail "expected the write to be rejected"
  | exception (Dstore.Out_of_blocks | Dipper.Log_full) -> ());
  check Alcotest.int "block pool unchanged" b0 (blocks ());
  check Alcotest.int "meta pool unchanged" m0 (metas ());
  (match after with
  | Some f -> f ()
  | None -> Dstore.oput ctx "after" (value_of_string "ok"));
  check Alcotest.bool "store still writable" true (Dstore.oexists ctx "after")

let test_put_out_of_blocks_all_or_nothing () =
  let cfg = { small_cfg with ssd_blocks = 64 } in
  with_store ~cfg (fun _ st ctx ->
      Dstore.oput ctx "small" (value_of_string "s");
      check_rejected st ctx (fun () ->
          Dstore.oput ctx "oversized" (big_value 1 (65 * Dstore.page_bytes st))))

let test_put_out_of_meta_all_or_nothing () =
  let cfg = { small_cfg with meta_entries = 16 } in
  with_store ~cfg (fun _ st ctx ->
      let n = ref 0 in
      let full = ref false in
      while not !full do
        let i = Dstore.internals st in
        if
          Dstore_structs.Bitpool.allocated i.Dstore.i_metapool
          = Dstore_structs.Bitpool.count i.Dstore.i_metapool
        then full := true
        else begin
          Dstore.oput ctx (Printf.sprintf "m%d" !n) (value_of_string "v");
          incr n
        end
      done;
      check_rejected st ctx
        ~after:(fun () ->
          Alcotest.(check bool) "delete frees a meta id" true
            (Dstore.odelete ctx "m0");
          Dstore.oput ctx "after" (value_of_string "ok"))
        (fun () -> Dstore.oput ctx "one-too-many" (value_of_string "v")))

let test_log_full_all_or_nothing () =
  let cfg = { small_cfg with checkpoint = Config.No_checkpoint; log_slots = 64 } in
  with_store ~cfg (fun _ st ctx ->
      (* Fill the log until a 64-block record no longer fits but a
         one-block one does. *)
      let free () = Oplog.free_slots (Dipper.log_handles (Dstore.engine st)).(0) in
      let n = ref 0 in
      while free () >= 16 do
        Dstore.oput ctx (Printf.sprintf "f%d" !n) (value_of_string "v");
        incr n
      done;
      let big = big_value 2 (64 * Dstore.page_bytes st) in
      check_rejected st ctx (fun () -> Dstore.oput ctx "big" big);
      check_rejected st ctx
        ~after:(fun () -> Dstore.oput ctx "after2" (value_of_string "ok"))
        (fun () ->
          ignore
            (Dstore.obatch ctx
               [ Dstore.Bput ("b1", value_of_string "x"); Dstore.Bput ("b2", big) ])))

let test_obatch_stage_failure_all_or_nothing () =
  let cfg = { small_cfg with ssd_blocks = 64 } in
  with_store ~cfg (fun _ st ctx ->
      check_rejected st ctx (fun () ->
          ignore
            (Dstore.obatch ctx
               [
                 Dstore.Bput ("fits", value_of_string "x");
                 Dstore.Bdelete "ghost";
                 Dstore.Bput ("oversized", big_value 3 (65 * Dstore.page_bytes st));
               ]));
      Alcotest.(check bool) "no member applied" false (Dstore.oexists ctx "fits"))

(* A builder that raises under the append's lock hold (here [owrite] on
   an object deleted after it was opened) must release the lock. *)
let test_owrite_vanished_object_releases_lock () =
  with_store (fun _ _ ctx ->
      Dstore.oput ctx "gone" (value_of_string "v");
      let o = Dstore.oopen ctx "gone" Dstore.Wr in
      Alcotest.(check bool) "deleted" true (Dstore.odelete ctx "gone");
      (match Dstore.owrite o (value_of_string "x") ~size:1 ~off:0 with
      | _ -> Alcotest.fail "owrite on a deleted object succeeded"
      | exception Dstore.Object_not_found _ -> ());
      Dstore.oput ctx "after" (value_of_string "ok");
      Alcotest.(check bool) "store still writable" true (Dstore.oexists ctx "after"))

(* Fragment a 128-block SSD into 60 one-block holes, then put "X" at 60
   pages, so X's binding spans dozens of extents: an overwrite of X frees
   far more extents than a one-block put's record estimate allows for. *)
let fragmented_cfg = { small_cfg with ssd_blocks = 128; log_slots = 1024 }

let holes st ctx =
  let ps = Dstore.page_bytes st in
  for i = 0 to 119 do
    Dstore.oput ctx (Printf.sprintf "o%03d" i) (big_value i ps)
  done;
  for i = 0 to 59 do
    ignore (Dstore.odelete ctx (Printf.sprintf "o%03d" (2 * i)))
  done

let fragment st ctx =
  holes st ctx;
  Dstore.oput ctx "X" (big_value 200 (60 * Dstore.page_bytes st));
  let i = Dstore.internals st in
  let _, extents =
    Dstore_structs.Metazone.read_object i.Dstore.i_zone
      (Option.get (Dstore_structs.Btree.find i.Dstore.i_btree "X"))
  in
  Alcotest.(check bool) "X is fragmented" true (List.length extents >= 40)

let test_overwrite_frees_many_extents () =
  with_store ~cfg:fragmented_cfg (fun _ st ctx ->
      fragment st ctx;
      Dstore.oput ctx "X" (value_of_string "y");
      check Alcotest.string "new value" "y"
        (Bytes.to_string (Option.get (Dstore.oget ctx "X")));
      (* Live: 60 one-block objects and the one-block X. *)
      let i = Dstore.internals st in
      check Alcotest.int "blocks match live objects" 61
        (Dstore_structs.Bitpool.allocated i.Dstore.i_blockpool);
      check Alcotest.int "meta ids match live objects" 61
        (Dstore_structs.Bitpool.allocated i.Dstore.i_metapool))

(* The same outgrown records when the log has room for their estimate but
   not for the records as built: under [No_checkpoint] the append raises
   [Log_full] and every id claimed for it — the put's staged ids, the
   blocks [owrite]'s builder took — goes back. *)
let test_outgrown_record_log_full_all_or_nothing () =
  let cfg = { fragmented_cfg with checkpoint = Config.No_checkpoint } in
  let fill_log st ctx =
    let free () = Oplog.free_slots (Dipper.log_handles (Dstore.engine st)).(0) in
    (* A delete of an absent key logs a one-slot Noop and claims nothing. *)
    while free () >= 6 do
      ignore (Dstore.odelete ctx "absent")
    done
  in
  with_store ~cfg (fun _ st ctx ->
      fragment st ctx;
      fill_log st ctx;
      check_rejected st ctx (fun () -> Dstore.oput ctx "X" (value_of_string "z")));
  with_store ~cfg (fun _ st ctx ->
      holes st ctx;
      let o = Dstore.oopen ctx "W" Dstore.Wr in
      fill_log st ctx;
      check_rejected st ctx (fun () ->
          (* A sparse write: 61 blocks, mostly one-block holes. *)
          ignore
            (Dstore.owrite o (value_of_string "w") ~size:1
               ~off:(60 * Dstore.page_bytes st))))

(* The payload is written before the log append, so a read of the same
   key issued while the put's payload is on its way to the SSD finds no
   in-flight record: it reads the old value without a conflict stall. *)
let test_get_during_payload_no_conflict () =
  with_store (fun fx st ctx ->
      let module Span = Dstore_obs.Span in
      Dstore.oput ctx "k" (value_of_string "v0");
      let rc = (Dstore.obs st).Dstore_obs.Obs.spans in
      let conflicts () = Span.cause_events rc (Span.cause_index Span.Conflict_retry) in
      let c0 = conflicts () in
      let got = ref None in
      Sim.spawn fx.sim "writer" (fun () ->
          Dstore.oput (Dstore.ds_init st) "k" (big_value 4 4096));
      Sim.spawn fx.sim "reader" (fun () ->
          Sim.wait fx.sim 2_000;
          (* mid-payload: a one-page write takes 8.9 us *)
          got := Dstore.oget (Dstore.ds_init st) "k");
      t_sleep fx 100_000;
      check Alcotest.int "no conflict retry booked" c0 (conflicts ());
      check (Alcotest.option Alcotest.string) "old value read" (Some "v0")
        (Option.map Bytes.to_string !got);
      check Alcotest.bytes "new value committed" (big_value 4 4096)
        (Option.get (Dstore.oget ctx "k")))

(* Staging runs once per [obatch] call: the two payloads of a duplicate-key
   batch share one SSD round although the records append and commit in
   two ordered sub-batches. *)
let test_obatch_duplicate_keys_one_payload_round () =
  with_store (fun fx _ ctx ->
      let w0 = (Ssd.stats fx.ssd).Ssd.writes in
      let t0 = Sim.now fx.sim in
      let r =
        Dstore.obatch ctx
          [ Dstore.Bput ("K", big_value 5 4096); Dstore.Bput ("K", big_value 6 4096) ]
      in
      let dt = Sim.now fx.sim - t0 in
      Alcotest.(check (list bool)) "both applied" [ true; true ] r;
      check Alcotest.int "two SSD writes" (w0 + 2) (Ssd.stats fx.ssd).Ssd.writes;
      Alcotest.(check bool)
        (Printf.sprintf "one payload round (%d ns)" dt)
        true
        (dt < 2 * Ssd.default_config.Ssd.write_page_ns);
      check Alcotest.bytes "last write wins" (big_value 6 4096)
        (Option.get (Dstore.oget ctx "K")))

(* The flush protocol each call takes, pinned as exact (fences, flush
   calls, flushed bytes): one record costs two rounds (append + commit
   word), a multi-record group three (two coalesced append rounds + one
   commit span), a transaction three (two append rounds + its commit
   record), a read-only transaction none. Staging moves no PMEM traffic,
   and a one-op [obatch] takes the single-record protocol, like [oput]. *)
let test_put_pmem_cost_unchanged () =
  with_store (fun fx _ ctx ->
      let cost f =
        let st = Pmem.stats fx.pm in
        let f0 = st.Pmem.fence_calls
        and c0 = st.Pmem.flush_calls
        and b0 = st.Pmem.bytes_flushed in
        f ();
        (st.Pmem.fence_calls - f0, st.Pmem.flush_calls - c0, st.Pmem.bytes_flushed - b0)
      in
      let put k seed = Dstore.Bput (k, big_value seed 4096) in
      List.iter
        (fun (name, expected, f) ->
          check Alcotest.(triple int int int) (name ^ ": fences, flushes, bytes") expected
            (cost f))
        [
          ("fresh put", (2, 2, 128), fun () -> Dstore.oput ctx "p" (big_value 7 4096));
          ("overwrite", (2, 2, 128), fun () -> Dstore.oput ctx "p" (big_value 8 4096));
          ("one-op obatch", (2, 2, 128), fun () -> ignore (Dstore.obatch ctx [ put "b0" 9 ]));
          ( "four-op obatch",
            (3, 3, 768),
            fun () ->
              ignore
                (Dstore.obatch ctx
                   (List.init 4 (fun i -> put (Printf.sprintf "b%d" (i + 1)) (10 + i)))) );
          ("delete live", (2, 2, 128), fun () -> ignore (Dstore.odelete ctx "b0"));
          ( "olock + ounlock",
            (2, 2, 128),
            fun () ->
              Dstore.olock ctx "p";
              Dstore.ounlock ctx "p" );
          ( "two-key txn",
            (3, 3, 448),
            fun () ->
              ignore
                (Dstore_txn.txn ctx (fun tx ->
                     Dstore_txn.put tx "t1" (big_value 20 4096);
                     Dstore_txn.put tx "t2" (big_value 21 4096))) );
          ( "read-only txn",
            (0, 0, 0),
            fun () -> ignore (Dstore_txn.txn ctx (fun tx -> ignore (Dstore_txn.get tx "t1"))) );
        ])

(* --- OCC transactions ---------------------------------------------------- *)

let test_txn_commit_visible () =
  with_store (fun _ st ctx ->
      Dstore.oput ctx "ta" (value_of_string "old-a");
      let r =
        Dstore_txn.txn ctx (fun tx ->
            Dstore_txn.put tx "ta" (value_of_string "new-a");
            Dstore_txn.put tx "tb" (value_of_string "new-b"))
      in
      Alcotest.(check bool) "committed" true (Result.is_ok r);
      check Alcotest.string "ta overwritten" "new-a"
        (Bytes.to_string (Option.get (Dstore.oget ctx "ta")));
      check Alcotest.string "tb created" "new-b"
        (Bytes.to_string (Option.get (Dstore.oget ctx "tb")));
      let s = Dipper.stats (Dstore.engine st) in
      check Alcotest.int "txns committed" 1 s.Dipper.txns_committed;
      check Alcotest.int "txns aborted" 0 s.Dipper.txns_aborted;
      check Alcotest.int "member records" 2 s.Dipper.txn_member_records)

let test_txn_read_your_writes () =
  with_store (fun _ _ ctx ->
      Dstore.oput ctx "rw" (value_of_string "stored");
      let r =
        Dstore_txn.txn ctx (fun tx ->
            check Alcotest.string "reads through to store" "stored"
              (Bytes.to_string (Option.get (Dstore_txn.get tx "rw")));
            Dstore_txn.put tx "rw" (value_of_string "buffered");
            check Alcotest.string "buffered write shadows" "buffered"
              (Bytes.to_string (Option.get (Dstore_txn.get tx "rw")));
            Dstore_txn.delete tx "rw";
            Alcotest.(check bool) "buffered delete shadows" true
              (Dstore_txn.get tx "rw" = None))
      in
      Alcotest.(check bool) "committed" true (Result.is_ok r);
      Alcotest.(check bool) "final delete applied" false
        (Dstore.oexists ctx "rw"))

let test_txn_abort_untouched () =
  with_store (fun _ st ctx ->
      Dstore.oput ctx "ab" (value_of_string "keep");
      let r =
        Dstore_txn.txn ctx (fun tx ->
            Dstore_txn.put tx "ab" (value_of_string "discard");
            Dstore_txn.put tx "ab2" (value_of_string "discard");
            Dstore_txn.abort tx)
      in
      Alcotest.(check bool) "reported aborted" true (Result.is_error r);
      check Alcotest.string "member untouched" "keep"
        (Bytes.to_string (Option.get (Dstore.oget ctx "ab")));
      Alcotest.(check bool) "member never created" false
        (Dstore.oexists ctx "ab2");
      check Alcotest.int "nothing committed" 0
        (Dipper.stats (Dstore.engine st)).Dipper.txns_committed)

let test_txn_stale_read_aborts () =
  with_store (fun _ st ctx ->
      Dstore.oput ctx "sr" (value_of_string "v0");
      let tx = Dstore_txn.create ctx in
      ignore (Dstore_txn.get tx "sr");
      (* A racing commit moves the version between the read and
         validation. *)
      Dstore.oput ctx "sr" (value_of_string "v1");
      Dstore_txn.put tx "other" (value_of_string "w");
      (match Dstore_txn.commit tx with
      | Error (Dstore_txn.Conflict k) ->
          check Alcotest.string "conflicting key reported" "sr" k
      | Ok () -> Alcotest.fail "stale read committed"
      | Error r -> Alcotest.failf "unexpected abort: %s" (Dstore_txn.pp_abort r));
      Alcotest.(check bool) "write-set not applied" false
        (Dstore.oexists ctx "other");
      check Alcotest.string "racing value intact" "v1"
        (Bytes.to_string (Option.get (Dstore.oget ctx "sr")));
      check Alcotest.int "abort counted" 1
        (Dipper.stats (Dstore.engine st)).Dipper.txns_aborted)

(* Validation precedes device work: an attempt that fails validation
   writes no SSD page and leaves both allocators as it found them. *)
let test_txn_abort_no_device_work () =
  with_store (fun fx st ctx ->
      Dstore.oput ctx "sr" (value_of_string "v0");
      let tx = Dstore_txn.create ctx in
      ignore (Dstore_txn.get tx "sr");
      Dstore.oput ctx "sr" (value_of_string "v1");
      Dstore_txn.put tx "other" (value_of_string "w");
      Dstore_txn.put tx "wide" (big_value 3 (3 * Dstore.page_bytes st));
      let i = Dstore.internals st in
      let blocks () = Dstore_structs.Bitpool.allocated i.Dstore.i_blockpool in
      let metas () = Dstore_structs.Bitpool.allocated i.Dstore.i_metapool in
      let w0 = (Ssd.stats fx.ssd).Ssd.writes in
      let b0 = blocks () and m0 = metas () in
      (match Dstore_txn.commit tx with
      | Error (Dstore_txn.Conflict _) -> ()
      | Ok () -> Alcotest.fail "stale read committed"
      | Error r -> Alcotest.failf "unexpected abort: %s" (Dstore_txn.pp_abort r));
      check Alcotest.int "no SSD write" w0 (Ssd.stats fx.ssd).Ssd.writes;
      check Alcotest.int "block pool unchanged" b0 (blocks ());
      check Alcotest.int "meta pool unchanged" m0 (metas ()))

(* The payloads must be durable before the commit point. Record the SSD
   write count at every persistence event; the commit hook marks the
   fence that closes the Txn_commit line's persist, so the event before
   it is the flush that makes the line durable. That flush must already
   see every payload write of the transaction — and the begin + members
   flush, the transaction's first persistence event, none of them. *)
let test_txn_payload_durable_before_commit () =
  with_store (fun fx st ctx ->
      Dstore.oput ctx "p0" (value_of_string "seed");
      let writes () = (Ssd.stats fx.ssd).Ssd.writes in
      let at_event = Hashtbl.create 16 in
      let commit_event = ref 0 in
      let e = Dstore.engine st in
      Pmem.set_persist_hook fx.pm
        (Some (fun n -> Hashtbl.replace at_event n (writes ())));
      Dipper.set_commit_hook e
        (Some (fun _ -> commit_event := Pmem.persist_events fx.pm));
      let w0 = writes () and e0 = Pmem.persist_events fx.pm in
      let r =
        Dstore_txn.txn ctx (fun tx ->
            ignore (Dstore_txn.get tx "p0");
            Dstore_txn.put tx "p0" (value_of_string "txn0");
            Dstore_txn.put tx "p1" (big_value 5 (2 * Dstore.page_bytes st)))
      in
      Pmem.set_persist_hook fx.pm None;
      Dipper.set_commit_hook e None;
      Alcotest.(check bool) "committed" true (Result.is_ok r);
      let w1 = writes () in
      Alcotest.(check bool) "every member wrote a payload" true (w1 - w0 >= 2);
      check Alcotest.int "payloads durable at the commit-line flush" w1
        (Hashtbl.find at_event (!commit_event - 1));
      check Alcotest.int "no payload before the span flush" w0
        (Hashtbl.find at_event (e0 + 1)))

(* The [txn] wrapper's span owns the whole transaction: its reads open no
   Get span of their own (their ticket waits are the txn's blame), and it
   is finished even when the body raises. *)
let test_txn_span_owns_reads () =
  with_store (fun _ st ctx ->
      let module Span = Dstore_obs.Span in
      Dstore.oput ctx "sp" (value_of_string "v");
      let rc = (Dstore.obs st).Dstore_obs.Obs.spans in
      let f0 = Span.finished rc in
      let r =
        Dstore_txn.txn ctx (fun tx ->
            ignore (Dstore_txn.get tx "sp");
            Dstore_txn.put tx "sp" (value_of_string "w"))
      in
      Alcotest.(check bool) "committed" true (Result.is_ok r);
      check Alcotest.int "one span per txn" (f0 + 1) (Span.finished rc);
      (match Span.last rc 1 with
      | [ s ] ->
          Alcotest.(check bool) "it is the txn span" true
            (Span.span_kind s = Span.Txn);
          check Alcotest.int "partition holds" (Span.duration s)
            (Span.segments_total s + Span.blame_total s)
      | _ -> Alcotest.fail "no span recorded");
      (match
         Dstore_txn.txn ctx (fun tx ->
             ignore (Dstore_txn.get tx "sp");
             raise Exit)
       with
      | _ -> Alcotest.fail "exception swallowed"
      | exception Exit -> ());
      check Alcotest.int "raising txn still finishes its span" (f0 + 2)
        (Span.finished rc))

let test_txn_retry_commits () =
  (* The wrapper re-runs the whole function after a conflict abort, so the
     second attempt reads the fresh version and commits. *)
  with_store (fun _ st ctx ->
      Dstore.oput ctx "rk" (value_of_string "v0");
      let attempts = ref 0 in
      let r =
        Dstore_txn.txn ctx (fun tx ->
            incr attempts;
            ignore (Dstore_txn.get tx "rk");
            if !attempts = 1 then
              (* Invalidate our own read from outside the transaction. *)
              Dstore.oput ctx "rk" (value_of_string "raced");
            Dstore_txn.put tx "rk" (value_of_string "final"))
      in
      Alcotest.(check bool) "eventually committed" true (Result.is_ok r);
      check Alcotest.int "two attempts" 2 !attempts;
      check Alcotest.string "second attempt's write" "final"
        (Bytes.to_string (Option.get (Dstore.oget ctx "rk")));
      let s = Dipper.stats (Dstore.engine st) in
      check Alcotest.int "one abort counted" 1 s.Dipper.txns_aborted;
      check Alcotest.int "one commit counted" 1 s.Dipper.txns_committed)

let test_txn_readonly_validates () =
  with_store (fun _ st ctx ->
      Dstore.oput ctx "ro" (value_of_string "v");
      let appended0 =
        (Dipper.stats (Dstore.engine st)).Dipper.records_appended
      in
      let r = Dstore_txn.txn ctx (fun tx -> ignore (Dstore_txn.get tx "ro")) in
      Alcotest.(check bool) "read-only txn commits" true (Result.is_ok r);
      check Alcotest.int "nothing appended" appended0
        (Dipper.stats (Dstore.engine st)).Dipper.records_appended)

(* The one-pass conflict scan, pinned via its test seam. An appended txn
   span holds in-flight tickets on its member keys; the scan must find
   them, the ignore list must exclude them, and commit must retire them. *)
let test_conflict_scan_one_pass () =
  with_store (fun _ st ctx ->
      Dstore.oput ctx "cs1" (value_of_string "x");
      let e = Dstore.engine st in
      let a =
        match
          Dipper.append e ~holder:0 ~reads:[]
            [
              ("cs1", 1, fun () -> Logrec.Noop { key = "cs1" });
              ("cs2", 1, fun () -> Logrec.Noop { key = "cs2" });
            ]
        with
        | Ok a -> a
        | Error k -> Alcotest.failf "unexpected stale read on %s" k
      in
      let clear ?(ignore = []) k = Dipper.conflicting_ticket ~ignore ~holder:0 e k = Dipper.Clear in
      (match Dipper.conflicting_ticket ~holder:0 e "cs2" with
      | Dipper.Ticket tk ->
          Alcotest.(check bool) "in-flight member found" true
            (List.memq tk (Dipper.members a))
      | _ -> Alcotest.fail "in-flight member not found");
      Alcotest.(check bool) "unrelated key clean" true (clear "unrelated");
      Alcotest.(check bool) "ignore list excludes own tickets" true
        (List.for_all (clear ~ignore:(Dipper.members a)) [ "cs1"; "cs2" ]);
      Dipper.commit e a;
      Alcotest.(check bool) "tickets retired by commit" true
        (List.for_all (fun k -> clear k) [ "cs1"; "cs2" ]))

let test_txn_crash_committed_survives () =
  let fx = fixture () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      Dstore.oput ctx "t0" (value_of_string "seed");
      match
        Dstore_txn.txn ctx (fun tx ->
            Dstore_txn.put tx "t0" (value_of_string "txn0");
            Dstore_txn.put tx "t1" (value_of_string "txn1"))
      with
      | Ok () -> ()
      | Error r -> Alcotest.failf "commit failed: %s" (Dstore_txn.pp_abort r));
  Sim.run fx.sim;
  Pmem.crash fx.pm Pmem.Drop_all;
  Sim.clear_pending fx.sim;
  Sim.spawn fx.sim "recovery" (fun () ->
      let st = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      check Alcotest.string "member 0 replayed" "txn0"
        (Bytes.to_string (Option.get (Dstore.oget ctx "t0")));
      check Alcotest.string "member 1 replayed" "txn1"
        (Bytes.to_string (Option.get (Dstore.oget ctx "t1")));
      Dstore.stop st);
  Sim.run fx.sim

let test_txn_torn_span_dropped () =
  (* Skip_txn_commit_record leaves the commit record's line unflushed:
     power loss drops it and recovery must surface NO member — exactly
     the all-or-nothing contract (and the fault the checker selftest
     proves catchable). *)
  let cfg = { small_cfg with Config.fault = Config.Skip_txn_commit_record } in
  let fx = fixture ~cfg () in
  Sim.spawn fx.sim "main" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      Dstore.oput ctx "t0" (value_of_string "seed");
      match
        Dstore_txn.txn ctx (fun tx ->
            Dstore_txn.put tx "t0" (value_of_string "txn0");
            Dstore_txn.put tx "t1" (value_of_string "txn1"))
      with
      | Ok () -> ()
      | Error r -> Alcotest.failf "commit failed: %s" (Dstore_txn.pp_abort r));
  Sim.run fx.sim;
  Pmem.crash fx.pm Pmem.Drop_all;
  Sim.clear_pending fx.sim;
  Sim.spawn fx.sim "recovery" (fun () ->
      let st = Dstore.recover fx.p fx.pm fx.ssd fx.cfg in
      let ctx = Dstore.ds_init st in
      check Alcotest.string "member 0 rolled back" "seed"
        (Bytes.to_string (Option.get (Dstore.oget ctx "t0")));
      Alcotest.(check bool) "member 1 never surfaced" false
        (Dstore.oexists ctx "t1");
      Dstore.stop st);
  Sim.run fx.sim

let suite =
  [
    ("put/get", `Quick, test_put_get);
    ("get missing", `Quick, test_get_missing);
    ("put overwrite", `Quick, test_put_overwrite);
    ("put 4KB roundtrip", `Quick, test_put_4k_roundtrip);
    ("put multiblock (16KB)", `Quick, test_put_multiblock);
    ("put odd size", `Quick, test_put_odd_size);
    ("empty value", `Quick, test_empty_value);
    ("delete", `Quick, test_delete);
    ("delete frees blocks", `Quick, test_delete_frees_blocks);
    ("overwrite releases old blocks", `Quick, test_overwrite_releases_old_blocks);
    ("500 objects", `Quick, test_many_objects);
    ("iter names sorted", `Quick, test_iter_names_sorted);
    ("olist prefix scan", `Quick, test_olist_prefix);
    ("open/write/read", `Quick, test_open_write_read);
    ("open no-create missing", `Quick, test_open_no_create);
    ("owrite extends", `Quick, test_owrite_extend);
    ("owrite in-place", `Quick, test_owrite_inplace_no_log);
    ("oread past end", `Quick, test_oread_past_end);
    ("closed handle rejected", `Quick, test_oclose_rejects_use);
    ("olock/ounlock", `Quick, test_olock_ounlock);
    ("olock blocks writer", `Quick, test_olock_blocks_writer);
    ("checkpoint_now", `Quick, test_checkpoint_now);
    ("automatic checkpoints", `Quick, test_checkpoint_automatic);
    ("No_checkpoint raises Log_full", `Quick, test_no_checkpoint_mode_log_full);
    ("CoW checkpoint mode", `Quick, test_checkpoint_cow_mode);
    ( "delta clone: first full, then delta",
      `Quick,
      test_delta_clone_first_full_then_delta );
    ("Full clone ablation mode", `Quick, test_full_clone_ablation_mode);
    ("physical logging mode", `Quick, test_physical_logging_mode);
    ("concurrent distinct keys", `Quick, test_concurrent_distinct_keys);
    ("concurrent same key serialized", `Quick, test_concurrent_same_key_serialized);
    ("readers exclude writer", `Quick, test_readers_exclude_writer);
    ("swap moves in-flight records", `Quick, test_swap_moves_inflight_records);
    ("moved record survives crash", `Quick, test_moved_record_survives_crash);
    ("olock holder passthrough", `Quick, test_olock_holder_passthrough);
    ("cow faults counted", `Quick, test_cow_faults_counted);
    ("physical-mode crash recovery", `Quick, test_physical_mode_crash_recovery);
    ("physical-mode deletes and batches", `Quick, test_physical_mode_deletes_and_batches);
    ("recover clean shutdown", `Quick, test_recover_clean);
    ("recover after checkpoint", `Quick, test_recover_after_checkpoint);
    ("recover crash drop-all", `Quick, test_recover_crash_drop_all);
    ("recover crash mid-checkpoint", `Quick, test_recover_crash_mid_checkpoint);
    ("owrite crash consistency", `Quick, test_owrite_crash_consistency);
    ("recover uninitialized fails", `Quick, test_recover_uninitialized_fails);
    ("double recovery idempotent", `Quick, test_double_recovery_idempotent);
    ("obatch basic", `Quick, test_obatch_basic);
    ("obatch duplicate keys", `Quick, test_obatch_duplicate_keys);
    ("obatch under own olock", `Quick, test_obatch_locked_key);
    ("obatch fence amortization", `Quick, test_obatch_fence_amortization);
    ("obatch crash: acked batch survives", `Quick, test_obatch_crash_all_committed);
    ("put out of blocks: all or nothing", `Quick, test_put_out_of_blocks_all_or_nothing);
    ("put out of meta ids: all or nothing", `Quick, test_put_out_of_meta_all_or_nothing);
    ("Log_full: all or nothing", `Quick, test_log_full_all_or_nothing);
    ("obatch stage failure: all or nothing", `Quick, test_obatch_stage_failure_all_or_nothing);
    ("get during staged payload: no conflict", `Quick, test_get_during_payload_no_conflict);
    ( "obatch duplicate keys: one payload round",
      `Quick,
      test_obatch_duplicate_keys_one_payload_round );
    ("put pmem cost unchanged", `Quick, test_put_pmem_cost_unchanged);
    ("owrite on vanished object releases lock", `Quick, test_owrite_vanished_object_releases_lock);
    ("overwrite freeing many extents", `Quick, test_overwrite_frees_many_extents);
    ( "outgrown record Log_full: all or nothing",
      `Quick,
      test_outgrown_record_log_full_all_or_nothing );
    ("txn commit visible + counted", `Quick, test_txn_commit_visible);
    ("txn read-your-writes", `Quick, test_txn_read_your_writes);
    ("txn abort untouched", `Quick, test_txn_abort_untouched);
    ("txn stale read aborts", `Quick, test_txn_stale_read_aborts);
    ("txn abort does no device work", `Quick, test_txn_abort_no_device_work);
    ( "txn payload durable before commit",
      `Quick,
      test_txn_payload_durable_before_commit );
    ("txn span owns reads and exceptions", `Quick, test_txn_span_owns_reads);
    ("txn retry wrapper recommits", `Quick, test_txn_retry_commits);
    ("txn read-only validates", `Quick, test_txn_readonly_validates);
    ("txn conflict scan one-pass", `Quick, test_conflict_scan_one_pass);
    ("txn crash: committed span survives", `Quick, test_txn_crash_committed_survives);
    ("txn crash: torn span dropped", `Quick, test_txn_torn_span_dropped);
    prop_crash_recovery_observational_equivalence;
    ("short read buffer frees the key", `Quick, test_short_buffer_frees_key);
  ]
