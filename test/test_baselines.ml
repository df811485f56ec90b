(* Tests for the comparison systems: cached (MongoDB-PM-like), LSM
   (PMEM-RocksDB-like), inline (MongoDB-PMSE-like), and the DAX-filesystem
   metadata models. Each baseline must be functionally correct and must
   exhibit its characteristic behaviour (checkpoint stalls, write stalls,
   per-op transaction cost). *)

open Dstore_platform
open Dstore_pmem
open Dstore_ssd
open Dstore_baselines
open Dstore_util

let check = Alcotest.check

let sim_fixture pm_bytes ssd_pages =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let pm = Pmem.create p { Pmem.default_config with size = pm_bytes } in
  let ssd = Ssd.create p { Ssd.default_config with pages = ssd_pages } in
  (sim, p, pm, ssd)

let value s = Bytes.of_string s

let read_str get key =
  let buf = Bytes.create 65536 in
  let n = get key buf in
  if n < 0 then None else Some (Bytes.sub_string buf 0 (min n 65536))

(* --- Cached store ------------------------------------------------------------ *)

let cached_cfg =
  {
    Cached_store.default_config with
    space_bytes = 4 * 1024 * 1024;
    meta_entries = 1024;
    ssd_blocks = 4096;
    journal_bytes = 1024 * 1024;
    ckpt_interval_ns = Platform.ns_per_s;
    op_cpu_ns = 0;
  }

let with_cached f =
  let sim, p, pm, ssd =
    sim_fixture (Cached_store.pmem_bytes cached_cfg) cached_cfg.Cached_store.ssd_blocks
  in
  let result = ref None in
  Sim.spawn sim "t" (fun () ->
      let st = Cached_store.create p pm ssd cached_cfg in
      result := Some (f sim p pm ssd st);
      Cached_store.stop st);
  Sim.run sim;
  Option.get !result

let test_cached_put_get () =
  with_cached (fun _ _ _ _ st ->
      Cached_store.put st "a" (value "hello");
      Alcotest.(check (option string)) "roundtrip" (Some "hello")
        (read_str (Cached_store.get st) "a");
      Alcotest.(check (option string)) "missing" None
        (read_str (Cached_store.get st) "nope"))

let test_cached_overwrite_delete () =
  with_cached (fun _ _ _ _ st ->
      Cached_store.put st "k" (value "v1");
      Cached_store.put st "k" (value "v2");
      Alcotest.(check (option string)) "latest" (Some "v2")
        (read_str (Cached_store.get st) "k");
      Alcotest.(check bool) "deleted" true (Cached_store.delete st "k");
      Alcotest.(check bool) "gone" false (Cached_store.delete st "k");
      check Alcotest.int "count" 0 (Cached_store.object_count st))

let test_cached_checkpoint_stalls_requests () =
  (* A request issued while the checkpointer holds the cache lock must
     wait until the checkpoint completes. *)
  let sim, p, pm, ssd =
    sim_fixture (Cached_store.pmem_bytes cached_cfg) cached_cfg.Cached_store.ssd_blocks
  in
  let uncontended = ref 0 and stalled = ref 0 in
  Sim.spawn sim "main" (fun () ->
      let st = Cached_store.create p pm ssd cached_cfg in
      (* Populate so the cache image has real volume. *)
      for i = 0 to 799 do
        Cached_store.put st (Printf.sprintf "k%d" i) (Bytes.create 512)
      done;
      let t0 = Sim.now sim in
      Cached_store.put st "baseline" (Bytes.create 512);
      uncontended := Sim.now sim - t0;
      Sim.spawn sim "checkpointer" (fun () -> Cached_store.checkpoint_now st);
      Sim.spawn sim "victim" (fun () ->
          Sim.wait sim 1_000;
          (* arrive during the checkpoint *)
          let t0 = Sim.now sim in
          Cached_store.put st "victim" (Bytes.create 512);
          stalled := Sim.now sim - t0);
      Sim.wait sim (2 * Platform.ns_per_s);
      Cached_store.stop st);
  Sim.run sim;
  (* The op behind the checkpoint must absorb a large share of the cache
     image copy on top of the normal put cost. *)
  Alcotest.(check bool)
    (Printf.sprintf "victim stalled (%d ns vs %d ns uncontended)" !stalled
       !uncontended)
    true
    (!stalled > !uncontended + 5_000)

let test_cached_recovery () =
  let sim, p, pm, ssd =
    sim_fixture (Cached_store.pmem_bytes cached_cfg) cached_cfg.Cached_store.ssd_blocks
  in
  Sim.spawn sim "main" (fun () ->
      let st = Cached_store.create p pm ssd cached_cfg in
      for i = 0 to 49 do
        Cached_store.put st (Printf.sprintf "k%d" i) (value (string_of_int i))
      done;
      Cached_store.checkpoint_now st;
      for i = 50 to 79 do
        Cached_store.put st (Printf.sprintf "k%d" i) (value (string_of_int i))
      done;
      Cached_store.stop st);
  Sim.run sim;
  Pmem.crash pm Pmem.Drop_all;
  Sim.clear_pending sim;
  Sim.spawn sim "recovery" (fun () ->
      let st = Cached_store.recover p pm ssd cached_cfg in
      check Alcotest.int "all objects back" 80 (Cached_store.object_count st);
      Alcotest.(check (option string)) "pre-ckpt value" (Some "7")
        (read_str (Cached_store.get st) "k7");
      Alcotest.(check (option string)) "journaled value" (Some "66")
        (read_str (Cached_store.get st) "k66");
      Cached_store.stop st);
  Sim.run sim

(* --- LSM store ------------------------------------------------------------ *)

let lsm_cfg =
  {
    Lsm_store.default_config with
    memtable_bytes = 32 * 1024;
    wal_bytes = 2 * 1024 * 1024;
    l0_limit = 2;
    run_limit = 3;
  }

let with_lsm f =
  let sim, p, pm, ssd = sim_fixture (Lsm_store.pmem_bytes lsm_cfg) 8192 in
  let result = ref None in
  Sim.spawn sim "t" (fun () ->
      let st = Lsm_store.create p pm ssd lsm_cfg in
      result := Some (f sim p pm ssd st);
      Lsm_store.stop st);
  Sim.run sim;
  Option.get !result

let test_lsm_put_get () =
  with_lsm (fun _ _ _ _ st ->
      Lsm_store.put st "a" (value "memtable-resident");
      Alcotest.(check (option string)) "from memtable" (Some "memtable-resident")
        (read_str (Lsm_store.get st) "a"))

let test_lsm_get_from_sst () =
  with_lsm (fun _ _ _ _ st ->
      for i = 0 to 49 do
        Lsm_store.put st (Printf.sprintf "k%02d" i) (Bytes.make 2048 (Char.chr (65 + (i mod 26))))
      done;
      Lsm_store.flush_now st;
      let s = Lsm_store.stats st in
      Alcotest.(check bool) "flush happened" true (s.Lsm_store.flushes >= 1);
      (* Values now come from the SSD runs. *)
      Alcotest.(check (option string)) "from run" (Some (String.make 2048 'B'))
        (read_str (Lsm_store.get st) "k01"))

let test_lsm_overwrite_newest_wins () =
  with_lsm (fun _ _ _ _ st ->
      Lsm_store.put st "k" (value "old");
      Lsm_store.flush_now st;
      Lsm_store.put st "k" (value "new");
      Alcotest.(check (option string)) "memtable shadows run" (Some "new")
        (read_str (Lsm_store.get st) "k");
      Lsm_store.flush_now st;
      Alcotest.(check (option string)) "newest run wins" (Some "new")
        (read_str (Lsm_store.get st) "k"))

let test_lsm_delete_tombstone () =
  with_lsm (fun _ _ _ _ st ->
      Lsm_store.put st "k" (value "v");
      Lsm_store.flush_now st;
      ignore (Lsm_store.delete st "k");
      Alcotest.(check (option string)) "tombstone hides run value" None
        (read_str (Lsm_store.get st) "k");
      Lsm_store.flush_now st;
      Alcotest.(check (option string)) "tombstone persists in runs" None
        (read_str (Lsm_store.get st) "k"))

let test_lsm_compaction () =
  with_lsm (fun _ _ _ _ st ->
      for round = 0 to 5 do
        for i = 0 to 19 do
          Lsm_store.put st (Printf.sprintf "k%02d" i)
            (Bytes.make 2048 (Char.chr (97 + round)))
        done;
        Lsm_store.flush_now st
      done;
      let s = Lsm_store.stats st in
      Alcotest.(check bool) "compaction ran" true (s.Lsm_store.compactions >= 1);
      (* After compaction, latest values remain. *)
      Alcotest.(check (option string)) "latest round" (Some (String.make 2048 'f'))
        (read_str (Lsm_store.get st) "k05"))

let test_lsm_recovery () =
  let sim, p, pm, ssd = sim_fixture (Lsm_store.pmem_bytes lsm_cfg) 8192 in
  Sim.spawn sim "main" (fun () ->
      let st = Lsm_store.create p pm ssd lsm_cfg in
      for i = 0 to 29 do
        Lsm_store.put st (Printf.sprintf "k%02d" i) (value (string_of_int i))
      done;
      Lsm_store.flush_now st;
      for i = 30 to 44 do
        Lsm_store.put st (Printf.sprintf "k%02d" i) (value (string_of_int i))
      done;
      Lsm_store.stop st);
  Sim.run sim;
  Pmem.crash pm Pmem.Drop_all;
  Sim.clear_pending sim;
  Sim.spawn sim "recovery" (fun () ->
      let st = Lsm_store.recover p pm ssd lsm_cfg in
      (* Flushed data from runs, unflushed from the WAL. *)
      Alcotest.(check (option string)) "from run" (Some "5")
        (read_str (Lsm_store.get st) "k05");
      Alcotest.(check (option string)) "from WAL" (Some "40")
        (read_str (Lsm_store.get st) "k40");
      Lsm_store.stop st);
  Sim.run sim

(* --- Inline store ------------------------------------------------------------ *)

let inline_cfg =
  {
    Inline_store.default_config with
    space_bytes = 8 * 1024 * 1024;
    undo_bytes = 256 * 1024;
    op_cpu_ns = 0;
  }

let with_inline f =
  let sim, p, pm, _ = sim_fixture (Inline_store.pmem_bytes inline_cfg) 16 in
  let result = ref None in
  Sim.spawn sim "t" (fun () ->
      let st = Inline_store.create p pm inline_cfg in
      result := Some (f sim p pm st));
  Sim.run sim;
  Option.get !result

let test_inline_put_get () =
  with_inline (fun _ _ _ st ->
      Inline_store.put st "a" (value "in pmem");
      Alcotest.(check (option string)) "roundtrip" (Some "in pmem")
        (read_str (Inline_store.get st) "a"))

let test_inline_overwrite_delete () =
  with_inline (fun _ _ _ st ->
      Inline_store.put st "k" (value "v1");
      Inline_store.put st "k" (value "longer second version");
      Alcotest.(check (option string)) "latest" (Some "longer second version")
        (read_str (Inline_store.get st) "k");
      Alcotest.(check bool) "delete" true (Inline_store.delete st "k");
      Alcotest.(check bool) "gone" false (Inline_store.delete st "k"))

let test_inline_txn_flush_cost () =
  with_inline (fun sim _ _ st ->
      let t0 = Sim.now sim in
      Inline_store.put st "x" (Bytes.create 4096);
      let dt = Sim.now sim - t0 in
      (* Every put pays undo persists + data persist: must cost
         microseconds, far above a DRAM update. *)
      Alcotest.(check bool) (Printf.sprintf "inline put costs %d ns" dt) true
        (dt > 2_000);
      let s = Inline_store.stats st in
      Alcotest.(check bool) "undo entries recorded" true (s.Inline_store.undo_entries > 0))

let test_inline_crash_clean () =
  let sim, p, pm, _ = sim_fixture (Inline_store.pmem_bytes inline_cfg) 16 in
  Sim.spawn sim "main" (fun () ->
      let st = Inline_store.create p pm inline_cfg in
      for i = 0 to 49 do
        Inline_store.put st (Printf.sprintf "k%d" i) (value (string_of_int i))
      done);
  Sim.run sim;
  Pmem.crash pm Pmem.Drop_all;
  Sim.clear_pending sim;
  Sim.spawn sim "recovery" (fun () ->
      let st = Inline_store.recover p pm inline_cfg in
      check Alcotest.int "all objects" 50 (Inline_store.object_count st);
      Alcotest.(check (option string)) "value" (Some "33")
        (read_str (Inline_store.get st) "k33"));
  Sim.run sim

let test_inline_crash_mid_txn_rolls_back () =
  (* Crash with an unfinished transaction in the undo log: recovery must
     roll it back to the previous consistent state. We engineer this by
     stopping the simulation inside a put. *)
  let sim, p, pm, _ = sim_fixture (Inline_store.pmem_bytes inline_cfg) 16 in
  let put_started = ref max_int in
  Sim.spawn sim "main" (fun () ->
      let st = Inline_store.create p pm inline_cfg in
      for i = 0 to 19 do
        Inline_store.put st (Printf.sprintf "k%d" i) (value "stable")
      done;
      put_started := Sim.now sim;
      Inline_store.put st "k5" (value "torn-write"));
  (* Advance until the final put has begun, then a hair further. *)
  let rec advance () =
    if !put_started = max_int then begin
      Sim.run_until sim (Sim.now sim + 10_000);
      advance ()
    end
  in
  advance ();
  Sim.run_until sim (!put_started + 1_500);
  Pmem.crash pm Pmem.Keep_all;
  Sim.clear_pending sim;
  Sim.spawn sim "recovery" (fun () ->
      let st = Inline_store.recover p pm inline_cfg in
      match read_str (Inline_store.get st) "k5" with
      | Some "stable" -> () (* rolled back *)
      | Some "torn-write" -> () (* transaction had committed: also fine *)
      | other ->
          Alcotest.failf "inconsistent state after rollback: %s"
            (match other with Some s -> s | None -> "<missing>"));
  Sim.run sim

(* The crash oracle shared by the two stores: every acknowledged op
   before the crash must survive it, except on the key of the one op in
   flight at the crash, which may or may not have landed — a put may have
   overwritten the acked value, a delete may already be durable. *)
let acked_survive ~inflight snapshot read =
  let module M = Map.Make (String) in
  M.for_all
    (fun key expect ->
      match (expect, read key) with
      | _ when Some key = inflight -> true
      | Some v, Some g -> g = v
      | None, None -> true
      | None, Some _ | Some _, None -> false)
    snapshot

(* One run: a writer loops random puts/deletes (and, for the cached
   store, checkpoints), the power fails at a random instant, and the
   recovered store must pass [acked_survive]. *)
let cached_crash_acked_survive seed =
  let sim, p, pm, ssd =
    sim_fixture (Cached_store.pmem_bytes cached_cfg) cached_cfg.Cached_store.ssd_blocks
  in
  let r = Rng.create seed in
  let module M = Map.Make (String) in
  let acked = ref M.empty and inflight = ref None in
  Sim.spawn sim "w" (fun () ->
      let st = Cached_store.create p pm ssd cached_cfg in
      for i = 0 to 149 do
        let key = Printf.sprintf "k%d" (Rng.int r 30) in
        inflight := Some key;
        if Rng.int r 5 = 0 then begin
          ignore (Cached_store.delete st key);
          acked := M.add key None !acked
        end
        else begin
          let v = Printf.sprintf "v%d" i in
          Cached_store.put st key (Bytes.of_string v);
          acked := M.add key (Some v) !acked
        end;
        inflight := None;
        if Rng.int r 40 = 0 then Cached_store.checkpoint_now st
      done);
  (* Crash at a random instant during the run. *)
  Sim.run_until sim (100_000 + Rng.int r 3_000_000);
  let snapshot = !acked and inflight = !inflight in
  Pmem.crash pm (Pmem.Random (Rng.split r));
  Sim.clear_pending sim;
  let ok = ref false in
  Sim.spawn sim "rec" (fun () ->
      let st = Cached_store.recover p pm ssd cached_cfg in
      ok := acked_survive ~inflight snapshot (read_str (Cached_store.get st));
      Cached_store.stop st);
  Sim.run sim;
  !ok

let lsm_crash_acked_survive seed =
  let sim, p, pm, ssd = sim_fixture (Lsm_store.pmem_bytes lsm_cfg) 8192 in
  let r = Rng.create seed in
  let module M = Map.Make (String) in
  let acked = ref M.empty and inflight = ref None in
  Sim.spawn sim "w" (fun () ->
      let st = Lsm_store.create p pm ssd lsm_cfg in
      for i = 0 to 199 do
        let key = Printf.sprintf "k%d" (Rng.int r 40) in
        inflight := Some key;
        if Rng.int r 6 = 0 then begin
          ignore (Lsm_store.delete st key);
          acked := M.add key None !acked
        end
        else begin
          let v = Printf.sprintf "v%d" i in
          Lsm_store.put st key (Bytes.of_string v);
          acked := M.add key (Some v) !acked
        end;
        inflight := None
      done);
  Sim.run_until sim (50_000 + Rng.int r 2_000_000);
  let snapshot = !acked and inflight = !inflight in
  Pmem.crash pm (Pmem.Random (Rng.split r));
  Sim.clear_pending sim;
  let ok = ref false in
  Sim.spawn sim "rec" (fun () ->
      let st = Lsm_store.recover p pm ssd lsm_cfg in
      ok := acked_survive ~inflight snapshot (read_str (Lsm_store.get st));
      Lsm_store.stop st);
  Sim.run sim;
  !ok

let prop_cached_crash_acked_survive =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"cached: acked ops survive any crash" ~count:15
       QCheck.(int_range 0 100_000)
       cached_crash_acked_survive)

let prop_lsm_crash_acked_survive =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"lsm: acked ops survive any crash" ~count:15
       QCheck.(int_range 0 100_000)
       lsm_crash_acked_survive)

(* Seeds whose crash lands on a delete in flight that was already
   durable: the read-back misses a key whose last acked op was a put. *)
let test_crash_inflight_delete_seeds () =
  List.iter
    (fun seed ->
      Alcotest.(check bool) (Printf.sprintf "cached seed %d" seed) true
        (cached_crash_acked_survive seed))
    [ 10516; 49411; 55048 ];
  List.iter
    (fun seed ->
      Alcotest.(check bool) (Printf.sprintf "lsm seed %d" seed) true
        (lsm_crash_acked_survive seed))
    [ 29100; 34836 ]

(* --- fsmeta models ------------------------------------------------------------ *)

let test_fsmeta_costs_ordered () =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let cost fs =
    let pm = Pmem.create p { Pmem.default_config with size = 4 * 1024 * 1024; crash_model = false } in
    let t = Fsmeta.create p pm fs in
    let t0 = ref 0 and t1 = ref 0 in
    Sim.spawn sim "m" (fun () ->
        t0 := Sim.now sim;
        for i = 0 to 99 do
          Fsmeta.write_meta t ~inode:(i mod 16)
        done;
        t1 := Sim.now sim);
    Sim.run sim;
    (!t1 - !t0) / 100
  in
  let nova = cost Fsmeta.Nova in
  let xfs = cost Fsmeta.Xfs_dax in
  let ext4 = cost Fsmeta.Ext4_dax in
  Alcotest.(check bool)
    (Printf.sprintf "NOVA (%d) < xfs (%d) < ext4 (%d)" nova xfs ext4)
    true
    (nova < xfs && xfs < ext4);
  Alcotest.(check bool) "all must touch PMEM (> one persist)" true (nova >= 300)

let test_fsmeta_names () =
  check Alcotest.string "nova" "NOVA" (Fsmeta.name Fsmeta.Nova);
  check Alcotest.string "xfs" "xfs-DAX" (Fsmeta.name Fsmeta.Xfs_dax);
  check Alcotest.string "ext4" "ext4-DAX" (Fsmeta.name Fsmeta.Ext4_dax)

let suite =
  [
    ("cached put/get", `Quick, test_cached_put_get);
    ("cached overwrite/delete", `Quick, test_cached_overwrite_delete);
    ("cached checkpoint stalls requests", `Quick, test_cached_checkpoint_stalls_requests);
    ("cached recovery", `Quick, test_cached_recovery);
    ("lsm put/get", `Quick, test_lsm_put_get);
    ("lsm get from SST", `Quick, test_lsm_get_from_sst);
    ("lsm overwrite newest wins", `Quick, test_lsm_overwrite_newest_wins);
    ("lsm delete tombstone", `Quick, test_lsm_delete_tombstone);
    ("lsm compaction", `Quick, test_lsm_compaction);
    ("lsm recovery (runs + WAL)", `Quick, test_lsm_recovery);
    ("inline put/get", `Quick, test_inline_put_get);
    ("inline overwrite/delete", `Quick, test_inline_overwrite_delete);
    ("inline txn flush cost", `Quick, test_inline_txn_flush_cost);
    ("inline crash clean", `Quick, test_inline_crash_clean);
    ("inline crash mid-txn rolls back", `Quick, test_inline_crash_mid_txn_rolls_back);
    prop_cached_crash_acked_survive;
    prop_lsm_crash_acked_survive;
    ( "cached/lsm: in-flight delete at the crash",
      `Quick,
      test_crash_inflight_delete_seeds );
    ("fsmeta cost ordering", `Quick, test_fsmeta_costs_ordered);
    ("fsmeta names", `Quick, test_fsmeta_names);
  ]
