(* Tests for the crash-consistency model checker (lib/check): the Pmem
   persistence-event hook, the durability oracle, the recovered-state
   fsck, and bounded explorer sweeps — including the mutation switches
   that prove the checker detects injected protocol bugs. *)

open Dstore_platform
open Dstore_pmem
open Dstore_ssd
open Dstore_core
open Dstore_check
open Dstore_util
open Alcotest

(* Small store so checkpoints trigger inside short scenarios; same shape
   as the crash fixtures in test_dstore.ml and bin/dstore_checker.ml. *)
let small_cfg fault =
  {
    Config.default with
    log_slots = 512;
    space_bytes = 4 * 1024 * 1024;
    meta_entries = 1024;
    ssd_blocks = 4096;
    checkpoint_workers = 2;
    fault;
  }

type fx = { sim : Sim.t; p : Platform.t; pm : Pmem.t; ssd : Ssd.t }

let fixture ?(fault = Config.No_fault) () =
  let cfg = small_cfg fault in
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let pm =
    Pmem.create p
      { Pmem.default_config with size = Dipper.layout_bytes cfg; crash_model = true }
  in
  let ssd = Ssd.create p { Ssd.default_config with pages = cfg.Config.ssd_blocks } in
  ({ sim; p; pm; ssd }, cfg)

(* Run a small fixed workload and return the device's event counter. *)
let run_small_workload () =
  let fx, cfg = fixture () in
  Sim.spawn fx.sim "w" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd cfg in
      let ctx = Dstore.ds_init st in
      for i = 0 to 20 do
        Dstore.oput ctx (Printf.sprintf "k%d" (i mod 7)) (Bytes.make (50 + i) 'x')
      done;
      ignore (Dstore.odelete ctx "k3");
      Dstore.stop st);
  Sim.run fx.sim;
  Pmem.persist_events fx.pm

(* --- Pmem persistence-event hook -------------------------------------- *)

let test_hook_counts_flush_and_fence () =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let pm = Pmem.create p { Pmem.default_config with size = 4096 } in
  let calls = ref [] in
  Pmem.set_persist_hook pm (Some (fun n -> calls := n :: !calls));
  Sim.spawn sim "w" (fun () ->
      check int "starts at zero" 0 (Pmem.persist_events pm);
      Pmem.set_u64 pm 0 42;
      Pmem.flush pm 0 8;
      check int "flush counts" 1 (Pmem.persist_events pm);
      Pmem.fence pm;
      check int "fence counts" 2 (Pmem.persist_events pm);
      Pmem.flush pm 0 0;
      check int "empty flush does not count" 2 (Pmem.persist_events pm);
      Pmem.set_u64 pm 64 1;
      Pmem.persist pm 64 8;
      check int "persist counts flush+fence" 4 (Pmem.persist_events pm));
  Sim.run sim;
  check (list int) "hook saw every event, in order" [ 1; 2; 3; 4 ]
    (List.rev !calls);
  Pmem.set_persist_hook pm None;
  Sim.spawn sim "w2" (fun () -> Pmem.persist pm 0 8);
  Sim.run sim;
  check int "cleared hook still counts" 6 (Pmem.persist_events pm)

let test_hook_deterministic_across_runs () =
  let a = run_small_workload () in
  let b = run_small_workload () in
  check bool "events happened" true (a > 0);
  check int "identical runs, identical event counts" a b

let test_hook_raise_aborts_at_event () =
  let exception Stop in
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let pm = Pmem.create p { Pmem.default_config with size = 4096 } in
  Pmem.set_persist_hook pm (Some (fun n -> if n = 3 then raise Stop));
  Sim.spawn sim "w" (fun () ->
      for i = 0 to 9 do
        Pmem.set_u64 pm (i * 64) i;
        Pmem.persist pm (i * 64) 8
      done);
  (match Sim.run sim with
  | () -> fail "expected the hook to abort the run"
  | exception Stop -> ());
  check int "stopped exactly at event 3" 3 (Pmem.persist_events pm)

(* --- Oracle ------------------------------------------------------------ *)

let bytes_of = Bytes.of_string

let test_oracle_committed_exact () =
  let o = Oracle.create () in
  Oracle.begin_put o "a" (bytes_of "hello");
  Oracle.commit_pending o;
  check (list string) "matching state passes" []
    (Oracle.check o ~read:(fun _ -> Some (bytes_of "hello")) ~names:[ "a" ]);
  check bool "wrong value fails" true
    (Oracle.check o ~read:(fun _ -> Some (bytes_of "other")) ~names:[ "a" ]
    <> []);
  check bool "missing acked key fails" true
    (Oracle.check o ~read:(fun _ -> None) ~names:[] <> [])

let test_oracle_pending_put_atomic () =
  let o = Oracle.create () in
  Oracle.begin_put o "a" (bytes_of "v1");
  Oracle.commit_pending o;
  Oracle.begin_put o "a" (bytes_of "v2");
  let ok v = Oracle.check o ~read:(fun _ -> v) ~names:[ "a" ] = [] in
  check bool "old value acceptable" true (ok (Some (bytes_of "v1")));
  check bool "new value acceptable" true (ok (Some (bytes_of "v2")));
  check bool "mix rejected" false (ok (Some (bytes_of "v3")));
  check bool "absent rejected" false
    (Oracle.check o ~read:(fun _ -> None) ~names:[] = [])

let test_oracle_pending_delete () =
  let o = Oracle.create () in
  Oracle.begin_put o "a" (bytes_of "v1");
  Oracle.commit_pending o;
  Oracle.begin_delete o "a";
  let ok v = Oracle.check o ~read:(fun _ -> v) ~names:[] = [] in
  check bool "still present acceptable" true (ok (Some (bytes_of "v1")));
  check bool "gone acceptable" true (ok None);
  check bool "other value rejected" false (ok (Some (bytes_of "x")))

let test_oracle_pending_write_page_prefix () =
  (* 2-page object (ps=4), write crossing the page boundary: acceptable
     states are page-prefixes of the spliced image, never a suffix. *)
  let o = Oracle.create () in
  let old = bytes_of "aaaabbbb" in
  Oracle.begin_put o "a" old;
  Oracle.commit_pending o;
  Oracle.begin_write o ~key:"a" ~off:2 ~data:(bytes_of "XXXX") ~page_size:4;
  let ok v = Oracle.check o ~read:(fun _ -> Some (bytes_of v)) ~names:[ "a" ] = [] in
  check bool "no page written" true (ok "aaaabbbb");
  check bool "first page written" true (ok "aaXXbbbb");
  check bool "both pages written" true (ok "aaXXXXbb");
  check bool "suffix-only write rejected" false (ok "aaaaXXbb");
  check bool "foreign bytes rejected" false (ok "zzzzzzzz")

let test_oracle_pending_write_extension () =
  let o = Oracle.create () in
  let old = bytes_of "aaaa" in
  Oracle.begin_put o "a" old;
  Oracle.commit_pending o;
  (* Write at the end: extends from 4 to 8 bytes. Uncommitted, the old
     metadata caps the size; committed, the full image is visible. *)
  Oracle.begin_write o ~key:"a" ~off:4 ~data:(bytes_of "BBBB") ~page_size:4;
  let ok v = Oracle.check o ~read:(fun _ -> Some (bytes_of v)) ~names:[ "a" ] = [] in
  check bool "old size acceptable" true (ok "aaaa");
  check bool "committed extension acceptable" true (ok "aaaaBBBB");
  check bool "half extension rejected" false (ok "aaaaBB")

let test_oracle_pending_batch () =
  (* Any-subset survival: while a group commit is in flight each key
     independently shows its committed value or its batch effect; after
     commit_pending every effect is durable. *)
  let o = Oracle.create () in
  Oracle.begin_put o "a" (bytes_of "a0");
  Oracle.commit_pending o;
  Oracle.begin_put o "c" (bytes_of "c0");
  Oracle.commit_pending o;
  Oracle.begin_batch o
    [ ("a", Some (bytes_of "a1")); ("b", Some (bytes_of "b1")); ("c", None) ];
  let ok tbl names =
    Oracle.check o ~read:(fun k -> List.assoc_opt k tbl) ~names = []
  in
  check bool "nothing applied acceptable" true
    (ok [ ("a", bytes_of "a0"); ("c", bytes_of "c0") ] [ "a"; "c" ]);
  check bool "all applied acceptable" true
    (ok [ ("a", bytes_of "a1"); ("b", bytes_of "b1") ] [ "a"; "b" ]);
  check bool "per-key mixed subset acceptable" true
    (ok
       [ ("a", bytes_of "a0"); ("b", bytes_of "b1"); ("c", bytes_of "c0") ]
       [ "a"; "b"; "c" ]);
  check bool "foreign value rejected" false
    (ok [ ("a", bytes_of "zz"); ("c", bytes_of "c0") ] [ "a"; "c" ]);
  Oracle.commit_pending o;
  check bool "after commit all effects durable" true
    (ok [ ("a", bytes_of "a1"); ("b", bytes_of "b1") ] [ "a"; "b" ]);
  check bool "after commit old state rejected" false
    (ok [ ("a", bytes_of "a0"); ("c", bytes_of "c0") ] [ "a"; "c" ]);
  check bool "repeated key in batch rejected" true
    (match Oracle.begin_batch o [ ("x", None); ("x", None) ] with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_oracle_pending_txn () =
  (* All-or-nothing: while a txn span is in flight each member key alone
     may show old or new (per-key check), but the cross-key clause must
     reject a MIXED recovery — some members old, some new — which is
     exactly what per-key batch semantics would wrongly accept. *)
  let o = Oracle.create () in
  Oracle.begin_put o "a" (bytes_of "a0");
  Oracle.commit_pending o;
  Oracle.begin_put o "b" (bytes_of "b0");
  Oracle.commit_pending o;
  Oracle.begin_txn o
    [ ("a", Some (bytes_of "a1")); ("b", None); ("c", Some (bytes_of "c1")) ];
  let ok tbl names =
    Oracle.check o ~read:(fun k -> List.assoc_opt k tbl) ~names = []
  in
  let all = [ "a"; "b"; "c" ] in
  check bool "all old acceptable" true
    (ok [ ("a", bytes_of "a0"); ("b", bytes_of "b0") ] all);
  check bool "all new acceptable" true
    (ok [ ("a", bytes_of "a1"); ("c", bytes_of "c1") ] all);
  check bool "mixed members rejected (torn)" false
    (ok [ ("a", bytes_of "a1"); ("b", bytes_of "b0") ] all);
  check bool "foreign value rejected" false
    (ok [ ("a", bytes_of "zz"); ("b", bytes_of "b0") ] all);
  Oracle.commit_pending o;
  check bool "after commit all effects durable" true
    (ok [ ("a", bytes_of "a1"); ("c", bytes_of "c1") ] all);
  check bool "after commit old state rejected" false
    (ok [ ("a", bytes_of "a0"); ("b", bytes_of "b0") ] all)

let test_oracle_phantom () =
  let o = Oracle.create () in
  Oracle.begin_put o "a" (bytes_of "v");
  Oracle.commit_pending o;
  check bool "unknown name flagged" true
    (Oracle.check o
       ~read:(fun k -> if k = "a" then Some (bytes_of "v") else None)
       ~names:[ "a"; "ghost" ]
    <> [])

(* --- Fsck -------------------------------------------------------------- *)

(* Build a live store, run [mutate] on it inside the simulation, then
   fsck. *)
let fsck_after mutate =
  let fx, cfg = fixture () in
  let out = ref [] in
  Sim.spawn fx.sim "w" (fun () ->
      let st = Dstore.create fx.p fx.pm fx.ssd cfg in
      let ctx = Dstore.ds_init st in
      Dstore.oput ctx "a" (Bytes.make 100 'a');
      Dstore.oput ctx "b" (Bytes.make 9000 'b');
      Dstore.oput ctx "c" (Bytes.make 5000 'c');
      ignore (Dstore.odelete ctx "c");
      Dstore.checkpoint_now st;
      Dstore.oput ctx "d" (Bytes.make 300 'd');
      mutate st;
      out := Fsck.run st;
      Dstore.stop st);
  Sim.run fx.sim;
  !out

let test_fsck_clean () =
  check (list string) "healthy store is clean" [] (fsck_after (fun _ -> ()))

let test_fsck_detects_freed_referenced_block () =
  let bad =
    fsck_after (fun st ->
        let i = Dstore.internals st in
        (* Free a block some object references: pool/reference mismatch. *)
        let meta =
          match Dstore_structs.Btree.find i.Dstore.i_btree "b" with
          | Some m -> m
          | None -> fail "object b missing"
        in
        let _, extents = Dstore_structs.Metazone.read_object i.Dstore.i_zone meta in
        let b = (List.hd extents).Dstore_structs.Metazone.start in
        Dstore_structs.Bitpool.free i.Dstore.i_blockpool b)
  in
  check bool "freed referenced block detected" true (bad <> [])

let test_fsck_detects_dangling_index_entry () =
  let bad =
    fsck_after (fun st ->
        let i = Dstore.internals st in
        (* Point the index at a metadata entry that is not live. *)
        ignore (Dstore_structs.Btree.insert i.Dstore.i_btree "ghost" 999))
  in
  check bool "dangling index entry detected" true (bad <> [])

let test_fsck_detects_leaked_meta () =
  let bad =
    fsck_after (fun st ->
        let i = Dstore.internals st in
        (* Allocate a meta id nothing references: leak. *)
        Dstore_structs.Bitpool.set_allocated i.Dstore.i_metapool 900)
  in
  check bool "leaked meta entry detected" true (bad <> [])

(* --- Oplog scan hardening ---------------------------------------------- *)

(* Randomly corrupted slots — payload bit flips, stale-epoch LSNs,
   truncated tails — must never surface as valid records: every scanned
   (lsn, op) pair must be one the test wrote, and records whose slots were
   corrupted must be dropped. *)
let prop_oplog_corrupted_slots_never_valid =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"oplog: corrupted slots are never accepted"
       ~count:80
       QCheck.(int_range 0 100_000)
       (fun seed ->
         Seed_report.attempt ~test:"oplog corrupted slots" ~seed
           ~repro:
             (Printf.sprintf
                "dune exec test/test_main.exe -- test check  # seed %d" seed)
         @@ fun () ->
         let sim = Sim.create () in
         let p = Sim_platform.make sim in
         let slots = 128 in
         let pm =
           Pmem.create p
             {
               Pmem.default_config with
               size = Oplog.region_bytes ~slots + 64;
             }
         in
         let ok = ref false in
         Sim.spawn sim "w" (fun () ->
             let r = Rng.create seed in
             let log = Oplog.attach pm ~off:0 ~slots in
             Oplog.reset log ~lsn_base:1000;
             (* Fill with a mix of 1-slot and multi-slot records, all
                flushed and committed. *)
             let written = ref [] in
             (try
                while true do
                  let key =
                    if Rng.bool r then Printf.sprintf "key%d" (Rng.int r 100)
                    else String.make (40 + Rng.int r 60) 'k'
                  in
                  let op = Logrec.Noop { key } in
                  match Oplog.reserve log (Logrec.slots_needed op) with
                  | None -> raise Exit
                  | Some (slot, lsn) ->
                      Oplog.write_record log ~slot ~lsn op;
                      Oplog.flush_record log ~slot ~lsn op;
                      Oplog.commit_record log ~slot;
                      written :=
                        (slot, Logrec.slots_needed op, lsn, op) :: !written
                done
              with Exit -> ());
             let recs = List.rev !written in
             let slot_bytes = Logrec.slot_bytes in
             let record_of_slot s =
               List.find_opt (fun (s0, n, _, _) -> s >= s0 && s < s0 + n) recs
               |> function
               | Some (_, _, lsn, _) -> Some lsn
               | None -> None
             in
             let corrupted_lsns = ref [] in
             let corrupt_slot s =
               match record_of_slot s with
               | None -> ()
               | Some lsn ->
                   corrupted_lsns := lsn :: !corrupted_lsns;
                   let slot_off = (s + 1) * slot_bytes in
                   (match Rng.int r 3 with
                   | 0 ->
                       (* Bit flip in the payload region (past the header
                          fields of slot 0; anywhere in continuations). *)
                       let lo = 24 and hi = slot_bytes in
                       let off = slot_off + lo + Rng.int r (hi - lo) in
                       let bit = 1 lsl Rng.int r 8 in
                       Pmem.set_u8 pm off (Pmem.get_u8 pm off lxor bit)
                   | 1 ->
                       (* Stale-epoch LSN: valid-looking but from another
                          log generation. *)
                       Pmem.set_u64 pm slot_off (1_000_000 + Rng.int r 1000)
                   | _ ->
                       (* Truncated tail: the slot never made it. *)
                       Pmem.fill pm slot_off slot_bytes 0)
             in
             let tail = Oplog.tail log in
             for _ = 0 to 5 + Rng.int r 10 do
               corrupt_slot (Rng.int r (max 1 tail))
             done;
             let scanned = Oplog.scan log in
             let valid_set =
               List.filter
                 (fun (_, _, lsn, _) -> not (List.mem lsn !corrupted_lsns))
                 recs
             in
             let subset_ok =
               List.for_all
                 (fun e ->
                   List.exists
                     (fun (_, _, lsn, op) ->
                       lsn = e.Oplog.lsn && op = e.Oplog.op)
                     valid_set)
                 scanned
             in
             let dropped_ok =
               List.for_all
                 (fun lsn ->
                   not (List.exists (fun e -> e.Oplog.lsn = lsn) scanned))
                 !corrupted_lsns
             in
             ok := subset_ok && dropped_ok);
         Sim.run sim;
         !ok))

(* --- Explorer sweeps --------------------------------------------------- *)

let sweep ~fault ~seed ~n_ops ~stride =
  Explorer.sweep ~subsets:1 ~stride ~seed ~n_ops Explorer.Single
    (small_cfg fault)

(* (total events, init events, crash points, runs, violations): any change
   to event numbering or run counts moves it. *)
let fingerprint (r : Explorer.report) =
  [
    r.total_events;
    r.init_events;
    r.crash_points;
    r.runs;
    List.length r.violations;
  ]

(* Bounded exhaustive sweep on the unmutated engine: every persistence
   event of a mixed put/overwrite/delete scenario, drop-all plus one
   sampled eviction subset per point, zero violations. *)
let test_sweep_clean () =
  let r = sweep ~fault:Config.No_fault ~seed:7 ~n_ops:60 ~stride:1 in
  check bool "enough crash points" true (r.Explorer.crash_points >= 100);
  check int "total = init + points (stride 1)" r.Explorer.total_events
    (r.Explorer.init_events + r.Explorer.crash_points);
  (match r.Explorer.violations with
  | [] -> ()
  | v :: _ ->
      fail
        (Printf.sprintf "clean engine violated at event %d (%s): %s"
           v.Explorer.crash_event v.Explorer.mode v.Explorer.detail));
  check bool "runs = 2x points" true (r.Explorer.runs = 2 * r.Explorer.crash_points);
  check (list int) "fingerprint" [ 218; 12; 206; 412; 0 ] (fingerprint r)

let test_sweep_detects_skip_commit () =
  let r = sweep ~fault:Config.Skip_commit_persist ~seed:7 ~n_ops:40 ~stride:1 in
  check bool "skipped commit persist detected" true (r.Explorer.violations <> [])

let test_sweep_detects_skip_payload_flush () =
  let r = sweep ~fault:Config.Skip_payload_flush ~seed:42 ~n_ops:40 ~stride:1 in
  check bool "skipped payload flush detected" true (r.Explorer.violations <> [])

(* Group commit: the batch commit words are all set but the closing
   flush+fence over the span is dropped, so an acknowledged batch can
   evaporate wholesale at a crash. Gen mixes ~10% Batch ops into the
   sequence, so an event-by-event sweep must trip the oracle. *)
let test_sweep_detects_skip_batch_commit () =
  (* Seed picked so the generated mix actually contains Batch ops (the
     txn-bearing distribution reshuffled the old seed's draws). *)
  let r =
    sweep ~fault:Config.Skip_batch_commit_fence ~seed:42 ~n_ops:40 ~stride:1
  in
  check bool "skipped batch commit persist detected" true
    (r.Explorer.violations <> [])

(* Transactions: the commit record's LSN word is stored but its line is
   never flushed, so an acknowledged txn evaporates wholesale at a power
   loss while partial-span crashes still roll back — only the
   transactional oracle's all-or-nothing clause can tell the difference.
   Gen mixes ~4% Txn ops into the sequence. *)
let test_sweep_detects_skip_txn_commit () =
  let r =
    sweep ~fault:Config.Skip_txn_commit_record ~seed:7 ~n_ops:60 ~stride:1
  in
  check bool "skipped txn commit persist detected" true
    (r.Explorer.violations <> [])

(* Losing delta dirty tracking feeds a stale half back into the pipeline;
   a small log forces enough checkpoints that the corruption surfaces.
   The stride only thins crash points — the baseline detection is
   stride-independent — so keep the sweep cheap. *)
let test_sweep_detects_skip_dirty_track () =
  let cfg = { (small_cfg Config.Skip_dirty_track) with Config.log_slots = 96 } in
  let r =
    Explorer.sweep ~subsets:1 ~stride:64 ~seed:42 ~n_ops:120 Explorer.Single cfg
  in
  check bool "lost dirty tracking detected" true (r.Explorer.violations <> [])

module Mem = Dstore_memory.Mem
module Space = Dstore_memory.Space

(* Delta clones must be invisible: the PMEM half a Delta-mode checkpoint
   publishes must be byte-identical to what a Full-mode checkpoint
   publishes after the same operation sequence. One sequential client and
   one replay worker keep both runs on the same deterministic schedule;
   an oversized log with an unreachable threshold pins checkpoints to the
   explicit trigger points so both runs checkpoint at the same ops. *)
let identity_cfg clone =
  {
    Config.default with
    log_slots = 4096;
    checkpoint_threshold = 2.0;
    checkpoint_workers = 1;
    space_bytes = 4 * 1024 * 1024;
    meta_entries = 1024;
    ssd_blocks = 4096;
    ckpt_clone = clone;
  }

(* Run [ops] against a fresh store, forcing a checkpoint every
   [ckpt_every] ops, and return the published shadow space plus engine
   stats. The oracle only steers deterministic Write decisions, exactly
   as in [apply_op] above. *)
let run_for_identity clone ~seed ~n_ops ~ckpt_every =
  let cfg = identity_cfg clone in
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let pm =
    Pmem.create p
      { Pmem.default_config with size = Dipper.layout_bytes cfg; crash_model = true }
  in
  let ssd =
    Ssd.create p { Ssd.default_config with pages = cfg.Config.ssd_blocks }
  in
  let ops = Gen.generate ~seed ~n:n_ops in
  let result = ref None in
  Sim.spawn sim "w" (fun () ->
      let st = Dstore.create p pm ssd cfg in
      let ctx = Dstore.ds_init st in
      let oracle = Oracle.create () in
      let locked = Hashtbl.create 8 in
      List.iteri
        (fun i (op : Gen.op) ->
          (match op with
          | Gen.Put { key; size; vseed } ->
              Dstore.oput ctx key (Gen.value ~vseed size);
              Oracle.begin_put oracle key (Gen.value ~vseed size);
              Oracle.commit_pending oracle
          | Gen.Delete key ->
              ignore (Dstore.odelete ctx key);
              Oracle.begin_delete oracle key;
              Oracle.commit_pending oracle
          | Gen.Get key -> ignore (Dstore.oget ctx key)
          | Gen.Write { key; off_pct; len; vseed } -> (
              match Oracle.committed_value oracle key with
              | None -> ()
              | Some old ->
                  let osz = Bytes.length old in
                  let off = min osz (osz * off_pct / 100) in
                  let data = Gen.value ~vseed len in
                  Oracle.begin_write oracle ~key ~off ~data
                    ~page_size:(Ssd.page_size ssd);
                  let o = Dstore.oopen ctx key ~create:false Dstore.Rdwr in
                  ignore (Dstore.owrite o data ~size:len ~off);
                  Dstore.oclose o;
                  Oracle.commit_pending oracle)
          | Gen.Batch items ->
              let effects =
                List.map
                  (function
                    | Gen.B_put { key; size; vseed } ->
                        (key, Some (Gen.value ~vseed size))
                    | Gen.B_del key -> (key, None))
                  items
              in
              Oracle.begin_batch oracle effects;
              ignore
                (Dstore.obatch ctx
                   (List.map
                      (function
                        | key, Some v -> Dstore.Bput (key, v)
                        | key, None -> Dstore.Bdelete key)
                      effects));
              Oracle.commit_pending oracle
          | Gen.Txn { reads; items } ->
              let effects =
                List.map
                  (function
                    | Gen.B_put { key; size; vseed } ->
                        (key, Some (Gen.value ~vseed size))
                    | Gen.B_del key -> (key, None))
                  items
              in
              Oracle.begin_txn oracle effects;
              (match
                 Dstore_txn.txn ~retries:0 ctx (fun tx ->
                     List.iter (fun k -> ignore (Dstore_txn.get tx k)) reads;
                     List.iter
                       (function
                         | key, Some v -> Dstore_txn.put tx key v
                         | key, None -> Dstore_txn.delete tx key)
                       effects)
               with
              | Ok () -> Oracle.commit_pending oracle
              | Error _ -> failwith "identity run: single-client txn aborted")
          | Gen.Lock key ->
              if not (Hashtbl.mem locked key) then begin
                Dstore.olock ctx key;
                Hashtbl.add locked key ()
              end
          | Gen.Unlock key ->
              if Hashtbl.mem locked key then begin
                Hashtbl.remove locked key;
                Dstore.ounlock ctx key
              end);
          if (i + 1) mod ckpt_every = 0 then Dstore.checkpoint_now st)
        ops;
      let shadow = Dipper.shadow_space (Dstore.engine st) in
      result :=
        Some
          ( Space.mem shadow,
            Space.used_bytes shadow,
            Dipper.stats (Dstore.engine st) ));
  Sim.run sim;
  Option.get !result

let prop_delta_publishes_identical_bytes =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"delta checkpoint publishes bytes identical to full clone"
       ~count:10
       QCheck.(int_range 0 100_000)
       (fun seed ->
         Seed_report.attempt ~test:"delta clone byte identity" ~seed
           ~repro:
             (Printf.sprintf
                "dune exec test/test_main.exe -- test check  # seed %d" seed)
         @@ fun () ->
         let n_ops = 80 and ckpt_every = 25 in
         let full_mem, full_used, _ =
           run_for_identity Config.Full ~seed ~n_ops ~ckpt_every
         and delta_mem, delta_used, dst =
           run_for_identity Config.Delta ~seed ~n_ops ~ckpt_every
         in
         (* The property must exercise the incremental path, not fall back. *)
         if dst.Dipper.ckpt_delta_clones < 1 then
           failwith "scenario produced no delta clone";
         delta_used = full_used
         && Mem.equal_range full_mem delta_mem ~off:0 ~len:full_used))

(* --- Group commit identity: batched = unbatched ------------------------ *)

let keys_of_ops ops =
  List.sort_uniq compare
    (List.concat_map
       (fun (op : Gen.op) ->
         match op with
         | Gen.Put { key; _ }
         | Gen.Delete key
         | Gen.Get key
         | Gen.Write { key; _ }
         | Gen.Lock key
         | Gen.Unlock key ->
             [ key ]
         | Gen.Batch items ->
             List.map
               (function Gen.B_put { key; _ } -> key | Gen.B_del key -> key)
               items
         | Gen.Txn { reads; items } ->
             reads
             @ List.map
                 (function Gen.B_put { key; _ } -> key | Gen.B_del key -> key)
                 items)
       ops)

(* Execute a Gen sequence with puts/deletes coalesced into obatch calls
   of [chunk] ops ([chunk = 1] = the classic per-op path) and return the
   final value of every key the sequence ever named. The buffer is
   flushed before any read, partial write, lock, or explicit batch so
   both schedules observe the same store state; a shadow table of full
   object values — updated at submission time, identically under every
   partition — steers the Write offset and skip decisions. *)
let run_partitioned ?(txn_as_ops = false) ~chunk ~seed ~n_ops () =
  let cfg =
    {
      (identity_cfg Config.Delta) with
      Config.log_slots = 256;
      checkpoint_threshold = 0.6;
    }
  in
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let pm =
    Pmem.create p { Pmem.default_config with size = Dipper.layout_bytes cfg }
  in
  let ssd =
    Ssd.create p { Ssd.default_config with pages = cfg.Config.ssd_blocks }
  in
  let ops = Gen.generate ~seed ~n:n_ops in
  let result = ref None in
  Sim.spawn sim "w" (fun () ->
      let st = Dstore.create p pm ssd cfg in
      let ctx = Dstore.ds_init st in
      let shadow = Hashtbl.create 32 in
      let locked = Hashtbl.create 8 in
      let buf = ref [] and nbuf = ref 0 in
      let flush () =
        if !buf <> [] then begin
          ignore (Dstore.obatch ctx (List.rev !buf));
          buf := [];
          nbuf := 0
        end
      in
      let submit op =
        if chunk <= 1 then
          match op with
          | Dstore.Bput (k, v) -> Dstore.oput ctx k v
          | Dstore.Bdelete k -> ignore (Dstore.odelete ctx k)
        else begin
          buf := op :: !buf;
          incr nbuf;
          if !nbuf >= chunk then flush ()
        end
      in
      List.iter
        (fun (op : Gen.op) ->
          match op with
          | Gen.Put { key; size; vseed } ->
              let v = Gen.value ~vseed size in
              Hashtbl.replace shadow key (Bytes.copy v);
              submit (Dstore.Bput (key, v))
          | Gen.Delete key ->
              Hashtbl.remove shadow key;
              submit (Dstore.Bdelete key)
          | Gen.Batch items ->
              flush ();
              ignore
                (Dstore.obatch ctx
                   (List.map
                      (function
                        | Gen.B_put { key; size; vseed } ->
                            let v = Gen.value ~vseed size in
                            Hashtbl.replace shadow key (Bytes.copy v);
                            Dstore.Bput (key, v)
                        | Gen.B_del key ->
                            Hashtbl.remove shadow key;
                            Dstore.Bdelete key)
                      items))
          | Gen.Get key ->
              flush ();
              ignore (Dstore.oget ctx key)
          | Gen.Write { key; off_pct; len; vseed } -> (
              flush ();
              match Hashtbl.find_opt shadow key with
              | None -> ()
              | Some old ->
                  let osz = Bytes.length old in
                  let off = min osz (osz * off_pct / 100) in
                  let data = Gen.value ~vseed len in
                  let nv = Bytes.make (max osz (off + len)) '\000' in
                  Bytes.blit old 0 nv 0 osz;
                  Bytes.blit data 0 nv off len;
                  Hashtbl.replace shadow key nv;
                  let o = Dstore.oopen ctx key ~create:false Dstore.Rdwr in
                  ignore (Dstore.owrite o data ~size:len ~off);
                  Dstore.oclose o)
          | Gen.Txn { reads; items } when txn_as_ops ->
              (* Reference schedule for the equivalence property: the same
                 write-set applied as plain individual ops. *)
              flush ();
              List.iter (fun k -> ignore (Dstore.oget ctx k)) reads;
              List.iter
                (function
                  | Gen.B_put { key; size; vseed } ->
                      let v = Gen.value ~vseed size in
                      Hashtbl.replace shadow key (Bytes.copy v);
                      Dstore.oput ctx key v
                  | Gen.B_del key ->
                      Hashtbl.remove shadow key;
                      ignore (Dstore.odelete ctx key))
                items
          | Gen.Txn { reads; items } ->
              flush ();
              (match
                 Dstore_txn.txn ~retries:0 ctx (fun tx ->
                     List.iter (fun k -> ignore (Dstore_txn.get tx k)) reads;
                     List.iter
                       (function
                         | Gen.B_put { key; size; vseed } ->
                             let v = Gen.value ~vseed size in
                             Hashtbl.replace shadow key (Bytes.copy v);
                             Dstore_txn.put tx key v
                         | Gen.B_del key ->
                             Hashtbl.remove shadow key;
                             Dstore_txn.delete tx key)
                       items)
               with
              | Ok () -> ()
              | Error _ -> failwith "partition run: single-client txn aborted")
          | Gen.Lock key ->
              flush ();
              if not (Hashtbl.mem locked key) then begin
                Dstore.olock ctx key;
                Hashtbl.add locked key ()
              end
          | Gen.Unlock key ->
              flush ();
              if Hashtbl.mem locked key then begin
                Hashtbl.remove locked key;
                Dstore.ounlock ctx key
              end)
        ops;
      flush ();
      result :=
        Some (List.map (fun k -> (k, Dstore.oget ctx k)) (keys_of_ops ops)));
  Sim.run sim;
  Option.get !result

let prop_batched_equals_unbatched =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"batched execution byte-identical to unbatched" ~count:15
       QCheck.(pair (int_range 0 100_000) (int_range 2 6))
       (fun (seed, chunk) ->
         Seed_report.attempt ~test:"batched = unbatched" ~seed
           ~repro:
             (Printf.sprintf
                "dune exec test/test_main.exe -- test check  # seed %d chunk %d"
                seed chunk)
         @@ fun () ->
         let n_ops = 60 in
         run_partitioned ~chunk:1 ~seed ~n_ops ()
         = run_partitioned ~chunk ~seed ~n_ops ()))

(* A committed transaction is byte-identical to applying its write-set as
   plain individual ops: same Gen sequence down both schedules, final
   value of every named key compared. Single-client sequences never
   conflict, so every txn commits and the equivalence is exact. *)
let prop_txn_equals_individual_ops =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"committed txn byte-identical to individual ops"
       ~count:15
       QCheck.(int_range 0 100_000)
       (fun seed ->
         Seed_report.attempt ~test:"txn = individual ops" ~seed
           ~repro:
             (Printf.sprintf
                "dune exec test/test_main.exe -- test check  # seed %d" seed)
         @@ fun () ->
         let n_ops = 60 in
         run_partitioned ~chunk:1 ~seed ~n_ops ()
         = run_partitioned ~txn_as_ops:true ~chunk:1 ~seed ~n_ops ()))

(* An aborted transaction leaves every member key untouched. For each
   generated Txn op the driver opens a handle, reads a victim member,
   invalidates that read from outside, applies the write-set, and
   commits — which must fail; the members must then read back exactly as
   snapshotted (the victim showing only the external write). *)
let prop_aborted_txn_untouched =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"aborted txn leaves members untouched" ~count:15
       QCheck.(int_range 0 100_000)
       (fun seed ->
         Seed_report.attempt ~test:"aborted txn untouched" ~seed
           ~repro:
             (Printf.sprintf
                "dune exec test/test_main.exe -- test check  # seed %d" seed)
         @@ fun () ->
         let fx, cfg = fixture () in
         let ok = ref true in
         let sentinel = Bytes.of_string "external-racing-write" in
         Sim.spawn fx.sim "t" (fun () ->
             let st = Dstore.create fx.p fx.pm fx.ssd cfg in
             let ctx = Dstore.ds_init st in
             List.iter
               (fun (op : Gen.op) ->
                 match op with
                 | Gen.Put { key; size; vseed } ->
                     Dstore.oput ctx key (Gen.value ~vseed size)
                 | Gen.Delete key -> ignore (Dstore.odelete ctx key)
                 | Gen.Batch items ->
                     ignore
                       (Dstore.obatch ctx
                          (List.map
                             (function
                               | Gen.B_put { key; size; vseed } ->
                                   Dstore.Bput (key, Gen.value ~vseed size)
                               | Gen.B_del key -> Dstore.Bdelete key)
                             items))
                 | Gen.Txn { items; _ } ->
                     let member = function
                       | Gen.B_put { key; _ } | Gen.B_del key -> key
                     in
                     let keys = List.map member items in
                     let victim = List.hd keys in
                     let snapshot =
                       List.map (fun k -> (k, Dstore.oget ctx k)) keys
                     in
                     let tx = Dstore_txn.create ctx in
                     ignore (Dstore_txn.get tx victim);
                     Dstore.oput ctx victim sentinel;
                     List.iter
                       (function
                         | Gen.B_put { key; size; vseed } ->
                             Dstore_txn.put tx key (Gen.value ~vseed size)
                         | Gen.B_del key -> Dstore_txn.delete tx key)
                       items;
                     (match Dstore_txn.commit tx with
                     | Ok () -> ok := false (* stale read must abort *)
                     | Error (Dstore_txn.Conflict _) -> ()
                     | Error _ -> ok := false);
                     List.iter
                       (fun (k, old) ->
                         let expect =
                           if k = victim then Some sentinel else old
                         in
                         if Dstore.oget ctx k <> expect then ok := false)
                       snapshot
                 | Gen.Get key -> ignore (Dstore.oget ctx key)
                 | Gen.Write _ | Gen.Lock _ | Gen.Unlock _ -> ())
               (Gen.generate ~seed ~n:50);
             Dstore.stop st);
         Sim.run fx.sim;
         !ok))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_sweep_obs_export () =
  let obs = Dstore_obs.Obs.create ~now:(fun () -> 0) () in
  let r =
    Explorer.sweep ~obs ~subsets:1 ~stride:8 ~seed:7 ~n_ops:25 Explorer.Single
      (small_cfg Config.No_fault)
  in
  let m = obs.Dstore_obs.Obs.metrics in
  let v name = Option.value (Dstore_obs.Metrics.value m name) ~default:(-1) in
  check int "crash points counted" r.Explorer.crash_points
    (v "check.crash_points");
  check int "runs counted" r.Explorer.runs (v "check.runs");
  check int "no oracle violations" 0 (v "check.oracle_violations");
  check int "no fsck violations" 0 (v "check.fsck_violations");
  (* The sweep books counters on the caller's handle, never spans: every
     engine it crashes records into its own recorder. *)
  check int "no spans on the sweep handle" 0
    (Dstore_obs.Span.finished obs.Dstore_obs.Obs.spans);
  (* The failure artifact: the report serializes with the scenario seed,
     the sweep's progress counts and every violation's event index. *)
  let j = Dstore_obs.Json.to_string (Explorer.report_json r) in
  check bool "report json has seed" true (contains j "\"seed\":7");
  check bool "report json has runs" true
    (contains j (Printf.sprintf "\"runs\":%d" r.Explorer.runs));
  check bool "report json has mid-checkpoint points" true
    (contains j
       (Printf.sprintf "\"mid_ckpt_points\":%d" r.Explorer.mid_ckpt_points))

let suite =
  [
    ("pmem hook counts flush+fence", `Quick, test_hook_counts_flush_and_fence);
    ( "pmem hook deterministic across runs",
      `Quick,
      test_hook_deterministic_across_runs );
    ("pmem hook raise aborts at event", `Quick, test_hook_raise_aborts_at_event);
    ("oracle: committed state exact", `Quick, test_oracle_committed_exact);
    ("oracle: pending put atomic", `Quick, test_oracle_pending_put_atomic);
    ("oracle: pending delete", `Quick, test_oracle_pending_delete);
    ( "oracle: pending write page prefix",
      `Quick,
      test_oracle_pending_write_page_prefix );
    ( "oracle: pending write extension",
      `Quick,
      test_oracle_pending_write_extension );
    ("oracle: pending batch any-subset", `Quick, test_oracle_pending_batch);
    ("oracle: pending txn all-or-nothing", `Quick, test_oracle_pending_txn);
    ("oracle: phantom keys", `Quick, test_oracle_phantom);
    ("fsck: clean store", `Quick, test_fsck_clean);
    ( "fsck: freed referenced block",
      `Quick,
      test_fsck_detects_freed_referenced_block );
    ("fsck: dangling index entry", `Quick, test_fsck_detects_dangling_index_entry);
    ("fsck: leaked meta entry", `Quick, test_fsck_detects_leaked_meta);
    prop_oplog_corrupted_slots_never_valid;
    ("explorer: bounded exhaustive sweep clean", `Slow, test_sweep_clean);
    ("explorer: detects skipped commit persist", `Slow, test_sweep_detects_skip_commit);
    ( "explorer: detects skipped payload flush",
      `Slow,
      test_sweep_detects_skip_payload_flush );
    ( "explorer: detects lost delta dirty tracking",
      `Slow,
      test_sweep_detects_skip_dirty_track );
    ( "explorer: detects skipped batch commit persist",
      `Slow,
      test_sweep_detects_skip_batch_commit );
    ( "explorer: detects skipped txn commit persist",
      `Slow,
      test_sweep_detects_skip_txn_commit );
    prop_delta_publishes_identical_bytes;
    prop_batched_equals_unbatched;
    prop_txn_equals_individual_ops;
    prop_aborted_txn_untouched;
    ("explorer: obs export + report json", `Quick, test_sweep_obs_export);
  ]
