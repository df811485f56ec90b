(* Tests for the replication subsystem (lib/repl): Link delivery
   semantics, epoch fencing, failover round-trips, and the byte-identity
   property — a promoted backup's published space must equal a
   single-engine replay of the acked prefix, byte for byte. *)

open Dstore_platform
open Dstore_pmem
open Dstore_ssd
open Dstore_memory
open Dstore_core
open Dstore_check
open Dstore_repl
open Alcotest

(* Same shape as the checker's pair fixture: small enough that scenarios
   run fast, big enough that no structure overflows. *)
let pair_cfg =
  {
    Config.default with
    log_slots = 512;
    space_bytes = 4 * 1024 * 1024;
    meta_entries = 1024;
    ssd_blocks = 4096;
    checkpoint_workers = 2;
  }

let make_nodes platform cfg n =
  Array.init n (fun _ ->
      {
        Group.pm =
          Pmem.create platform
            {
              Pmem.default_config with
              size = Dipper.layout_bytes cfg;
              crash_model = true;
            };
        ssd =
          Ssd.create platform
            { Ssd.default_config with pages = cfg.Config.ssd_blocks };
      })

(* --- Link: delivery semantics ----------------------------------------- *)

(* FIFO even under jitter and size-dependent serialization: delivery
   times are clamped monotone per link, like a TCP stream. *)
let test_link_fifo_under_jitter () =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let l =
    Link.create p
      { latency_ns = 2_000; gbps = 1.0; jitter_ns = 10_000; drop_prob = 0.0;
        seed = 9 }
  in
  let n = 25 in
  let got = ref [] in
  Sim.spawn sim "t" (fun () ->
      for i = 0 to n - 1 do
        (* Varying sizes: without the monotone clamp the bandwidth and
           jitter terms would reorder deliveries. *)
        Link.send l ~bytes:(16 + (i * 37 mod 300)) i
      done;
      Link.close l;
      (try
         while true do
           got := Link.recv l :: !got
         done
       with Link.Closed -> ()));
  Sim.run sim;
  check (list int) "messages arrive in send order" (List.init n Fun.id)
    (List.rev !got);
  check int "sent" n (Link.sent l);
  check int "delivered" n (Link.delivered l);
  check int "dropped" 0 (Link.dropped l)

let test_link_drop () =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let l =
    Link.create p
      { Link.default_config with Link.drop_prob = 0.6; seed = 42 }
  in
  let n = 40 in
  let got = ref [] in
  Sim.spawn sim "t" (fun () ->
      for i = 0 to n - 1 do
        Link.send l i
      done;
      Link.close l;
      (try
         while true do
           got := Link.recv l :: !got
         done
       with Link.Closed -> ()));
  Sim.run sim;
  let got = List.rev !got in
  check bool "some messages dropped" true (Link.dropped l > 0);
  check bool "some messages survive" true (got <> []);
  check int "sent = delivered + dropped" n
    (Link.delivered l + Link.dropped l);
  (* Survivors keep their relative order. *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a < b && sorted rest
    | _ -> true
  in
  check bool "survivors in order" true (sorted got)

let test_link_closed () =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let l = Link.create p Link.default_config in
  let in_flight = ref None in
  let after_close = ref false in
  let drained = ref false in
  Sim.spawn sim "t" (fun () ->
      Link.send l 7;
      Link.close l;
      (* In-flight messages are still delivered after close... *)
      in_flight := Some (Link.recv l);
      (* ...then the drained link raises. *)
      (try ignore (Link.recv l) with Link.Closed -> drained := true);
      try Link.send l 8 with Link.Closed -> after_close := true);
  Sim.run sim;
  check (option int) "in-flight delivered after close" (Some 7) !in_flight;
  check bool "recv raises once drained" true !drained;
  check bool "send raises after close" true !after_close

(* --- Epoch fencing ----------------------------------------------------- *)

(* A primary whose epoch is stale gets its ships rejected by the backup,
   and the reject makes it fence itself: split-brain protection for an
   old primary that missed the explicit seal. *)
let test_stale_epoch_ship_rejected () =
  let cfg = pair_cfg in
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let nodes = make_nodes p cfg 2 in
  let fenced = ref false in
  let b_ref = ref None in
  Sim.spawn sim "t" (fun () ->
      let data = Link.create p Link.default_config in
      let ack = Link.create p Link.default_config in
      let bstore = Dstore.create p nodes.(1).Group.pm nodes.(1).Group.ssd cfg in
      (* The backup already lives in epoch 2 ... *)
      let b = Backup.create p ~data ~ack ~epoch:2 bstore in
      Backup.start b;
      b_ref := Some b;
      (* ... while this primary still believes it owns epoch 1. *)
      let store = Dstore.create p nodes.(0).Group.pm nodes.(0).Group.ssd cfg in
      let prim =
        Primary.create p ~mode:Repl.Ack_all ~epoch:1 store
          [| (1, data, ack, 0) |]
      in
      let ctx = Dstore.ds_init store in
      (try Primary.oput prim ctx "stale" (Bytes.make 32 'x')
       with Primary.Fenced -> fenced := true);
      check bool "primary self-fenced on reject" true (Primary.fenced prim);
      Primary.close_links prim;
      Backup.stop b;
      Dstore.stop store);
  Sim.run sim;
  let b = Option.get !b_ref in
  check bool "acked-durable wait raised Fenced" true !fenced;
  check int "backup rejected the stale ship" 1 (Backup.rejects b);
  check int "backup applied nothing" 0 (Backup.applied_rseq b)

(* After kill_primary every Table 2 call on the group raises Fenced;
   promote installs a new epoch and the same contexts work again. *)
let test_group_fencing_and_promote () =
  let cfg = pair_cfg in
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let nodes = make_nodes p cfg 2 in
  Sim.spawn sim "t" (fun () ->
      let g = Group.create ~mode:Repl.Ack_all p cfg nodes in
      let ctx = Group.ds_init g in
      Group.oput ctx "k" (Bytes.of_string "before failover");
      let stale = Group.primary g in
      Group.kill_primary g;
      check bool "group not alive" false (Group.primary_alive g);
      let put_fenced =
        try
          Group.oput ctx "k2" (Bytes.make 8 'y');
          false
        with Primary.Fenced -> true
      in
      check bool "put on dead group raises Fenced" true put_fenced;
      let get_fenced =
        try
          ignore (Group.oget ctx "k");
          false
        with Primary.Fenced -> true
      in
      check bool "get on dead group raises Fenced" true get_fenced;
      Group.promote g;
      check int "promote bumps the epoch" 2 (Group.epoch g);
      check int "backup node is the new primary" 1 (Group.primary_index g);
      (* The old primary handle someone may still hold stays fenced. *)
      check bool "stale primary handle stays fenced" true
        (Primary.fenced stale);
      (* The surviving context re-binds to the new primary. *)
      check (option bytes) "acked write survived failover"
        (Some (Bytes.of_string "before failover"))
        (Group.oget ctx "k");
      Group.oput ctx "k2" (Bytes.of_string "after failover");
      check (option bytes) "new epoch accepts writes"
        (Some (Bytes.of_string "after failover"))
        (Group.oget ctx "k2");
      Group.stop g);
  Sim.run sim

(* Failover round-trip with a crashed primary: every op acked under
   Ack_all must be served by the promoted backup. *)
let test_failover_round_trip () =
  let cfg = pair_cfg in
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let nodes = make_nodes p cfg 2 in
  let n = 40 in
  let value i = Bytes.of_string (Printf.sprintf "value-%03d" i) in
  Sim.spawn sim "t" (fun () ->
      let g = Group.create ~mode:Repl.Ack_all p cfg nodes in
      let ctx = Group.ds_init g in
      for i = 0 to n - 1 do
        Group.oput ctx (Printf.sprintf "k%02d" (i mod 16)) (value i)
      done;
      ignore (Group.odelete ctx "k03");
      (* Drop power on the primary's PMEM: nothing of node 0 survives. *)
      Group.kill_primary ~crash:true g;
      Group.promote g;
      for i = n - 16 to n - 1 do
        let key = Printf.sprintf "k%02d" (i mod 16) in
        if key <> "k03" then
          check (option bytes)
            (Printf.sprintf "acked %s served after failover" key)
            (Some (value i)) (Group.oget ctx key)
      done;
      check (option bytes) "acked delete survived failover" None
        (Group.oget ctx "k03");
      check int "object count matches acked state" 15 (Group.object_count g);
      Group.stop g);
  Sim.run sim

(* --- Laggard catch-up: resync ships only the post-snapshot suffix ------ *)

(* Kill the backup, commit a "dark window" of ops it never saw, re-sync,
   then commit a short suffix. The snapshot must carry the dark window
   (watermark = rseq at the cut), so the rejoined backup re-executes
   exactly the post-resync ops — a resync that double-shipped the
   prefix would inflate [repl.apply_entries], and one that skipped the
   suffix would leave the applied watermark behind. *)
let test_resync_ships_only_suffix () =
  let cfg = pair_cfg in
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let nodes = make_nodes p cfg 2 in
  Sim.spawn sim "t" (fun () ->
      let g = Group.create ~mode:Repl.Ack_all p cfg nodes in
      let ctx = Group.ds_init g in
      for i = 0 to 9 do
        Group.oput ctx (Printf.sprintf "a%d" i) (Bytes.make 64 'a')
      done;
      Group.quiesce g;
      Group.kill_backup ~crash:true g 1;
      check (list int) "killed backup is detached" [ 1 ] (Group.detached g);
      check bool "detached node not promotable" false (Group.backup_ready g 1);
      for i = 0 to 9 do
        Group.oput ctx (Printf.sprintf "b%d" i) (Bytes.make 64 'b')
      done;
      let snap = (Group.status g).Group.rseq in
      Group.resync g 1;
      check (list int) "re-synced node re-attached" [] (Group.detached g);
      for i = 0 to 4 do
        Group.oput ctx (Printf.sprintf "c%d" i) (Bytes.make 64 'c')
      done;
      Group.quiesce g;
      let b = List.assoc 1 (Group.backups g) in
      check int "applied watermark caught up" (snap + 5)
        (Backup.applied_rseq b);
      let applied =
        match
          Dstore_obs.Metrics.value
            (Dstore.obs (Backup.store b)).Dstore_obs.Obs.metrics
            "repl.apply_entries"
        with
        | Some n -> n
        | None -> -1
      in
      check int "re-executed entries = post-resync ops only" 5 applied;
      check bool "slot live again (gates durability, promotable)" true
        (Group.backup_ready g 1);
      (* The dark window made it across inside the snapshot. *)
      Group.kill_primary ~crash:true g;
      Group.promote g;
      check (option bytes) "dark-window op served after failover"
        (Some (Bytes.make 64 'b'))
        (Group.oget ctx "b7");
      check (option bytes) "post-resync op served after failover"
        (Some (Bytes.make 64 'c'))
        (Group.oget ctx "c3");
      Group.stop g);
  Sim.run sim

(* --- Byte identity: promoted backup = replay of the acked prefix ------- *)

(* Oversized log + high threshold: no automatic checkpoint fires on
   either side, so both engines publish their first checkpoint from
   the comparison point. Same shape as the delta-identity property in
   test_check.ml. *)
let identity_cfg =
  {
    Config.default with
    log_slots = 4096;
    checkpoint_threshold = 2.0;
    checkpoint_workers = 1;
    space_bytes = 4 * 1024 * 1024;
    meta_entries = 1024;
    ssd_blocks = 4096;
  }

(* Drive Gen ops through the group. Locks are advisory and never
   shipped, so the op stream for this property skips them; [sizes]
   mirrors committed object sizes to resolve Write offsets the way the
   explorer's oracle does. *)
let drive_group ctx sizes (op : Gen.op) =
  match op with
  | Gen.Put { key; size; vseed } ->
      Group.oput ctx key (Gen.value ~vseed size);
      Hashtbl.replace sizes key size
  | Gen.Delete key ->
      ignore (Group.odelete ctx key);
      Hashtbl.remove sizes key
  | Gen.Get key -> ignore (Group.oget ctx key)
  | Gen.Write { key; off_pct; len; vseed } -> (
      match Hashtbl.find_opt sizes key with
      | None -> ()
      | Some osz ->
          let off = min osz (osz * off_pct / 100) in
          ignore (Group.owrite ctx key ~off (Gen.value ~vseed len));
          Hashtbl.replace sizes key (max osz (off + len)))
  | Gen.Batch items ->
      let ops =
        List.map
          (function
            | Gen.B_put { key; size; vseed } ->
                Hashtbl.replace sizes key size;
                Dstore.Bput (key, Gen.value ~vseed size)
            | Gen.B_del key ->
                Hashtbl.remove sizes key;
                Dstore.Bdelete key)
          items
      in
      ignore (Group.obatch ctx ops)
  | Gen.Txn { items; _ } ->
      (* The replication group has no transaction entry point; drive
         the write-set as the equivalent batch — same final state, same
         shipped record stream shape. *)
      let ops =
        List.map
          (function
            | Gen.B_put { key; size; vseed } ->
                Hashtbl.replace sizes key size;
                Dstore.Bput (key, Gen.value ~vseed size)
            | Gen.B_del key ->
                Hashtbl.remove sizes key;
                Dstore.Bdelete key)
          items
      in
      ignore (Group.obatch ctx ops)
  | Gen.Lock _ | Gen.Unlock _ -> ()

(* Run the generated ops against an Ack_all pair with the journal on,
   crash the primary, promote, publish — and return the promoted space
   plus the journal of everything that was shipped (= acked: quiesced
   first, so the acked prefix is the whole sequence). *)
let run_promoted ~seed ~n_ops =
  let cfg = identity_cfg in
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let nodes = make_nodes p cfg 2 in
  let ops = Gen.generate ~seed ~n:n_ops in
  let result = ref None in
  Sim.spawn sim "w" (fun () ->
      let g = Group.create ~mode:Repl.Ack_all ~journal:true p cfg nodes in
      let ctx = Group.ds_init g in
      let sizes = Hashtbl.create 16 in
      List.iter (drive_group ctx sizes) ops;
      Group.quiesce g;
      let journal = Group.journal g in
      Group.kill_primary ~crash:true g;
      Group.promote g;
      Group.checkpoint_now g;
      let shadow = Dipper.shadow_space (Dstore.engine (Group.store g)) in
      result := Some (Space.mem shadow, Space.used_bytes shadow, journal);
      Group.stop g);
  Sim.run sim;
  Option.get !result

(* Replay a journal against a fresh single engine via the same
   [Repl.apply_entry] the backup uses, and publish. [restart_at]
   replays the discontinuity a resync snapshot bakes into the rejoined
   backup: the image is the primary's {e published} space at the cut,
   and the backup opens it through recovery — so its allocator state is
   whatever recovery rebuilds from the published bytes, not the live
   state the primary carried across the cut. The reference must do the
   same (checkpoint, close, recover) at the same rseq for the
   allocation history (and hence the bytes) to line up. *)
let run_replay ?restart_at journal =
  let cfg = identity_cfg in
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let pm =
    Pmem.create p
      {
        Pmem.default_config with
        size = Dipper.layout_bytes cfg;
        crash_model = true;
      }
  in
  let ssd =
    Ssd.create p { Ssd.default_config with pages = cfg.Config.ssd_blocks }
  in
  let result = ref None in
  Sim.spawn sim "w" (fun () ->
      let cut = Option.value restart_at ~default:(-1) in
      let prefix, suffix =
        List.partition (fun (e : Repl.entry) -> e.Repl.rseq <= cut) journal
      in
      let st0 = Dstore.create p pm ssd cfg in
      let ctx0 = Dstore.ds_init st0 in
      List.iter (fun (e : Repl.entry) -> Repl.apply_entry ctx0 e.Repl.op) prefix;
      let st, ctx =
        if cut >= 0 then begin
          Dstore.checkpoint_now st0;
          Dstore.stop st0;
          let st = Dstore.recover p pm ssd cfg in
          (st, Dstore.ds_init st)
        end
        else (st0, ctx0)
      in
      List.iter (fun (e : Repl.entry) -> Repl.apply_entry ctx e.Repl.op) suffix;
      Dstore.checkpoint_now st;
      let shadow = Dipper.shadow_space (Dstore.engine st) in
      result := Some (Space.mem shadow, Space.used_bytes shadow);
      Dstore.stop st);
  Sim.run sim;
  Option.get !result

let prop_promoted_backup_byte_identity =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"promoted backup = single-engine replay of acked prefix (bytes)"
       ~count:10
       QCheck.(int_range 0 100_000)
       (fun seed ->
         Seed_report.attempt ~test:"promoted backup byte identity" ~seed
           ~repro:
             (Printf.sprintf
                "dune exec test/test_main.exe -- test repl  # seed %d" seed)
         @@ fun () ->
         let prom_mem, prom_used, journal = run_promoted ~seed ~n_ops:60 in
         if journal = [] then failwith "scenario shipped nothing";
         let replay_mem, replay_used = run_replay journal in
         prom_used = replay_used
         && Mem.equal_range prom_mem replay_mem ~off:0 ~len:prom_used))

(* Like [run_promoted], but the backup dies at a seed-derived op index
   and is re-synced (snapshot + journal replay) at a later one before
   the primary is lost. Returns the snapshot cut's rseq so the replay
   reference can checkpoint at the same point. *)
let run_resynced ~seed ~n_ops =
  let cfg = identity_cfg in
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let nodes = make_nodes p cfg 2 in
  let ops = Gen.generate ~seed ~n:n_ops in
  let kill_at = 1 + (seed mod (n_ops / 2)) in
  let resync_at = kill_at + 1 + (seed / 7 mod (n_ops - 2 - kill_at)) in
  let snap = ref 0 in
  let result = ref None in
  Sim.spawn sim "w" (fun () ->
      let g = Group.create ~mode:Repl.Ack_all ~journal:true p cfg nodes in
      let ctx = Group.ds_init g in
      let sizes = Hashtbl.create 16 in
      List.iteri
        (fun i op ->
          if i = kill_at then Group.kill_backup ~crash:true g 1;
          if i = resync_at then begin
            snap := (Group.status g).Group.rseq;
            Group.resync g 1
          end;
          drive_group ctx sizes op)
        ops;
      Group.quiesce g;
      let journal = Group.journal g in
      Group.kill_primary ~crash:true g;
      Group.promote g;
      Group.checkpoint_now g;
      let shadow = Dipper.shadow_space (Dstore.engine (Group.store g)) in
      result := Some (Space.mem shadow, Space.used_bytes shadow, journal);
      Group.stop g);
  Sim.run sim;
  let mem, used, journal = Option.get !result in
  (mem, used, journal, !snap)

let prop_resynced_backup_byte_identity =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:
         "killed + re-synced + promoted backup = replay of acked prefix \
          (bytes)"
       ~count:8
       QCheck.(int_range 0 100_000)
       (fun seed ->
         Seed_report.attempt ~test:"re-synced backup byte identity" ~seed
           ~repro:
             (Printf.sprintf
                "dune exec test/test_main.exe -- test repl  # seed %d" seed)
         @@ fun () ->
         let prom_mem, prom_used, journal, snap =
           run_resynced ~seed ~n_ops:60
         in
         if journal = [] then failwith "scenario shipped nothing";
         let replay_mem, replay_used = run_replay ~restart_at:snap journal in
         prom_used = replay_used
         && Mem.equal_range prom_mem replay_mem ~off:0 ~len:prom_used))

(* Seeds that once diverged: checkpoint replay marked blocks allocated
   without advancing the pool's next-fit hint, so after recovery a
   batched backup apply and the one-op reference replay picked
   different ids. *)
let test_resynced_pinned_seeds () =
  List.iter
    (fun seed ->
      let prom_mem, prom_used, journal, snap = run_resynced ~seed ~n_ops:60 in
      let replay_mem, replay_used = run_replay ~restart_at:snap journal in
      check Alcotest.bool
        (Printf.sprintf "seed %d: same bytes" seed)
        true
        (prom_used = replay_used
        && Mem.equal_range prom_mem replay_mem ~off:0 ~len:prom_used))
    [ 2019; 59341; 70447 ]

(* --- Whole-pair crash sweep ------------------------------------------- *)

(* Every fourth persistence event of the backup, drop-all plus one eviction
   subset, with a log small enough that the backup checkpoints inside the
   scenario. *)
let pair_sweep fault =
  Explorer.sweep ~subsets:1 ~stride:4 ~seed:42 ~n_ops:24
    (Pair
       {
         mode = Repl.Ack_all;
         link_latency_ns = 1_000;
         story = Steady;
         target = 1;
       })
    { pair_cfg with Config.log_slots = 32; fault }

let test_pair_sweep_clean () =
  let r = pair_sweep Config.No_fault in
  check (list int) "fingerprint" [ 104; 12; 23; 46; 0 ]
    (Test_check.fingerprint r);
  check bool "crash points inside a backup checkpoint" true
    (r.mid_ckpt_points > 0)

(* A backup that acks before applying loses acked ops on failover. *)
let test_pair_sweep_detects_skip_replica_ack () =
  let r = pair_sweep Config.Skip_replica_ack_fence in
  check bool "acked-before-apply caught" true (r.violations <> []);
  check (list int) "fingerprint" [ 104; 12; 23; 46; 10 ]
    (Test_check.fingerprint r)

(* --- shipping at commit ----------------------------------------------- *)

(* A primary with one zero-latency slot, nobody acking (Async): creates
   commit at [base] + each of [commits_ns], and the messages the slot
   receives come back as their arrival - [base]. *)
let ship_run commits_ns =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let node = (make_nodes p pair_cfg 1).(0) in
  let data = Link.create p { Link.default_config with latency_ns = 0; gbps = 0. } in
  let ack = Link.create p Link.default_config in
  let base = ref 0 and staged = ref [] and got = ref [] in
  Sim.spawn sim "main" (fun () ->
      let st = Dstore.create p node.Group.pm node.Group.ssd pair_cfg in
      let pr = Primary.create p ~mode:Repl.Async ~epoch:1 st [| (1, data, ack, 0) |] in
      Sim.spawn sim "slot" (fun () ->
          try
            while true do
              ignore (Link.recv data);
              got := (Sim.now sim - !base) :: !got
            done
          with Link.Closed -> ());
      let ctx = Dstore.ds_init st in
      Primary.ocreate pr ctx "warm0";
      let t0 = Sim.now sim in
      Primary.ocreate pr ctx "warm1";
      let d = Sim.now sim - t0 in
      base := Sim.now sim + 20_000;
      List.iteri
        (fun i c ->
          Sim.spawn sim "writer" (fun () ->
              Sim.wait sim (!base + c - d - Sim.now sim);
              Primary.ocreate pr (Dstore.ds_init st) (Printf.sprintf "k%d" i);
              staged := (Sim.now sim - !base) :: !staged))
        commits_ns;
      (* The warm-up creates arrived well before [base]. *)
      Sim.wait sim (!base - Sim.now sim);
      got := [];
      Sim.wait sim 100_000;
      Primary.close_links pr;
      Dstore.stop st);
  Sim.run sim;
  check (list int) "entries committed at the planned instants" commits_ns
    (List.sort compare !staged);
  List.rev !got

let test_ship_at_commit () =
  check (list int) "one message per commit, sent at commit"
    [ 1_000; 4_000; 6_000 ] (ship_run [ 1_000; 4_000; 6_000 ])

(* --- payload early, order at commit ------------------------------------ *)

(* One Ack_all put over a 50 us link. The stage leaves before the local
   op, so the backup writes the payload while the primary runs it, and
   the ordering entry applies with no device time: the ack comes back in
   less than the local op, a round trip and one backup page write. *)
let test_stage_overlaps_backup_write () =
  let cfg = pair_cfg in
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let nodes = make_nodes p cfg 3 in
  let link_ns = 50_000 in
  let v = Bytes.make 4096 'v' in
  let local = ref 0 and acked = ref 0 in
  Sim.spawn sim "t" (fun () ->
      (* The local op alone, on a store of its own: the second of two puts. *)
      let st = Dstore.create p nodes.(2).Group.pm nodes.(2).Group.ssd cfg in
      let ctx = Dstore.ds_init st in
      Dstore.oput ctx "warm" v;
      let t0 = Sim.now sim in
      Dstore.oput ctx "k" v;
      local := Sim.now sim - t0;
      Dstore.stop st;
      let g =
        Group.create ~mode:Repl.Ack_all
          ~link:{ Link.default_config with latency_ns = link_ns }
          p cfg [| nodes.(0); nodes.(1) |]
      in
      let gc = Group.ds_init g in
      Group.oput gc "warm" v;
      let t0 = Sim.now sim in
      Group.oput gc "k" v;
      acked := Sim.now sim - t0;
      Group.stop g);
  Sim.run sim;
  let bound = !local + (2 * link_ns) + Ssd.default_config.Ssd.write_page_ns in
  check bool
    (Printf.sprintf "acked in %d ns, under local %d + 2 links + 1 page = %d"
       !acked !local bound)
    true (!acked < bound)

let prestaged b =
  Option.value ~default:(-1)
    (Dstore_obs.Metrics.value
       (Dstore.obs (Backup.store b)).Dstore_obs.Obs.metrics "repl.prestaged")

(* The primary dies after a put's stage reached both backups but before
   its ordering entry left. The claims it made there must go back: on
   the promoted node (which recovers) and on the survivor re-attached to
   it (which keeps its store), so both pass fsck's exact pool accounting,
   and the op, never acked, is nowhere. *)
let test_failover_mid_stage () =
  let cfg = pair_cfg in
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let nodes = make_nodes p cfg 3 in
  let old_v = Bytes.make 5000 'a' and new_v = Bytes.make 5000 'c' in
  Sim.spawn sim "t" (fun () ->
      let g = Group.create ~mode:Repl.Ack_all p cfg nodes in
      let ctx = Group.ds_init g in
      for i = 0 to 7 do
        Group.oput ctx (Printf.sprintf "k%d" i) old_v
      done;
      Group.quiesce g;
      let rseq = (Group.status g).Group.rseq in
      let outcome = ref None in
      Sim.spawn sim "writer" (fun () ->
          outcome :=
            Some
              (match Group.oput ctx "k0" (Bytes.make 5000 'b') with
              | () -> "acked"
              | exception Primary.Fenced -> "fenced"));
      (* One 5 us hop delivers the stage; the local op takes longer. *)
      Sim.wait sim 8_000;
      check int "the entry has not shipped" rseq (Group.status g).Group.rseq;
      List.iter
        (fun (j, b) ->
          check int (Printf.sprintf "node %d holds the stage" j) 1 (prestaged b))
        (Group.backups g);
      Group.kill_primary g;
      Group.promote g;
      Sim.wait sim 100_000;
      check (option string) "the writer was fenced" (Some "fenced") !outcome;
      let fsck_all what =
        check (list string) (what ^ ": promoted store") [] (Fsck.run (Group.store g));
        List.iter
          (fun (j, b) ->
            check int (Printf.sprintf "%s: node %d holds no stage" what j) 0
              (prestaged b);
            check (list string)
              (Printf.sprintf "%s: survivor node %d" what j)
              [] (Fsck.run (Backup.store b)))
          (Group.backups g)
      in
      Group.quiesce g;
      check int "a survivor re-attached" 1 (List.length (Group.backups g));
      fsck_all "after promote";
      (* Ids handed out again carry the new payloads, not a late write. *)
      for i = 0 to 7 do
        Group.oput ctx (Printf.sprintf "n%d" i) new_v
      done;
      Group.quiesce g;
      fsck_all "after new puts";
      check (option bytes) "the unacked put is nowhere" (Some old_v)
        (Group.oget ctx "k0");
      List.iter
        (fun (_, b) ->
          let bc = Dstore.ds_init (Backup.store b) in
          for i = 0 to 7 do
            check (option bytes) "survivor serves the new puts" (Some new_v)
              (Dstore.oget bc (Printf.sprintf "n%d" i))
          done)
        (Group.backups g);
      Group.stop g);
  Sim.run sim

(* A put whose stage has shipped raises on the primary (its device is
   smaller than the backup's): the primary sends a drop, and the backup
   gives the claims back instead of leaking them. A put with an over-long
   key raises on both nodes before anything is claimed. *)
let test_local_raise_drops_stage () =
  let bcfg = pair_cfg in
  let cfg = { pair_cfg with Config.ssd_blocks = 256 } in
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let nodes = [| (make_nodes p cfg 1).(0); (make_nodes p bcfg 1).(0) |] in
  Sim.spawn sim "t" (fun () ->
      let g = Group.create ~mode:Repl.Ack_all ~bcfg p cfg nodes in
      let ctx = Group.ds_init g in
      Group.oput ctx "a" (Bytes.make 64 'a');
      let raised =
        match Group.oput ctx "big" (Bytes.make (300 * 4096) 'x') with
        | () -> false
        | exception Dstore.Out_of_blocks -> true
      in
      check bool "the put raised on the primary" true raised;
      let rejected =
        match Group.oput ctx (String.make 5000 'k') (Bytes.make 64 'k') with
        | () -> false
        | exception Invalid_argument _ -> true
      in
      check bool "an over-long key raised on the primary" true rejected;
      Group.oput ctx "b" (Bytes.make 64 'b');
      Group.quiesce g;
      let b = List.assoc 1 (Group.backups g) in
      check int "no stage held" 0 (prestaged b);
      check (list string) "backup pools exact" [] (Fsck.run (Backup.store b));
      let bc = Dstore.ds_init (Backup.store b) in
      check (option bytes) "the raised put is not on the backup" None
        (Dstore.oget bc "big");
      check (option bytes) "the stream went on" (Some (Bytes.make 64 'b'))
        (Dstore.oget bc "b");
      Group.stop g);
  Sim.run sim

(* --- durability waits ------------------------------------------------- *)

(* One scenario's platform. [run] runs the scenario as a process to its
   end; [settle] blocks it until a condition holds; [pause] lets time
   pass. On [Real_platform] both fail after a deadline instead of
   hanging the suite. Completion instants are exact only in virtual
   time ([exact]). *)
type harness = {
  p : Platform.t;
  exact : bool;
  run : (unit -> unit) -> unit;
  settle : string -> (unit -> bool) -> unit;
  pause : unit -> unit;
}

let sim_harness () =
  let sim = Sim.create () in
  {
    p = Sim_platform.make sim;
    exact = true;
    run =
      (fun f ->
        Sim.spawn sim "main" f;
        Sim.run sim);
    settle =
      (fun what cond ->
        let deadline = Sim.now sim + Platform.ns_per_s in
        while not (cond ()) do
          if Sim.now sim > deadline then failf "%s: not within 1 s" what;
          Sim.wait sim 1_000
        done);
    pause = (fun () -> Sim.wait sim 10_000);
  }

let real_harness () =
  let rp = Real_platform.create ~parallelism:2 () in
  let p = Real_platform.platform rp in
  let within s what cond =
    let deadline = Unix.gettimeofday () +. s in
    while not (cond ()) do
      if Unix.gettimeofday () > deadline then failf "%s: not within %.0f s" what s;
      Thread.delay 0.001
    done
  in
  {
    p;
    exact = false;
    run =
      (fun f ->
        let result = Atomic.make None in
        p.Platform.spawn "main" (fun () ->
            Atomic.set result (Some (try Ok (f ()) with e -> Error e)));
        within 60.0 "scenario" (fun () -> Option.is_some (Atomic.get result));
        match Atomic.get result with
        | Some (Ok ()) -> Real_platform.join_all rp
        | Some (Error e) -> raise e
        | None -> assert false);
    settle = within 30.0;
    pause = (fun () -> Thread.delay 0.02);
  }

type outcome = Durable | Fenced_out

(* A primary over [slots] zero-latency slots that nobody serves: the
   scenario sends every ack itself, through [ack slot rseq]. The
   primary's own conds count how often a waiter parks and how often it
   resumes; [k] runs with the primary, the ack sender, the slot specs
   and the park count, and the fixture returns (parks, resumes). *)
let waits_fixture h ~mode ~slots k =
  let parks = Atomic.make 0 and resumes = Atomic.make 0 in
  let counting =
    {
      h.p with
      Platform.new_cond =
        (fun () ->
          let c = h.p.Platform.new_cond () in
          {
            c with
            Platform.wait =
              (fun m ->
                Atomic.incr parks;
                c.Platform.wait m;
                Atomic.incr resumes);
          });
    }
  in
  h.run (fun () ->
      let node = (make_nodes h.p pair_cfg 1).(0) in
      let st = Dstore.create h.p node.Group.pm node.Group.ssd pair_cfg in
      let instant = { Link.default_config with latency_ns = 0; gbps = 0. } in
      let specs =
        Array.init slots (fun i ->
            (i + 1, Link.create h.p instant, Link.create h.p instant, 0))
      in
      let pr = Primary.create counting ~mode ~epoch:1 st specs in
      let ack i rseq =
        let _, _, l, _ = specs.(i) in
        Link.send l { Repl.a_epoch = 1; a_rseq = rseq; a_ok = true }
      in
      k pr ack specs (fun () -> Atomic.get parks);
      Primary.close_links pr;
      Dstore.stop st);
  (Atomic.get parks, Atomic.get resumes)

(* Start [n] writers one at a time, so writer i's entry has rseq i, and
   wait until each is parked on its ack. [fin.(i)] becomes writer i's
   completion instant and outcome. *)
let park_writers h pr ~parked n =
  let fin = Array.make (n + 1) None in
  let st = Primary.store pr in
  for i = 1 to n do
    h.p.Platform.spawn "writer" (fun () ->
        let r =
          match
            Primary.oput pr (Dstore.ds_init st) (Printf.sprintf "w%d" i)
              (Bytes.make 16 'v')
          with
          | () -> Durable
          | exception Primary.Fenced -> Fenced_out
        in
        fin.(i) <- Some (h.p.Platform.now (), r));
    h.settle
      (Printf.sprintf "writer %d parks" i)
      (fun () -> Primary.rseq pr = i && parked () = i)
  done;
  fin

let finished fin =
  List.filter (fun i -> Option.is_some fin.(i)) (List.init (Array.length fin) Fun.id)

let instants fin = List.filter_map (Option.map fst) (Array.to_list fin)

let outcomes fin = List.filter_map (Option.map snd) (Array.to_list fin)

(* Send one ack, let the waiters it covers finish, and check that
   exactly [released] have. Returns the instant the ack was sent. *)
let ack_releases h fin ~send released =
  let at = h.p.Platform.now () in
  send ();
  let n = List.length released in
  h.settle
    (Printf.sprintf "%d waiters released" n)
    (fun () -> List.length (finished fin) >= n);
  h.pause ();
  check (list int) "released waiters" released (finished fin);
  at

let test_acks_release_in_order h () =
  let parks, resumes =
    waits_fixture h ~mode:Repl.Ack_all ~slots:1 (fun pr ack _ parked ->
        let fin = park_writers h pr ~parked 8 in
        let t1 = ack_releases h fin ~send:(fun () -> ack 0 3) [ 1; 2; 3 ] in
        let t2 =
          ack_releases h fin ~send:(fun () -> ack 0 8) [ 1; 2; 3; 4; 5; 6; 7; 8 ]
        in
        if h.exact then
          check (list int) "each waiter finishes at its ack's instant"
            [ t1; t1; t1; t2; t2; t2; t2; t2 ] (instants fin))
  in
  check int "one park per waiter" 8 parks;
  check int "no waiter resumed before its ack" 8 resumes

let test_ack_one_best_slot h () =
  let parks, resumes =
    waits_fixture h ~mode:Repl.Ack_one ~slots:2 (fun pr ack _ parked ->
        let fin = park_writers h pr ~parked 4 in
        let t1 = ack_releases h fin ~send:(fun () -> ack 1 1) [ 1 ] in
        let t2 = ack_releases h fin ~send:(fun () -> ack 0 3) [ 1; 2; 3 ] in
        let t3 = ack_releases h fin ~send:(fun () -> ack 1 4) [ 1; 2; 3; 4 ] in
        if h.exact then
          check (list int) "released by whichever slot is ahead"
            [ t1; t2; t2; t3 ] (instants fin))
  in
  check int "one park per waiter" 4 parks;
  check int "no waiter resumed before its ack" 4 resumes

(* A fence, a closed ack link and a detached slot each wake every
   waiter: the fenced ones raise, the others find no live slot left and
   return (the quorum is vacuously reached). *)
let test_wake_all h () =
  List.iter
    (fun (what, expect, event) ->
      let parks, resumes =
        waits_fixture h ~mode:Repl.Ack_all ~slots:1 (fun pr _ specs parked ->
            let fin = park_writers h pr ~parked 4 in
            let at = ack_releases h fin ~send:(fun () -> event pr specs) [ 1; 2; 3; 4 ] in
            check bool (what ^ ": outcomes") true
              (List.for_all (( = ) expect) (outcomes fin));
            if h.exact then
              check (list int) (what ^ ": all at once") [ at; at; at; at ] (instants fin))
      in
      check int (what ^ ": one park per waiter") 4 parks;
      check int (what ^ ": one resume per waiter") 4 resumes)
    [
      ("fence", Fenced_out, fun pr _ -> Primary.fence pr);
      ("closed link", Durable, fun _ specs ->
        let _, _, ack, _ = specs.(0) in
        Link.close ack);
      ("detach", Durable, fun pr _ -> Primary.detach_slot pr 1);
    ]

(* --- one entry per apply ------------------------------------------------ *)

(* Two deletes ship while the backup is not yet receiving, so both entries
   are in its apply queue before its apply loop first runs. Each is
   applied and acked on its own: the first writer's durability wait ends
   at the first entry's ack, before the second entry's apply is done. *)
let test_apply_acks_each_entry () =
  let cfg = pair_cfg in
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let nodes = make_nodes p cfg 2 in
  let fin = ref [] in
  Sim.spawn sim "t" (fun () ->
      let data = Link.create p Link.default_config in
      let ack = Link.create p Link.default_config in
      let bstore = Dstore.create p nodes.(1).Group.pm nodes.(1).Group.ssd cfg in
      let b = Backup.create p ~data ~ack ~epoch:1 bstore in
      let store = Dstore.create p nodes.(0).Group.pm nodes.(0).Group.ssd cfg in
      let pr = Primary.create p ~mode:Repl.Ack_all ~epoch:1 store [| (1, data, ack, 0) |] in
      List.iter
        (fun key ->
          Sim.spawn sim "writer" (fun () ->
              ignore (Primary.odelete pr (Dstore.ds_init store) key);
              fin := Sim.now sim :: !fin))
        [ "a"; "b" ];
      Sim.wait sim 100_000;
      check int "both entries shipped" 2 (Primary.rseq pr);
      check int "both entries delivered, none received" 2 (Link.pending data);
      Backup.start b;
      Sim.wait sim 100_000;
      check int "backup applied both" 2 (Backup.applied_rseq b);
      Primary.close_links pr;
      Backup.stop b;
      Dstore.stop store);
  Sim.run sim;
  match List.sort compare !fin with
  | [ first; second ] ->
      check bool
        (Printf.sprintf "first waiter released at %d ns, before the second at %d ns"
           first second)
        true (first < second)
  | l -> failf "%d of 2 writers finished" (List.length l)

let suite =
  [
    test_case "link: FIFO under jitter + bandwidth" `Quick
      test_link_fifo_under_jitter;
    test_case "link: drop model counts and keeps order" `Quick test_link_drop;
    test_case "link: close semantics" `Quick test_link_closed;
    test_case "ship: every commit ships at once" `Quick test_ship_at_commit;
    test_case "stage: backup writes the payload during the local op" `Quick
      test_stage_overlaps_backup_write;
    test_case "stage: failover between stage and entry leaks no claim" `Quick
      test_failover_mid_stage;
    test_case "stage: a put raising locally leaks no claim" `Quick
      test_local_raise_drops_stage;
    test_case "wait/sim: acks free just their waiters" `Quick
      (fun () -> test_acks_release_in_order (sim_harness ()) ());
    test_case "wait/threads: acks free just their waiters"
      `Quick (fun () -> test_acks_release_in_order (real_harness ()) ());
    test_case "wait/sim: ack-one frees on the best slot" `Quick
      (fun () -> test_ack_one_best_slot (sim_harness ()) ());
    test_case "wait/threads: ack-one frees on the best slot"
      `Quick (fun () -> test_ack_one_best_slot (real_harness ()) ());
    test_case "wait/sim: fence, close, detach wake all" `Quick
      (fun () -> test_wake_all (sim_harness ()) ());
    test_case "wait/threads: fence, close, detach wake all" `Quick
      (fun () -> test_wake_all (real_harness ()) ());
    test_case "fencing: stale-epoch ship rejected, primary self-fences" `Quick
      test_stale_epoch_ship_rejected;
    test_case "fencing: dead group raises, promote revives" `Quick
      test_group_fencing_and_promote;
    test_case "failover: every acked op served after promote" `Quick
      test_failover_round_trip;
    test_case "resync: snapshot carries the prefix, link ships the suffix"
      `Quick test_resync_ships_only_suffix;
    prop_promoted_backup_byte_identity;
    prop_resynced_backup_byte_identity;
    test_case "re-synced backup byte identity: pinned seeds" `Quick
      test_resynced_pinned_seeds;
    test_case "pair sweep: bounded strided sweep clean" `Quick
      test_pair_sweep_clean;
    test_case "pair sweep: detects skipped replica ack fence" `Quick
      test_pair_sweep_detects_skip_replica_ack;
    test_case "apply: each queued entry is acked as it applies" `Quick
      test_apply_acks_each_entry;
  ]
