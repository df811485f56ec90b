(* Cmdliner front-end for the crash-consistency model checker.

     dune exec bin/dstore_checker.exe -- sweep --ops 120 --seed 42
     dune exec bin/dstore_checker.exe -- sweep --fault skip-commit --expect-violations
     dune exec bin/dstore_checker.exe -- cluster --ops 80 --shards 2
     dune exec bin/dstore_checker.exe -- pair --ops 24 --resync
     dune exec bin/dstore_checker.exe -- selftest

   [sweep], [cluster] and [pair] explore every persistence event of a
   generated scenario on one store, a sharded cluster or a replicated
   pair, crashing, recovering and checking at each; each exits non-zero
   (and writes a JSON failure artifact) if the oracle or fsck reports a
   violation — unless --expect-violations, which inverts the exit status
   (used with --fault to demonstrate detection of injected protocol bugs).

   [selftest] is the acceptance gate: clean sweeps must pass and each
   fault-injected sweep must be caught. *)

open Cmdliner
open Dstore_core
open Dstore_check
module Repl = Dstore_repl.Repl
module Json = Dstore_obs.Json

(* Small store so checkpoints and log swaps trigger within a short
   scenario; mirrors the crash-test fixture in test/test_dstore.ml.
   [log_slots] is adjustable per case: the skip-dirty selftest needs a log
   small enough that several checkpoints fire, because a delta clone only
   consumes a dirty set recorded by the *previous* checkpoint's replay. *)
let check_cfg ?(log_slots = 512) ~clone fault =
  {
    Config.default with
    log_slots;
    ckpt_clone = clone;
    space_bytes = 4 * 1024 * 1024;
    meta_entries = 1024;
    ssd_blocks = 4096;
    checkpoint_workers = 2;
    (* Always sweep with the DRAM object cache on: small enough that
       eviction happens inside a scenario, so every crash point also
       exercises the read-path coherence story (and recovery-starts-cold,
       since the cache is volatile). *)
    cache_bytes = 256 * 1024;
    fault;
  }

(* Per-shard configuration for the cluster sweep: an even smaller log than
   [check_cfg] so each shard (seeing only ~1/N of the ops) still
   checkpoints inside a short scenario — the sweep must land crash points
   mid-checkpoint on the target shard. *)
let cluster_cfg ~clone fault =
  {
    Config.default with
    log_slots = 64;
    ckpt_clone = clone;
    space_bytes = 4 * 1024 * 1024;
    meta_entries = 1024;
    ssd_blocks = 2048;
    checkpoint_workers = 2;
    fault;
  }

(* Replicated-pair sweep config: a log small enough that the backup
   engine checkpoints inside a 24-op scenario, so the sweep lands crash
   points mid-checkpoint. *)
let pair_cfg ~clone fault =
  {
    Config.default with
    log_slots = 32;
    ckpt_clone = clone;
    space_bytes = 4 * 1024 * 1024;
    meta_entries = 1024;
    ssd_blocks = 2048;
    checkpoint_workers = 2;
    fault;
  }

(* Every injectable protocol bug: its flag name and what it breaks. *)
let faults =
  [
    ("none", Config.No_fault, "the unmutated engine");
    ("skip-commit", Config.Skip_commit_persist, "commit word never flushed");
    ( "skip-flush",
      Config.Skip_payload_flush,
      "payload lines of multi-slot records never flushed" );
    ( "skip-dirty",
      Config.Skip_dirty_track,
      "delta checkpoints lose the pages replay dirtied" );
    ( "skip-batch-commit",
      Config.Skip_batch_commit_fence,
      "group-commit words set but the batch's single persist pass skipped" );
    ( "skip-txn-commit",
      Config.Skip_txn_commit_record,
      "transaction commit record stored but never flushed" );
    ( "stale-cache-read",
      Config.Stale_cache_read,
      "DRAM cache serves reads but the write pipeline skips \
       invalidation/write-through" );
    ( "skip-replica-ack",
      Config.Skip_replica_ack_fence,
      "a backup acks a span before applying it; needs $(b,pair)" );
    ( "skip-resync-replay",
      Config.Skip_resync_journal_replay,
      "a re-synced backup skips the journal suffix shipped during its \
       snapshot transfer; needs $(b,pair --resync)" );
  ]

let fault_arg =
  let doc =
    "Injected protocol bug, on every engine: "
    ^ String.concat ", "
        (List.map (fun (n, _, d) -> Printf.sprintf "$(b,%s) (%s)" n d) faults)
    ^ "."
  in
  Arg.(
    value
    & opt (enum (List.map (fun (n, f, _) -> (n, f)) faults)) Config.No_fault
    & info [ "fault" ] ~docv:"FAULT" ~doc)

let clone_arg =
  Arg.(
    value
    & opt (enum [ ("full", Config.Full); ("delta", Config.Delta) ]) Config.Delta
    & info [ "clone" ] ~docv:"MODE"
        ~doc:
          "Checkpoint clone strategy swept: $(b,delta) (incremental, the \
           default) or $(b,full) (wholesale ablation baseline).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Scenario seed.")

let ops_arg default =
  Arg.(
    value & opt int default
    & info [ "ops" ] ~docv:"N" ~doc:"Generated operations per scenario.")

let subsets_arg default =
  Arg.(
    value & opt int default
    & info [ "subsets" ] ~docv:"N"
        ~doc:"Sampled adversarial eviction subsets per crash point.")

let stride_arg =
  Arg.(
    value & opt int 1
    & info [ "stride" ] ~docv:"K"
        ~doc:"Sweep every K-th persistence event (1 = exhaustive).")

let expect_arg =
  Arg.(
    value & flag
    & info [ "expect-violations" ]
        ~doc:"Exit 0 iff the sweep reports at least one violation.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Also write the report as JSON.")

let write_json path r =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.pretty (Explorer.report_json r));
      output_char oc '\n')

(* Run one sweep and print its summary and first violations. *)
let run_sweep ~seed ~n_ops ~subsets ~stride topology cfg =
  let progress ~done_ ~total =
    if done_ mod 25 = 0 || done_ = total then
      Printf.eprintf "\r  crash points: %d/%d%!" done_ total;
    if done_ = total then prerr_newline ()
  in
  let r =
    Explorer.sweep ~subsets ~stride ~progress ~seed ~n_ops topology cfg
  in
  let n = List.length r.Explorer.violations in
  Printf.printf
    "sweep (%s): seed=%d ops=%d events=%d (init %d) points=%d (mid-ckpt %d) \
     runs=%d violations=%d\n"
    (Explorer.topology_label topology)
    seed n_ops r.Explorer.total_events r.Explorer.init_events
    r.Explorer.crash_points r.Explorer.mid_ckpt_points r.Explorer.runs n;
  List.iteri
    (fun i v ->
      if i < 10 then
        Printf.printf "  [%s] event %d, %s: %s\n"
          (Explorer.source_label v.Explorer.source)
          v.Explorer.crash_event v.Explorer.mode v.Explorer.detail)
    r.Explorer.violations;
  if n > 10 then Printf.printf "  ... and %d more\n" (n - 10);
  r

(* Print the verdict; an unexpected outcome dumps the report to
   [artifact]. Returns whether the outcome was the expected one. *)
let verdict ~artifact ~expect r =
  let violated = r.Explorer.violations <> [] in
  if violated <> expect then begin
    write_json artifact r;
    Printf.printf "failure artifact written to %s\n" artifact
  end;
  if r.Explorer.mid_ckpt_points = 0 && not expect then
    print_endline
      "warning: no crash point landed mid-checkpoint on the target node \
       (scenario too small?)";
  print_endline
    (match (violated, expect) with
    | false, false -> "PASS: no oracle or fsck violations"
    | true, true -> "PASS: injected fault detected"
    | true, false -> "FAIL: violations on the unmutated engine"
    | false, true -> "FAIL: injected fault went undetected");
  violated = expect

(* A sweep subcommand: [setup] is a term that, given the scenario length,
   yields the topology and engine configuration to sweep. *)
let sweep_cmd name ~doc ~artifact ~ops ~subsets setup =
  let run setup seed ops subsets stride expect json =
    let topology, cfg = setup ops in
    let r = run_sweep ~seed ~n_ops:ops ~subsets ~stride topology cfg in
    Option.iter (fun path -> write_json path r) json;
    if verdict ~artifact ~expect r then 0 else 1
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ setup $ seed_arg $ ops_arg ops $ subsets_arg subsets
      $ stride_arg $ expect_arg $ json_arg)

let single_cmd =
  let log_slots =
    Arg.(
      value & opt int 512
      & info [ "log-slots" ] ~docv:"N" ~doc:"Log capacity of the scenario store.")
  in
  let setup clone log_slots fault _ =
    (Explorer.Single, check_cfg ~log_slots ~clone fault)
  in
  sweep_cmd "sweep" ~artifact:"CHECK_FAIL.json" ~ops:120 ~subsets:3
    ~doc:"Exhaustive crash-point sweep of one generated scenario."
    Term.(const setup $ clone_arg $ log_slots $ fault_arg)

let cluster_cmd =
  let shards =
    Arg.(
      value & opt int 2
      & info [ "shards" ] ~docv:"N" ~doc:"Shards in the cluster.")
  in
  let target =
    Arg.(
      value & opt int 0
      & info [ "target" ] ~docv:"I"
          ~doc:"Shard whose persistence events index the crash points.")
  in
  let no_stagger =
    Arg.(
      value & flag
      & info [ "no-stagger" ]
          ~doc:"Disable staggered checkpoint scheduling for the sweep.")
  in
  let setup shards target no_stagger clone fault _ =
    let policy =
      if no_stagger then Dstore_shard.Cluster.no_stagger
      else Dstore_shard.Cluster.staggered
    in
    (Explorer.Cluster { shards; policy; target }, cluster_cfg ~clone fault)
  in
  sweep_cmd "cluster" ~artifact:"CHECK_SHARD_FAIL.json" ~ops:80 ~subsets:1
    ~doc:
      "Whole-cluster crash-point sweep: crash one shard mid-checkpoint, \
       power-fail the rest, recover all shards, check oracle + per-shard \
       fsck."
    Term.(const setup $ shards $ target $ no_stagger $ clone_arg $ fault_arg)

(* A pair over an [n]-op scenario. The default resync drill kills the
   backup early, starts the transfer with a third of the ops still to come
   (they are the window suffix), and rejoins with a third left to sample
   the recovered backup. *)
let pair_topology ~resync ~mode ~latency ~target n =
  let story =
    if resync then
      Explorer.Resync
        {
          kill_at = max 1 (n / 6);
          resync_at = max 2 (n / 3);
          join_at = 2 * n / 3;
        }
    else Explorer.Steady
  in
  Explorer.Pair { mode; link_latency_ns = latency; story; target }

let pair_cmd =
  let durability_conv =
    let parse s =
      match Repl.durability_of_string s with
      | Some d -> Ok d
      | None -> Error (`Msg (Printf.sprintf "unknown durability %S" s))
    in
    let print fmt d = Format.pp_print_string fmt (Repl.durability_name d) in
    Arg.conv (parse, print)
  in
  let mode =
    Arg.(
      value
      & opt durability_conv Repl.Ack_all
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Replication durability swept: $(b,ack-one) or $(b,ack-all) \
             ($(b,async) makes no backup promise and is rejected).")
  in
  let latency =
    Arg.(
      value & opt int 1_000
      & info [ "latency-ns" ] ~docv:"NS" ~doc:"One-way link latency.")
  in
  let target =
    Arg.(
      value & opt int 1
      & info [ "target" ] ~docv:"I"
          ~doc:
            "Node whose persistence events index the crash points: 0 = \
             primary, 1 = backup (default — where the replicated-durability \
             windows live).")
  in
  let resync =
    Arg.(
      value & flag
      & info [ "resync" ]
          ~doc:
            "Overlay the kill/re-sync drill: the backup is killed early in \
             the scenario, re-synced via snapshot stream while writes \
             continue, and rejoined — crash points then also land \
             mid-transfer and mid-install, and the failover check follows \
             the primary's slot state ($(b,backup_ready)).")
  in
  let setup mode latency target resync clone fault n =
    (pair_topology ~resync ~mode ~latency ~target n, pair_cfg ~clone fault)
  in
  sweep_cmd "pair" ~artifact:"CHECK_PAIR_FAIL.json" ~ops:40 ~subsets:1
    ~doc:
      "Whole-pair crash-point sweep of a replicated primary-backup \
       deployment: crash both nodes at each swept event, then check both \
       the promoted-backup state and the restarted-primary state against \
       the oracle."
    Term.(
      const setup $ mode $ latency $ target $ resync $ clone_arg $ fault_arg)

let selftest_cmd =
  let run seed ops subsets =
    let single ?(clone = Config.Delta) ?log_slots ?(seed = seed) name fault
        expect =
      ( name,
        expect,
        fun () ->
          run_sweep ~seed ~n_ops:ops ~subsets ~stride:1 Explorer.Single
            (check_cfg ?log_slots ~clone fault) )
    in
    (* Each pair crash point replays a whole two-engine pair: smaller
       scenario, one eviction subset. *)
    let pair ?(resync = false) ?(stride = 1) name fault expect =
      let n_ops = max 24 (ops / 5) in
      ( name,
        expect,
        fun () ->
          run_sweep ~seed ~n_ops ~subsets:1 ~stride
            (pair_topology ~resync ~mode:Repl.Ack_all ~latency:1_000 ~target:1
               n_ops)
            (pair_cfg ~clone:Config.Delta fault) )
    in
    let cases =
      [
        single "clean" Config.No_fault false;
        single "clean-fullclone" ~clone:Config.Full Config.No_fault false;
        single "skip-commit" Config.Skip_commit_persist true;
        single "skip-flush" Config.Skip_payload_flush true;
        (* Group commit: all commit words of a batch are set but never
           persisted as a unit — a crash right after the batched call
           returns can drop an acknowledged op. *)
        single "skip-batch-commit" Config.Skip_batch_commit_fence true;
        (* OCC transactions: the commit record's LSN word is stored but
           never flushed, so a checkpoint replay (memory image) sees the
           span committed while a power failure drops it wholesale — an
           acknowledged transaction evaporates. The oracle's
           all-or-nothing clause catches the acked-then-vanished span. *)
        single "skip-txn-commit" Config.Skip_txn_commit_record true;
        (* A 96-slot log checkpoints every ~30 ops, so the scenario runs
           several delta clones — the second one is the first that can
           miss the untracked dirt. *)
        single "skip-dirty" ~log_slots:96 Config.Skip_dirty_track true;
        (* DRAM cache coherence: the mutated pipeline keeps serving
           cached values but never invalidates or write-throughs them, so
           an overwrite of a cached key leaves the old value live — caught
           by the explorer's live-read check in the very run where it
           happens (a volatile bug: crash recovery alone would hide it,
           since the cache restarts cold). Pinned seed: the detection
           needs a read of a key that is later overwritten and read again,
           and the default seed's 120-op stream never produces that
           shape. *)
        single "stale-cache-read" ~seed:7 Config.Stale_cache_read true;
        (* Replicated pair: the clean protocol keeps every acked op on the
           backup through whole-pair crashes; acking before the apply
           (skip-replica-ack) does not. *)
        pair "pair-clean" Config.No_fault false;
        pair "pair-skip-replica-ack" Config.Skip_replica_ack_fence true;
        (* Laggard catch-up: the kill/re-sync drill must stay clean —
           crash points land mid-snapshot-transfer and mid-install, and
           the rejoined backup must hold every acked op — while the
           transfer-window mutation (the re-synced backup seeds its
           applied watermark past the suffix shipped during the transfer,
           silently dropping it) must be caught by the same byte-level
           oracle. Strided: each crash point replays the whole drill
           including the snapshot stream. *)
        pair ~resync:true ~stride:2 "pair-resync-clean" Config.No_fault false;
        pair ~resync:true ~stride:2 "pair-skip-resync-replay"
          Config.Skip_resync_journal_replay true;
      ]
    in
    let results =
      List.map
        (fun (name, expect, sweep) ->
          Printf.printf "--- %s\n%!" name;
          let artifact = Printf.sprintf "CHECK_FAIL_%s.json" name in
          let ok = verdict ~artifact ~expect (sweep ()) in
          Printf.printf "%s: %s\n" (if ok then "ok" else "FAIL") name;
          ok)
        cases
    in
    if List.for_all Fun.id results then begin
      print_endline "SELFTEST PASS";
      0
    end
    else begin
      print_endline "SELFTEST FAIL";
      1
    end
  in
  Cmd.v
    (Cmd.info "selftest"
       ~doc:
         "Acceptance gate: clean sweeps pass, each injected fault is \
          detected.")
    Term.(const run $ seed_arg $ ops_arg 120 $ subsets_arg 3)

let () =
  let info =
    Cmd.info "dstore_check" ~version:"1.0"
      ~doc:"Crash-consistency model checker for the DStore reproduction."
  in
  exit
    (Cmd.eval'
       (Cmd.group info [ single_cmd; cluster_cmd; pair_cmd; selftest_cmd ]))
