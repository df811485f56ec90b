(* Interactive DStore shell on simulated devices: drive the Table 2 API
   against a (possibly sharded) cluster, force checkpoints, power-fail the
   whole machine, and recover — all from a command stream. Useful for
   poking at crash consistency by hand.

     dune exec bin/dstore_cli.exe
     dune exec bin/dstore_cli.exe -- --shards 4
     echo "put k hello\nget k\ncrash\nrecover\nget k\nquit" | dune exec bin/dstore_cli.exe

   Flags:
     --shards N        shards in the cluster (default 1)
     --batch N         group-commit batch size (default 1 = per-op commit)
     --cache-mb N      DRAM object-cache budget, split evenly across shards
                       (default 0 = cache off)
     --backups N       run the REPLICATED shell instead: a primary plus N
                       backup engines with log shipping over simulated links
     --repl MODE       replication durability: async, ack-one, ack-all
                       (default ack-all; only with --backups)
     --latency-ns N    one-way link latency (default 5000; only with --backups)
     --apply-depth N   backup apply-queue depth (1 = serial apply; only
                       with --backups)

   Replicated-shell commands (with --backups):
     put/get/del/list/checkpoint as below, plus
     repl status       epoch, durability mode, rseq, and per backup: slot
                       state, shipped, acked, applied, lag
     kill-primary      abrupt primary loss: power-fail its PMEM and fence it;
                       ops fail until promote
     kill-backup N     abrupt backup loss: power-fail node N's PMEM, mark its
                       slot dead (it stops gating the quorum), detach it
     promote           seal the epoch and fail over to the most-applied backup
                       (replays its log via the recovery path); laggard
                       survivors are re-synced automatically
     repl resync N     stream a checkpoint-consistent snapshot to detached
                       node N and re-attach it (Syncing until caught up)

   Commands:
     put KEY VALUE     store an object (routed to its owning shard)
     get KEY           fetch an object
     del KEY           delete an object
     batch N           set the group-commit batch size: with N > 1, put/del
                       are staged and committed together (one fence per
                       group) once N are pending; any other command — or
                       `batch 1` — flushes the stage first
     txn begin         open an OCC transaction; it binds to the shard its
                       first key routes to, and later keys on other shards
                       are rejected (transactions are single-shard)
     txn get KEY       read inside the transaction (read-your-own-writes;
                       records the key's version for commit validation)
     txn put KEY VALUE buffer a write (invisible until commit)
     txn del KEY       buffer a delete
     txn commit        OCC-validate the read-set and append the write-set
                       as one all-or-nothing log span; prints `aborted:`
                       with the conflicting key if validation fails
     txn abort         discard the open transaction
     list              object names in global order
     checkpoint        force a checkpoint on every shard
     ckpt              force a checkpoint and print per-shard clone mode,
                       bytes copied vs skipped, and per-phase timings
     shards            per-shard status: log fill, checkpoint state, footprint
     stats             engine statistics summed across shards
     metrics           aggregate metrics registry (shard<i>.* namespaced)
     tail              tail-latency attribution report over all recorded
                       spans (merged across shards): >=p99 / >=p9999 mass
                       decomposed by blame cause
     spans [N]         last N finished spans (ops, checkpoints, recoveries)
                       with per-segment timings and blame intervals
                       (default 20)
     footprint         DRAM/PMEM/SSD usage summed across shards
     cache             DRAM object-cache statistics summed across shards
     cache-clear       drop every cached object (volatile state only;
                       counters are kept so hit rates stay comparable)
     check             structural fsck of every shard + root verification
     crash             whole-machine power loss with random cache-line loss
     recover           recover every shard from the devices
     quit *)

open Dstore_platform
open Dstore_pmem
open Dstore_ssd
open Dstore_core
open Dstore_shard
open Dstore_util
module Obs = Dstore_obs.Obs
module Metrics = Dstore_obs.Metrics
module Span = Dstore_obs.Span

(* A ref: --cache-mb rewrites it before the session starts, and recovery
   (both shells) re-opens stores with whatever the session settled on. *)
let cfg =
  ref
    {
      Config.default with
      space_bytes = 8 * 1024 * 1024;
      meta_entries = 4096;
      ssd_blocks = 16384;
      log_slots = 1024;
    }

(* An interactive transaction: bound lazily to the shard its first key
   routes to (a txn is single-shard by construction — see Cluster.txn);
   later keys on other shards are rejected without touching the handle. *)
type txn_state = { mutable bound : (int * Dstore_txn.t) option }

type session = {
  sim : Sim.t;
  platform : Platform.t;
  nodes : Cluster.node array;
  obs : Obs.t;  (* session-owned: spans survive crash/recover *)
  mutable cluster : Cluster.t option;
  mutable ctx : Cluster.ctx option;
  mutable batch : int;  (* group-commit size: 1 = classic per-op commit *)
  mutable staged : Dstore.batch_op list;  (* newest first *)
  mutable txn : txn_state option;  (* open interactive transaction *)
  rng : Rng.t;
}

(* A single-shard shell shares the session handle with the store itself,
   so `spans` keeps showing pre-crash spans across crash/recover;
   multi-shard stores keep their own recorders. *)
let shard_obs s i =
  if Array.length s.nodes = 1 && i = 0 then Some s.obs else None

(* Run one store operation inside the simulator and drain it. *)
let exec s f =
  Sim.spawn s.sim "cli" (fun () -> f ());
  Sim.run s.sim

let ctx s = Option.get s.ctx

let cluster s = Option.get s.cluster

(* Commit whatever the shell has staged as one group. Staged ops are not
   acknowledged until this returns — exactly the batch contract. *)
let flush_staged s =
  match s.staged with
  | [] -> ()
  | staged when s.cluster <> None ->
      let ops = List.rev staged in
      s.staged <- [];
      exec s (fun () ->
          let res = Cluster.obatch (ctx s) ops in
          let applied = List.length (List.filter Fun.id res) in
          Printf.printf "group-committed %d op%s (%d applied, t=%d ns)\n"
            (List.length ops)
            (if List.length ops = 1 then "" else "s")
            applied (Sim.now s.sim))
  | _ ->
      (* Crashed with ops staged: they were never acknowledged. *)
      Printf.printf "(%d staged op%s discarded by the crash — never acked)\n"
        (List.length s.staged)
        (if List.length s.staged = 1 then "" else "s");
      s.staged <- []

let stage s op =
  s.staged <- op :: s.staged;
  let n = List.length s.staged in
  Printf.printf "staged (%d/%d pending)\n" n s.batch;
  if n >= s.batch then flush_staged s

(* Resolve the handle for a keyed txn command, binding the open
   transaction to the key's shard on first use. Later keys that route
   elsewhere are rejected here — the same single-shard rule Cluster.txn
   enforces up front. *)
let txn_bind s key =
  match s.txn with
  | None -> Error "no open transaction (txn begin first)"
  | Some st -> (
      let c = cluster s in
      let shard = Cluster.shard_of c key in
      match st.bound with
      | Some (i, tx) when i = shard -> Ok tx
      | Some (i, _) ->
          Error
            (Printf.sprintf
               "cross-shard: %S routes to shard %d but this transaction is \
                bound to shard %d (transactions are single-shard)"
               key shard i)
      | None ->
          let tx =
            Dstore_txn.create (Dstore.ds_init (Cluster.shard_store c shard))
          in
          st.bound <- Some (shard, tx);
          Ok tx)

let handle s line =
  let words = String.split_on_char ' ' (String.trim line) in
  (* Any command other than a staging put/del acts on the real store, so
     the pending group commits first. *)
  (match words with
  | ("put" | "del") :: _ when s.batch > 1 -> ()
  | _ -> flush_staged s);
  match words with
  | [ "" ] -> ()
  | "put" :: key :: rest when rest <> [] && s.batch > 1 ->
      stage s (Dstore.Bput (key, Bytes.of_string (String.concat " " rest)))
  | [ "del"; key ] when s.batch > 1 -> stage s (Dstore.Bdelete key)
  | [ "put"; key; value ] ->
      exec s (fun () -> Cluster.oput (ctx s) key (Bytes.of_string value));
      Printf.printf "ok (shard %d, t=%d ns)\n"
        (Cluster.shard_of (cluster s) key)
        (Sim.now s.sim)
  | "put" :: key :: rest when rest <> [] ->
      let value = String.concat " " rest in
      exec s (fun () -> Cluster.oput (ctx s) key (Bytes.of_string value));
      Printf.printf "ok (shard %d, t=%d ns)\n"
        (Cluster.shard_of (cluster s) key)
        (Sim.now s.sim)
  | [ "batch"; n ] when int_of_string_opt n <> None ->
      let n = int_of_string n in
      if n < 1 then print_endline "batch size must be >= 1"
      else begin
        s.batch <- n;
        if n = 1 then print_endline "group commit off (per-op commit)"
        else
          Printf.printf
            "group commit on: put/del stage and commit in groups of %d\n" n
      end
  | [ "get"; key ] ->
      exec s (fun () ->
          match Cluster.oget (ctx s) key with
          | Some v -> Printf.printf "%S\n" (Bytes.to_string v)
          | None -> print_endline "(not found)")
  | [ "del"; key ] ->
      exec s (fun () ->
          Printf.printf "%s\n"
            (if Cluster.odelete (ctx s) key then "deleted" else "(not found)"))
  | [ "txn"; "begin" ] ->
      if s.txn <> None then print_endline "transaction already open"
      else begin
        s.txn <- Some { bound = None };
        print_endline "txn open (binds to its first key's shard)"
      end
  | [ "txn"; "get"; key ] -> (
      match txn_bind s key with
      | Error e -> print_endline e
      | Ok tx ->
          exec s (fun () ->
              match Dstore_txn.get tx key with
              | Some v -> Printf.printf "%S\n" (Bytes.to_string v)
              | None -> print_endline "(not found)"))
  | "txn" :: "put" :: key :: rest when rest <> [] -> (
      match txn_bind s key with
      | Error e -> print_endline e
      | Ok tx ->
          Dstore_txn.put tx key (Bytes.of_string (String.concat " " rest));
          print_endline "buffered (visible at commit)")
  | [ "txn"; "del"; key ] -> (
      match txn_bind s key with
      | Error e -> print_endline e
      | Ok tx ->
          Dstore_txn.delete tx key;
          print_endline "buffered (visible at commit)")
  | [ "txn"; "commit" ] -> (
      match s.txn with
      | None -> print_endline "no open transaction (txn begin first)"
      | Some { bound = None } ->
          s.txn <- None;
          print_endline "ok (empty transaction)"
      | Some { bound = Some (i, tx) } ->
          s.txn <- None;
          exec s (fun () ->
              match Dstore_txn.commit tx with
              | Ok () ->
                  Printf.printf "committed (shard %d, t=%d ns)\n" i
                    (Sim.now s.sim)
              | Error r ->
                  Printf.printf "aborted: %s\n" (Dstore_txn.pp_abort r)))
  | [ "txn"; "abort" ] -> (
      match s.txn with
      | None -> print_endline "no open transaction"
      | Some st ->
          (match st.bound with
          | Some (_, tx) -> Dstore_txn.abort tx
          | None -> ());
          s.txn <- None;
          print_endline "aborted (buffered writes discarded)")
  | [ "list" ] ->
      exec s (fun () -> Cluster.iter_names (cluster s) print_endline);
      Printf.printf "(%d objects on %d shards)\n"
        (Cluster.object_count (cluster s))
        (Cluster.shard_count (cluster s))
  | [ "checkpoint" ] ->
      exec s (fun () -> Cluster.checkpoint_now (cluster s));
      print_endline "checkpoint complete (all shards)"
  | [ "ckpt" ] ->
      (* Force one checkpoint and report what the clone phase actually did,
         per shard, by diffing engine stats around it. *)
      let c = cluster s in
      let n = Cluster.shard_count c in
      (* [Dipper.stats] exposes the live mutable record, so copy the fields
         of interest out before diffing. *)
      let snap () =
        Array.init n (fun i ->
            let st = Dipper.stats (Dstore.engine (Cluster.shard_store c i)) in
            [|
              st.Dipper.ckpt_delta_clones; st.Dipper.ckpt_full_clones;
              st.Dipper.ckpt_bytes_cloned; st.Dipper.ckpt_bytes_skipped;
              st.Dipper.ckpt_archive_ns; st.Dipper.ckpt_clone_ns;
              st.Dipper.ckpt_replay_ns; st.Dipper.ckpt_persist_ns;
              st.Dipper.ckpt_publish_ns;
            |])
      in
      let before = snap () in
      exec s (fun () -> Cluster.checkpoint_now c);
      let after = snap () in
      let t =
        Tablefmt.create
          [ "shard"; "clone"; "copied"; "skipped"; "archive"; "clone ns";
            "replay"; "persist"; "publish" ]
      in
      for i = 0 to n - 1 do
        let d j = after.(i).(j) - before.(i).(j) in
        let mode =
          if d 0 > 0 then "delta" else if d 1 > 0 then "full" else "-"
        in
        let ns j = Printf.sprintf "%d ns" (d j) in
        Tablefmt.row t
          [
            string_of_int i;
            mode;
            Tablefmt.bytes (d 2);
            Tablefmt.bytes (d 3);
            ns 4; ns 5; ns 6; ns 7; ns 8;
          ]
      done;
      Tablefmt.print t;
      let batches = ref 0 and brecords = ref 0 in
      for i = 0 to n - 1 do
        let st = Dipper.stats (Dstore.engine (Cluster.shard_store c i)) in
        batches := !batches + st.Dipper.batches_committed;
        brecords := !brecords + st.Dipper.batch_records
      done;
      Printf.printf "group commit: %d batches, %d records (avg fill %.1f)\n"
        !batches !brecords
        (if !batches = 0 then 0.0
         else float_of_int !brecords /. float_of_int !batches)
  | [ "shards" ] ->
      let c = cluster s in
      let t =
        Tablefmt.create
          [ "shard"; "log fill"; "ckpt"; "objects"; "dram"; "pmem"; "ssd" ]
      in
      for i = 0 to Cluster.shard_count c - 1 do
        let st = Cluster.shard_store c i in
        let f = Dstore.footprint st in
        Tablefmt.row t
          [
            string_of_int i;
            Printf.sprintf "%3.0f%%" (100.0 *. Cluster.log_fill c i);
            (if Cluster.is_checkpoint_running c i then "running" else "idle");
            string_of_int (Dstore.object_count st);
            Tablefmt.bytes f.Dstore.dram;
            Tablefmt.bytes f.Dstore.pmem;
            Tablefmt.bytes f.Dstore.ssd;
          ]
      done;
      Tablefmt.print t;
      let active = ref 0 in
      for i = 0 to Cluster.shard_count c - 1 do
        if Cluster.is_checkpoint_running c i then incr active
      done;
      Printf.printf "checkpoints active now: %d\n" !active
  | [ "stats" ] ->
      let c = cluster s in
      let sum f =
        let acc = ref 0 in
        for i = 0 to Cluster.shard_count c - 1 do
          acc := !acc + f (Dipper.stats (Dstore.engine (Cluster.shard_store c i)))
        done;
        !acc
      in
      Printf.printf
        "records appended: %d, checkpoints: %d, replayed: %d, moved: %d,\n\
         conflict waits: %d, log-full stalls: %d,\n\
         batches committed: %d, batched records: %d,\n\
         txns committed: %d, txns aborted: %d, txn member records: %d\n"
        (sum (fun st -> st.Dipper.records_appended))
        (sum (fun st -> st.Dipper.checkpoints))
        (sum (fun st -> st.Dipper.records_replayed))
        (sum (fun st -> st.Dipper.records_moved))
        (sum (fun st -> st.Dipper.conflict_waits))
        (sum (fun st -> st.Dipper.log_full_stalls))
        (sum (fun st -> st.Dipper.batches_committed))
        (sum (fun st -> st.Dipper.batch_records))
        (sum (fun st -> st.Dipper.txns_committed))
        (sum (fun st -> st.Dipper.txns_aborted))
        (sum (fun st -> st.Dipper.txn_member_records))
  | [ "metrics" ] -> Metrics.print (Cluster.aggregate_metrics (cluster s))
  | [ "tail" ] -> Span.print_report (Cluster.tail_recorder (cluster s))
  | [ "spans" ] -> Span.print_spans ~n:20 (Cluster.tail_recorder (cluster s))
  | [ "spans"; n ] when int_of_string_opt n <> None ->
      Span.print_spans ~n:(int_of_string n) (Cluster.tail_recorder (cluster s))
  | [ "footprint" ] ->
      let f = Cluster.footprint (cluster s) in
      Printf.printf "dram=%s pmem=%s ssd=%s\n"
        (Tablefmt.bytes f.Dstore.dram)
        (Tablefmt.bytes f.Dstore.pmem)
        (Tablefmt.bytes f.Dstore.ssd)
  | [ "cache" ] -> (
      match Cluster.cache_stats (cluster s) with
      | None -> print_endline "(cache disabled: start with --cache-mb N)"
      | Some st ->
          let module C = Dstore_cache.Cache in
          let looked = st.C.hits + st.C.misses in
          Printf.printf
            "budget=%s resident=%s entries=%d\n\
             hits=%d misses=%d hit-rate=%s\n\
             fills=%d evictions=%d invalidations=%d recycled=%d\n"
            (Tablefmt.bytes st.C.budget) (Tablefmt.bytes st.C.bytes)
            st.C.entries st.C.hits st.C.misses
            (if looked = 0 then "n/a"
             else
               Printf.sprintf "%.1f%%"
                 (100.0 *. float_of_int st.C.hits /. float_of_int looked))
            st.C.fills st.C.evictions st.C.invalidations st.C.recycled)
  | [ "cache-clear" ] ->
      Cluster.cache_clear (cluster s);
      print_endline "cache dropped on every shard (counters kept)"
  | [ "check" ] ->
      exec s (fun () ->
          let c = cluster s in
          let bad = ref (Cluster.verify_roots c) in
          for i = 0 to Cluster.shard_count c - 1 do
            bad :=
              !bad
              @ List.map
                  (Printf.sprintf "shard%d: %s" i)
                  (Dstore_check.Fsck.run (Cluster.shard_store c i))
          done;
          match !bad with
          | [] -> print_endline "fsck clean (all shards)"
          | bad ->
              List.iter (fun m -> Printf.printf "VIOLATION: %s\n" m) bad;
              Printf.printf "(%d violations)\n" (List.length bad))
  | [ "crash" ] ->
      (match s.txn with
      | Some _ ->
          s.txn <- None;
          print_endline
            "(open transaction discarded by the crash — never committed)"
      | None -> ());
      Cluster.crash (cluster s) (fun _ -> Pmem.Random (Rng.split s.rng));
      Sim.clear_pending s.sim;
      s.cluster <- None;
      s.ctx <- None;
      print_endline
        "CRASH: volatile state gone on every shard, unflushed lines torn"
  | [ "recover" ] ->
      exec s (fun () ->
          let c =
            Cluster.recover ~obs:s.obs ~shard_obs:(shard_obs s) s.platform
              !cfg s.nodes
          in
          s.cluster <- Some c;
          s.ctx <- Some (Cluster.ds_init c);
          let replayed = ref 0 in
          for i = 0 to Cluster.shard_count c - 1 do
            replayed :=
              !replayed
              + (Dipper.stats (Dstore.engine (Cluster.shard_store c i)))
                  .Dipper.recovery_replayed_records
          done;
          Printf.printf "recovered: %d objects on %d shards, replayed %d records\n"
            (Cluster.object_count c) (Cluster.shard_count c) !replayed)
  | [ "quit" ] | [ "exit" ] -> raise Exit
  | _ ->
      print_endline
        "unknown command (put/get/del/batch/txn/list/checkpoint/ckpt/shards/\n\
         stats/metrics/tail/spans/footprint/cache/cache-clear/check/crash/\n\
         recover/quit; txn subcommands: begin/get/put/del/commit/abort)"

(* --- Replicated shell (with --backups) ------------------------------------ *)

module Repl = Dstore_repl.Repl
module Group = Dstore_repl.Group
module Primary = Dstore_repl.Primary

type rsession = {
  rsim : Sim.t;
  rgroup : Group.t;
  rctx : Group.ctx;  (* re-binds to the new primary transparently *)
}

(* Fenced is an expected answer at this shell (after kill-primary), not a
   crash: report it and keep the loop alive. *)
let repl_exec s f =
  Sim.spawn s.rsim "cli" (fun () ->
      try f ()
      with Primary.Fenced ->
        print_endline "(primary fenced/dead: 'promote' to fail over)");
  Sim.run s.rsim

let repl_status s =
  let st = Group.status s.rgroup in
  Printf.printf "epoch %d, mode %s, primary %s, rseq %d\n"
    st.Group.epoch_
    (Repl.durability_name st.Group.mode_)
    (if st.Group.alive then Printf.sprintf "node%d" st.Group.primary_
     else "DEAD (promote to fail over)")
    st.Group.rseq;
  (match Group.detached s.rgroup with
  | [] -> ()
  | ds ->
      Printf.printf "detached (resync to rejoin): %s\n"
        (String.concat ", "
           (List.map (Printf.sprintf "node%d") (List.sort compare ds))));
  match st.Group.lines with
  | [] -> print_endline "(no attached backups)"
  | lines ->
      let t =
        Tablefmt.create
          [ "backup"; "state"; "shipped"; "acked"; "applied"; "lag"; "in flight" ]
      in
      List.iter
        (fun (l : Group.backup_line) ->
          Tablefmt.row t
            [
              Printf.sprintf "node%d" l.Group.node;
              Primary.slot_state_name l.Group.state;
              string_of_int l.Group.shipped;
              string_of_int l.Group.acked;
              string_of_int l.Group.applied;
              string_of_int l.Group.lag;
              string_of_int l.Group.link_pending;
            ])
        lines;
      Tablefmt.print t

let repl_handle s line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "" ] -> ()
  | "put" :: key :: rest when rest <> [] ->
      let value = String.concat " " rest in
      repl_exec s (fun () ->
          Group.oput s.rctx key (Bytes.of_string value);
          Printf.printf "ok (replicated, t=%d ns)\n" (Sim.now s.rsim))
  | [ "get"; key ] ->
      repl_exec s (fun () ->
          match Group.oget s.rctx key with
          | Some v -> Printf.printf "%S\n" (Bytes.to_string v)
          | None -> print_endline "(not found)")
  | [ "del"; key ] ->
      repl_exec s (fun () ->
          Printf.printf "%s\n"
            (if Group.odelete s.rctx key then "deleted" else "(not found)"))
  | [ "list" ] ->
      if Group.primary_alive s.rgroup then begin
        repl_exec s (fun () -> Group.iter_names s.rgroup print_endline);
        Printf.printf "(%d objects)\n" (Group.object_count s.rgroup)
      end
      else print_endline "(primary dead: 'promote' first)"
  | [ "checkpoint" ] ->
      repl_exec s (fun () ->
          Group.checkpoint_now s.rgroup;
          print_endline "checkpoint complete (primary)")
  | [ "repl"; "status" ] | [ "status" ] -> repl_status s
  | [ "kill-primary" ] ->
      if Group.primary_alive s.rgroup then
        repl_exec s (fun () ->
            Group.kill_primary ~crash:true s.rgroup;
            Printf.printf
              "primary node%d power-failed and fenced (epoch %d sealed)\n"
              (Group.primary_index s.rgroup)
              (Group.epoch s.rgroup))
      else print_endline "(already dead)"
  | [ "kill-backup"; n ] | [ "repl"; "kill-backup"; n ] -> (
      match int_of_string_opt n with
      | None -> print_endline "kill-backup expects a node index"
      | Some node ->
          repl_exec s (fun () ->
              match Group.kill_backup ~crash:true s.rgroup node with
              | () ->
                  Printf.printf
                    "backup node%d power-failed and detached (slot dead, no \
                     longer gating the quorum)\n"
                    node
              | exception Invalid_argument m ->
                  Printf.printf "cannot kill backup: %s\n" m))
  | [ "resync"; n ] | [ "repl"; "resync"; n ] -> (
      match int_of_string_opt n with
      | None -> print_endline "resync expects a node index"
      | Some node ->
          repl_exec s (fun () ->
              match Group.resync s.rgroup node with
              | () ->
                  Printf.printf
                    "node%d re-synced: snapshot streamed and installed, slot \
                     re-attached (t=%d ns)\n"
                    node (Sim.now s.rsim)
              | exception Invalid_argument m ->
                  Printf.printf "cannot resync: %s\n" m))
  | [ "promote" ] ->
      repl_exec s (fun () ->
          match Group.promote s.rgroup with
          | () ->
              Printf.printf
                "promoted node%d to primary (epoch %d, %d objects after log \
                 replay)\n"
                (Group.primary_index s.rgroup)
                (Group.epoch s.rgroup)
                (Group.object_count s.rgroup)
          | exception Invalid_argument m -> Printf.printf "cannot promote: %s\n" m)
  | [ "quit" ] | [ "exit" ] -> raise Exit
  | _ ->
      print_endline
        "unknown command (put/get/del/list/checkpoint/repl status/\n\
         kill-primary/kill-backup N/promote/repl resync N/quit)"

let repl_main backups mode latency_ns =
  let sim = Sim.create () in
  let platform = Sim_platform.make sim in
  let nodes =
    Array.init (backups + 1) (fun _ ->
        {
          Group.pm =
            Pmem.create platform
              {
                Pmem.default_config with
                size = Dipper.layout_bytes !cfg;
                crash_model = true;
              };
          ssd = Ssd.create platform { Ssd.default_config with pages = 16384 };
        })
  in
  let link = { Link.default_config with Link.latency_ns } in
  let g = ref None in
  Sim.spawn sim "setup" (fun () ->
      g := Some (Group.create ~mode ~link platform !cfg nodes));
  Sim.run sim;
  let g = Option.get !g in
  let s = { rsim = sim; rgroup = g; rctx = Group.ds_init g } in
  Printf.printf
    "dstore replicated shell ready (primary + %d backup%s, %s, link %d ns; \
     'quit' to exit)\n"
    backups
    (if backups = 1 then "" else "s")
    (Repl.durability_name mode) latency_ns;
  (try
     while true do
       print_string "dstore> ";
       match In_channel.input_line stdin with
       | Some line -> repl_handle s line
       | None -> raise Exit
     done
   with Exit -> ());
  print_endline "bye"

(* A numeric flag's value, at least [min]; anything else exits 2. *)
let int_arg ?(min = 1) flag v =
  match int_of_string_opt v with
  | Some n when n >= min -> n
  | _ ->
      Printf.eprintf "%s expects a %s integer\n" flag
        (if min > 0 then "positive" else "non-negative");
      exit 2

let parse_args () =
  let shards = ref 1 and batch = ref 1 in
  let backups = ref 0
  and rmode = ref Repl.Ack_all
  and latency = ref Link.default_config.Link.latency_ns in
  let rec go = function
    | [] -> ()
    | "--shards" :: n :: rest ->
        shards := int_arg "--shards" n;
        go rest
    | "--batch" :: n :: rest ->
        batch := int_arg "--batch" n;
        go rest
    | "--backups" :: n :: rest ->
        backups := int_arg "--backups" n;
        go rest
    | "--repl" :: m :: rest -> (
        match Repl.durability_of_string m with
        | Some d ->
            rmode := d;
            go rest
        | None ->
            prerr_endline "--repl expects async, ack-one or ack-all";
            exit 2)
    | "--latency-ns" :: n :: rest ->
        latency := int_arg ~min:0 "--latency-ns" n;
        go rest
    | "--cache-mb" :: n :: rest ->
        let mb = int_arg ~min:0 "--cache-mb" n in
        cfg := { !cfg with Config.cache_bytes = mb * 1024 * 1024 };
        go rest
    | "--apply-depth" :: n :: rest ->
        cfg := { !cfg with Config.repl_apply_depth = int_arg "--apply-depth" n };
        go rest
    | a :: _ ->
        Printf.eprintf
          "unknown argument %s (try --shards N, --batch N, --cache-mb N, \
           --backups N, --repl MODE, --latency-ns N, --apply-depth N)\n"
          a;
        exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  (!shards, !batch, !backups, !rmode, !latency)

let () =
  let n_shards, batch, backups, rmode, latency = parse_args () in
  (* --cache-mb names the whole-machine budget; shards each own a slice. *)
  if !cfg.Config.cache_bytes > 0 && n_shards > 1 then
    cfg :=
      { !cfg with Config.cache_bytes = max 1 (!cfg.Config.cache_bytes / n_shards) };
  if backups > 0 then begin
    repl_main backups rmode latency;
    exit 0
  end;
  let sim = Sim.create () in
  let platform = Sim_platform.make sim in
  let bw = Pmem.Bw.create () in
  let nodes =
    Array.init n_shards (fun _ ->
        {
          Cluster.pm =
            Pmem.create platform
              {
                Pmem.default_config with
                size = Dipper.layout_bytes !cfg;
                crash_model = true;
                share = Some bw;
              };
          ssd = Ssd.create platform { Ssd.default_config with pages = 16384 };
        })
  in
  let obs = Obs.create ~now:(fun () -> platform.Platform.now ()) () in
  let s =
    {
      sim;
      platform;
      nodes;
      obs;
      cluster = None;
      ctx = None;
      batch;
      staged = [];
      txn = None;
      rng = Rng.create 7;
    }
  in
  exec s (fun () ->
      let c =
        Cluster.create ~obs ~shard_obs:(shard_obs s) platform !cfg s.nodes
      in
      s.cluster <- Some c;
      s.ctx <- Some (Cluster.ds_init c));
  Printf.printf
    "dstore shell ready (%d shard%s on simulated devices; 'quit' to exit)\n"
    n_shards
    (if n_shards = 1 then "" else "s");
  (try
     while true do
       print_string "dstore> ";
       (match In_channel.input_line stdin with
       | Some line -> (
           match s.cluster with
           | None
             when not
                    (List.mem (String.trim line)
                       [ "recover"; "quit"; "exit"; "" ]) ->
               print_endline "(crashed: only 'recover' or 'quit' make sense)"
           | _ -> handle s line)
       | None -> raise Exit)
     done
   with Exit -> ());
  print_endline "bye"
