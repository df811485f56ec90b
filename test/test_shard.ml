(* Tests for the sharded cluster layer (lib/shard): Shard_map partition
   properties, cross-shard Table 2 behavior, the staggered checkpoint
   gate, prefixed metrics merging, and the tier-1 crash story — power
   failure with one shard mid-checkpoint, whole-cluster recovery, and
   read-back of every acknowledged write. *)

open Dstore_platform
open Dstore_pmem
open Dstore_ssd
open Dstore_core
open Dstore_shard
open Dstore_util
open Alcotest
module Obs = Dstore_obs.Obs
module Metrics = Dstore_obs.Metrics

(* Small per-shard logs so checkpoints recur inside short scenarios; same
   shape as the checker's cluster fixture. *)
let small_cfg =
  {
    Config.default with
    log_slots = 64;
    space_bytes = 4 * 1024 * 1024;
    meta_entries = 1024;
    ssd_blocks = 2048;
    checkpoint_workers = 2;
  }

type fx = { sim : Sim.t; p : Platform.t; nodes : Cluster.node array }

let fixture ?(cfg = small_cfg) ?(crash_model = false) ~shards () =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let bw = Pmem.Bw.create () in
  let nodes =
    Array.init shards (fun _ ->
        {
          Cluster.pm =
            Pmem.create p
              {
                Pmem.default_config with
                size = Dipper.layout_bytes cfg;
                crash_model;
                share = Some bw;
              };
          ssd =
            Ssd.create p
              { Ssd.default_config with pages = cfg.Config.ssd_blocks };
        })
  in
  { sim; p; nodes }

(* --- Shard_map partition properties ----------------------------------- *)

let key_gen = QCheck.(string_gen_of_size Gen.(int_range 0 64) Gen.printable)

let prop_shard_map_total =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"shard_map: total and in range" ~count:300
       QCheck.(pair key_gen (int_range 1 16))
       (fun (key, n) ->
         let m = Shard_map.create ~shards:n in
         let s = Shard_map.shard_of m key in
         0 <= s && s < n))

let prop_shard_map_deterministic =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"shard_map: deterministic and instance-independent" ~count:300
       QCheck.(pair key_gen (int_range 1 16))
       (fun (key, n) ->
         let a = Shard_map.create ~shards:n in
         let b = Shard_map.create ~shards:n in
         Shard_map.shard_of a key = Shard_map.shard_of a key
         && Shard_map.shard_of a key = Shard_map.shard_of b key))

let prop_shard_map_stable =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"shard_map: assignment is a pure function of key bytes"
       ~count:300 key_gen
       (fun key ->
         (* Stability across processes/sessions reduces to the hash being
            defined by the key bytes alone: a copied key routes the same. *)
         let m = Shard_map.create ~shards:7 in
         let copy = String.init (String.length key) (String.get key) in
         Shard_map.shard_of m key = Shard_map.shard_of m copy
         && Shard_map.hash key = Shard_map.hash copy))

let test_shard_map_spread () =
  (* Not a uniformity proof, just an anti-degeneracy guard: 10k distinct
     keys over 4 shards must not starve or overload any shard badly. *)
  let m = Shard_map.create ~shards:4 in
  let counts = Array.make 4 0 in
  for i = 0 to 9_999 do
    let s = Shard_map.shard_of m (Printf.sprintf "user%010d" i) in
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 1_500 || c > 3_500 then
        failf "shard %d got %d of 10000 keys (degenerate partition)" i c)
    counts;
  check int "everything routed" 10_000 (Array.fold_left ( + ) 0 counts)

let test_shard_map_bad_args () =
  check_raises "zero shards rejected"
    (Invalid_argument "Shard_map.create: shards must be >= 1") (fun () ->
      ignore (Shard_map.create ~shards:0))

(* --- Cluster basic operation ------------------------------------------ *)

let test_cluster_basic_ops () =
  let fx = fixture ~shards:3 () in
  Sim.spawn fx.sim "w" (fun () ->
      let c = Cluster.create fx.p small_cfg fx.nodes in
      let ctx = Cluster.ds_init c in
      let n = 200 in
      for i = 0 to n - 1 do
        Cluster.oput ctx (Printf.sprintf "key%04d" i)
          (Bytes.of_string (Printf.sprintf "value-%d" i))
      done;
      (* Every key readable through the cluster, on its owning shard. *)
      for i = 0 to n - 1 do
        let k = Printf.sprintf "key%04d" i in
        (match Cluster.oget ctx k with
        | Some v ->
            check string "value round-trips" (Printf.sprintf "value-%d" i)
              (Bytes.to_string v)
        | None -> failf "key %s missing" k);
        check bool "oexists agrees" true (Cluster.oexists ctx k)
      done;
      (* The partition is real: at least two shards hold objects, and the
         per-shard counts sum to the global count. *)
      let per =
        List.init 3 (fun i -> Dstore.object_count (Cluster.shard_store c i))
      in
      check int "counts sum" n (List.fold_left ( + ) 0 per);
      check bool "spread over >1 shard" true
        (List.length (List.filter (fun x -> x > 0) per) > 1);
      (* Global listing is sorted and complete. *)
      let names = Cluster.olist ctx ~prefix:"key" in
      check int "olist complete" n (List.length names);
      check bool "olist sorted" true (names = List.sort compare names);
      (* Deletes route correctly too. *)
      check bool "delete hits" true (Cluster.odelete ctx "key0000");
      check bool "delete is idempotent-false" false
        (Cluster.odelete ctx "key0000");
      check int "count drops" (n - 1) (Cluster.object_count c);
      Cluster.ds_finalize ctx;
      Cluster.stop c);
  Sim.run fx.sim

let test_cluster_obatch () =
  (* Group commit across the partition: one obatch call splits by shard
     hash, runs one group commit per owning shard, and reports results in
     input order. *)
  let fx = fixture ~shards:3 () in
  Sim.spawn fx.sim "w" (fun () ->
      let c = Cluster.create fx.p small_cfg fx.nodes in
      let ctx = Cluster.ds_init c in
      Cluster.oput ctx "pre" (Bytes.of_string "old");
      let n = 12 in
      let ops =
        List.concat
          [
            List.init n (fun i ->
                Dstore.Bput
                  ( Printf.sprintf "bkey%03d" i,
                    Bytes.of_string (Printf.sprintf "bval-%d" i) ));
            [ Dstore.Bdelete "pre"; Dstore.Bdelete "ghost" ];
          ]
      in
      let res = Cluster.obatch ctx ops in
      check int "one result per op, in order" (n + 2) (List.length res);
      check
        (list bool)
        "puts true, live delete true, ghost delete false"
        (List.init n (fun _ -> true) @ [ true; false ])
        res;
      for i = 0 to n - 1 do
        let k = Printf.sprintf "bkey%03d" i in
        match Cluster.oget ctx k with
        | Some v ->
            check string "batched value round-trips"
              (Printf.sprintf "bval-%d" i) (Bytes.to_string v)
        | None -> failf "batched key %s missing" k
      done;
      check bool "deleted key gone" false (Cluster.oexists ctx "pre");
      (* The batch really fanned out: more than one shard committed a
         group, and the record counts sum to the ops we issued. *)
      let per i =
        let st = Dipper.stats (Dstore.engine (Cluster.shard_store c i)) in
        (st.Dipper.batches_committed, st.Dipper.batch_records)
      in
      let stats = List.init 3 per in
      check bool "more than one shard group-committed" true
        (List.length (List.filter (fun (b, _) -> b > 0) stats) > 1);
      check int "batched records sum across shards" (n + 2)
        (List.fold_left (fun acc (_, r) -> acc + r) 0 stats);
      (* Convenience wrappers route through the same path. *)
      Cluster.oput_batch ctx
        [ ("wa", Bytes.of_string "1"); ("wb", Bytes.of_string "2") ];
      check bool "oput_batch keys live" true
        (Cluster.oexists ctx "wa" && Cluster.oexists ctx "wb");
      check (list bool) "odelete_batch results in order" [ true; false; true ]
        (Cluster.odelete_batch ctx [ "wa"; "nope"; "wb" ]);
      Cluster.ds_finalize ctx;
      Cluster.stop c);
  Sim.run fx.sim

let test_cluster_gate_staggered () =
  (* Under the staggered policy the checkpoint gate must keep the
     concurrency high-water mark at one, while still letting every shard
     checkpoint repeatedly. *)
  let fx = fixture ~shards:3 () in
  Sim.spawn fx.sim "w" (fun () ->
      let c = Cluster.create ~policy:Cluster.staggered fx.p small_cfg fx.nodes in
      let ctx = Cluster.ds_init c in
      for i = 0 to 2_000 do
        Cluster.oput ctx
          (Printf.sprintf "key%04d" (i mod 300))
          (Bytes.make 64 'x')
      done;
      let ckpts i =
        (Dipper.stats (Dstore.engine (Cluster.shard_store c i))).Dipper.checkpoints
      in
      let total = ckpts 0 + ckpts 1 + ckpts 2 in
      check bool "checkpoints happened" true (total >= 3);
      check bool "gate held concurrency at <= 1" true
        (Cluster.peak_concurrent_checkpoints c <= 1);
      Cluster.stop c);
  Sim.run fx.sim

(* --- Metrics namespacing ---------------------------------------------- *)

let test_metrics_prefix_merge () =
  let shard0 = Metrics.create () in
  let shard1 = Metrics.create () in
  Metrics.add (Metrics.counter shard0 "op.put") 2;
  Metrics.add (Metrics.counter shard1 "op.put") 5;
  Metrics.gauge_fn shard0 "fill" (fun () -> 42);
  let dst = Metrics.create () in
  Metrics.merge_into ~prefix:"shard0." ~materialize:true ~dst shard0;
  Metrics.merge_into ~prefix:"shard1." ~materialize:true ~dst shard1;
  check (option int) "shard0 counter kept apart" (Some 2)
    (Metrics.value dst "shard0.op.put");
  check (option int) "shard1 counter kept apart" (Some 5)
    (Metrics.value dst "shard1.op.put");
  check (option int) "callback gauge materialized" (Some 42)
    (Metrics.value dst "shard0.fill");
  (* Without materialize, callback gauges do not transfer. *)
  let dst2 = Metrics.create () in
  Metrics.merge_into ~prefix:"shard0." ~dst:dst2 shard0;
  check (option int) "fn gauge skipped by default" None
    (Metrics.value dst2 "shard0.fill")

let test_cluster_stop_merges_shard_metrics () =
  let fx = fixture ~shards:2 () in
  Sim.spawn fx.sim "w" (fun () ->
      let c = Cluster.create fx.p small_cfg fx.nodes in
      let ctx = Cluster.ds_init c in
      for i = 0 to 400 do
        Cluster.oput ctx (Printf.sprintf "key%03d" (i mod 97)) (Bytes.make 80 'y')
      done;
      Cluster.stop c;
      let m = (Cluster.obs c).Obs.metrics in
      let appended i =
        Option.value ~default:0
          (Metrics.value m (Printf.sprintf "shard%d.dipper.records_appended" i))
      in
      check bool "both shards reported engine series" true
        (appended 0 > 0 && appended 1 > 0);
      check int "no unprefixed clobber" 401 (appended 0 + appended 1);
      ignore ctx);
  Sim.run fx.sim

(* --- Crash mid-checkpoint, whole-cluster recovery --------------------- *)

exception Boom

let test_cluster_crash_mid_ckpt_recover () =
  let shards = 3 in
  let fx = fixture ~crash_model:true ~shards () in
  let target = 0 in
  let tpm = fx.nodes.(target).Cluster.pm in
  let acked = Hashtbl.create 512 in
  (* The write in flight when power fails: its log record may or may not
     have persisted before the crash event, so recovery may legitimately
     surface either the previous acked value or this one. *)
  let pending = ref None in
  let cref = ref None in
  let crashed_mid_ckpt = ref false in
  (* Power-fail the whole machine at the first persistence event on the
     target shard's DIMM that lands inside one of its checkpoints — but
     only once the workload has made real progress, so the read-back
     covers a non-trivial acked set spanning earlier checkpoints. *)
  Pmem.set_persist_hook tpm
    (Some
       (fun _ ->
         match !cref with
         | Some c
           when Hashtbl.length acked > 150
                && Cluster.is_checkpoint_running c target ->
             crashed_mid_ckpt := true;
             raise Boom
         | _ -> ()));
  Sim.spawn fx.sim "w" (fun () ->
      let c = Cluster.create ~policy:Cluster.staggered fx.p small_cfg fx.nodes in
      cref := Some c;
      let ctx = Cluster.ds_init c in
      for i = 0 to 5_000 do
        let k = Printf.sprintf "key%04d" (i mod 211) in
        let v = Bytes.of_string (Printf.sprintf "v%d-%s" i k) in
        pending := Some (k, Bytes.to_string v);
        Cluster.oput ctx k v;
        (* Only acknowledged writes go into the expectation set. *)
        Hashtbl.replace acked k (Bytes.to_string v);
        pending := None
      done);
  (try Sim.run fx.sim with Boom -> ());
  Pmem.set_persist_hook tpm None;
  check bool "scenario crashed inside a checkpoint" true !crashed_mid_ckpt;
  Sim.clear_pending fx.sim;
  (* Whole-machine power loss: every DIMM loses its unflushed lines. *)
  let rng = Rng.create 97 in
  Array.iteri
    (fun j (nd : Cluster.node) ->
      Pmem.crash nd.Cluster.pm
        (if j = target then Pmem.Random (Rng.split rng) else Pmem.Drop_all))
    fx.nodes;
  Sim.spawn fx.sim "r" (fun () ->
      let c = Cluster.recover ~policy:Cluster.staggered fx.p small_cfg fx.nodes in
      check (list string) "roots verify clean" [] (Cluster.verify_roots c);
      let ctx = Cluster.ds_init c in
      Hashtbl.iter
        (fun k v ->
          match Cluster.oget ctx k with
          | Some got ->
              let got = Bytes.to_string got in
              let pending_ok =
                match !pending with
                | Some (pk, pv) -> pk = k && pv = got
                | None -> false
              in
              if got <> v && not pending_ok then
                failf "key %s: acked %S, recovered %S" k v got
          | None -> failf "acked key %s lost by recovery" k)
        acked;
      List.iter
        (fun i ->
          match Dstore_check.Fsck.run (Cluster.shard_store c i) with
          | [] -> ()
          | bad -> failf "shard %d fsck: %s" i (String.concat "; " bad))
        (List.init shards Fun.id);
      Cluster.stop c);
  Sim.run fx.sim;
  check bool "acked set non-trivial" true (Hashtbl.length acked > 100)

(* --- Bounded explorer sweep ------------------------------------------- *)

let test_cluster_bounded_sweep () =
  let cfg = { small_cfg with Config.log_slots = 64 } in
  let r =
    Dstore_check.Explorer.sweep ~subsets:0 ~stride:16 ~seed:7 ~n_ops:30
      (Cluster { shards = 2; policy = Cluster.staggered; target = 0 })
      cfg
  in
  check bool "swept some crash points" true (r.crash_points > 0);
  check int "no violations" 0 (List.length r.violations);
  check (list int) "fingerprint" [ 28; 12; 1; 1; 0 ]
    (Test_check.fingerprint r)

let suite =
  [
    prop_shard_map_total;
    prop_shard_map_deterministic;
    prop_shard_map_stable;
    ("shard_map: non-degenerate spread", `Quick, test_shard_map_spread);
    ("shard_map: rejects zero shards", `Quick, test_shard_map_bad_args);
    ("cluster: basic ops across 3 shards", `Quick, test_cluster_basic_ops);
    ("cluster: group commit across shards", `Quick, test_cluster_obatch);
    ("cluster: staggered gate caps concurrency", `Quick, test_cluster_gate_staggered);
    ("metrics: prefixed merge keeps shards apart", `Quick, test_metrics_prefix_merge);
    ( "cluster: stop folds shard metrics under shard<i>.",
      `Quick,
      test_cluster_stop_merges_shard_metrics );
    ( "cluster: crash mid-checkpoint, recover, read back",
      `Quick,
      test_cluster_crash_mid_ckpt_recover );
    ( "cluster: bounded crash sweep is violation-free",
      `Slow,
      test_cluster_bounded_sweep );
  ]
