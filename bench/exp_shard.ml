(* Sharded cluster scaling: throughput and write tail latency for 1/2/4/8
   hash-partitioned DStore shards under full client subscription. Every
   shard lives on its own PMEM/SSD pair and checkpoints whenever its own
   log fills, but all PMEMs share one DIMM bandwidth domain, so
   coinciding checkpoints inflate each other's — and the frontends' —
   flush costs, which shows up at the extreme write percentiles. *)

open Dstore_util
open Dstore_workload
module Obs = Dstore_obs.Obs
module Metrics = Dstore_obs.Metrics
open Common

let shard_counts opts =
  List.sort_uniq compare (opts.shards :: [ 1; 2; 4; 8 ])

(* Per-shard logs small enough that checkpoints recur many times within
   the window even at 8 shards; clients think briefly so the cluster — not
   the client loop — is the bottleneck. *)
let shard_scale opts = { (scale_of opts) with Systems.log_slots = 1024 }

let measure_cluster ~shards opts =
  let wl = Ycsb.a ~records:opts.objects () in
  let r =
    Runner.run ~seed:opts.seed ~think_ns:2_000
      ~build:(fun p -> Systems.sharded ~shards p (shard_scale opts))
      ~workload:wl ~clients:opts.clients ~duration_ns:opts.window_ns ()
  in
  record_json (Runner.result_json r);
  r

(* Cluster-side series out of the run's store observability: the cluster
   registry holds every shard's engine counters merged under shard<i>.* at
   stop time. *)
let cluster_metric r name =
  match r.Runner.sys_obs with
  | None -> 0
  | Some o -> Option.value ~default:0 (Metrics.value o.Obs.metrics name)

let total_checkpoints r shards =
  let acc = ref 0 in
  for i = 0 to shards - 1 do
    acc := !acc + cluster_metric r (Printf.sprintf "shard%d.dipper.checkpoints" i)
  done;
  !acc

let run opts =
  hdr "Sharded cluster: throughput and write tail vs shard count";
  note "workload: YCSB-A, %d clients, one shared PMEM bandwidth domain"
    opts.clients;
  let t =
    Tablefmt.create
      [ "shards"; "kops/s"; "mean"; "p50"; "p99"; "p999"; "p9999"; "ckpts" ]
  in
  let tput = Hashtbl.create 8 in
  List.iter
    (fun shards ->
      let r = measure_cluster ~shards opts in
      Hashtbl.replace tput shards r.Runner.throughput;
      Tablefmt.row t
        [
          string_of_int shards;
          Tablefmt.f1 (r.Runner.throughput /. 1e3);
          Tablefmt.f1 (mean_us r.Runner.updates);
          Tablefmt.f1 (us r.Runner.updates 50.0);
          Tablefmt.f1 (us r.Runner.updates 99.0);
          Tablefmt.f1 (us r.Runner.updates 99.9);
          Tablefmt.f1 (us r.Runner.updates 99.99);
          string_of_int (total_checkpoints r shards);
        ])
    (shard_counts opts);
  Tablefmt.print t;
  let get k = try Hashtbl.find tput k with Not_found -> nan in
  note "scaling: 1x=%.0f kops/s  2x=%.0f  4x=%.0f  8x=%.0f"
    (get 1 /. 1e3) (get 2 /. 1e3) (get 4 /. 1e3) (get 8 /. 1e3);
  note "expected shape: throughput grows with shards; checkpoints that";
  note "coincide on the shared DIMMs lift the extreme write percentiles."
